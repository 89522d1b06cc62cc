"""The CSV codec of every run table, and the state file."""

import gc
import tracemalloc

import numpy as np
import pytest

from ompd import (GaussMarkovConfig, MissingOptimaError, SolverConfig,
                  euclidean_generator, fill_optima, generate_gauss_markov,
                  run, stream_optima, zero_error_model)
from ompd.experiments import _write_coefficients_csv
from ompd.regret import BOUND_CSV_HEADER
from ompd.runio import (_BLOCK_CELLS, TRACE_CSV_HEADER, _same_cells,
                        _state_header, format_floats, format_ints,
                        read_state_csv, read_table, write_state_csv,
                        write_table, write_tables)


def _scratch_peak(write, *args):
    """tracemalloc peak of ``write(*args)``, above what was allocated when
    it started."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        write(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestCellFormatters:
    """The array formatters write the bytes of Python's own ``%``, on a
    seeded sample of every kind of cell."""

    @staticmethod
    def _mismatches(block, values, spec):
        lines = np.concatenate(
            [block, np.full((len(block), 1), ord("\n"), np.uint8)], axis=1)
        got = lines[lines != 0].tobytes().decode().split("\n")[:-1]
        assert len(got) == len(values)
        return [(v, text, spec % v) for v, text in zip(values.tolist(), got)
                if text != spec % v]

    def test_floats_are_percent_17g(self):
        rng = np.random.default_rng(34)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        # odd quarters in [1e15, 2.25e15): 18 digits ending in 5, exact
        # ties of the 17-digit rounding, which only ``%`` rounds
        ties = (rng.integers(4 * 10 ** 15, 9 * 10 ** 15, 20_000) | 1) / 4
        x = np.concatenate([
            # random bit patterns: every exponent, nan and subnormals
            rng.integers(0, 2 ** 64, 100_000, np.uint64).view(np.float64),
            rng.choice([-1.0, 1.0], 100_000)
            * 10.0 ** rng.uniform(-330, 308, 100_000),
            powers, np.nextafter(powers, np.inf),
            np.nextafter(powers, -np.inf),
            np.arange(2 ** 53 - 2000, 2 ** 53 + 2000).astype(np.float64),
            [1e16, 1e17, 99999999999999999.0, 9999999999999999.0,
             0.1, 0.0001, 1e-5, 123.0, 1.5, -2.5e-7, 1e280, 1e-280],
            ties, -ties,
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
             -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
            rng.normal(size=80_000)])
        assert len(x) >= 300_000
        assert self._mismatches(format_floats(x), x, "%.17g") == []

    def test_ints_are_percent_d(self):
        """Arrays below 2**53 in magnitude take the float path; any array
        reaching past it goes through ``%`` whole."""
        rng = np.random.default_rng(35)
        info = np.iinfo(np.int64)
        powers = 10 ** np.arange(19)
        exact = 2 ** 53 - 1
        inside = np.concatenate([
            rng.integers(-exact, exact, 50_000, endpoint=True),
            rng.integers(0, 10 ** 6, 50_000), np.arange(-5000, 100_000),
            powers[:16] - 1, powers[:16], powers[:16] + 1, -powers[:16],
            [exact, -exact, 0, -1]])
        beyond = np.concatenate([
            rng.integers(info.min, info.max, 50_000, np.int64),
            powers, -powers, [info.min, info.max, 0, -1, 10 ** 16]])
        above = rng.integers(2 ** 53, info.max, 20_000, endpoint=True)
        for v in (inside, beyond, above, -above, np.array([2 ** 53]),
                  np.array([-2 ** 53]),
                  np.array([2 ** 64 - 1, 2 ** 63, 0, 7], np.uint64),
                  np.arange(1, 9, dtype=np.uint32)):
            assert self._mismatches(format_ints(v), v, "%d") == []
        assert format_ints(np.arange(0)).shape == (0, 24)


class TestTable:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Extremes, and more rows than one write block holds."""
        extremes = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1]
        values = np.resize(extremes, _BLOCK_CELLS + 3)
        k = np.arange(1, values.size + 1)
        path = tmp_path / "table.csv"
        write_table(path, ("k", "v"), [k, values])
        lines = path.read_text().splitlines()
        assert lines[:8] == ["k,v", "1,nan", "2,inf", "3,-inf", "4,-0",
                             "5,4.9406564584124654e-324", "6,1e+308",
                             "7,0.10000000000000001"]
        header, data = read_table(path)
        assert header == ["k", "v"]
        np.testing.assert_array_equal(data[:, 0], k)
        np.testing.assert_array_equal(data[:, 1], values)
        assert np.array_equal(np.signbit(data[:, 1]), np.signbit(values))


    def test_integers_are_exact_beside_floats(self, tmp_path):
        """Integers used to pass through float64, exact only below 2**53."""
        k = np.array([2 ** 53 + 1, -(2 ** 62) - 3])
        path = tmp_path / "table.csv"
        write_table(path, ("k", "v", "x_0", "x_1"),
                    [k, np.array([0.5, -1.0]), np.array([[1.5, 2.0],
                                                         [0.0, -0.0]])])
        assert path.read_text().splitlines() == [
            "k,v,x_0,x_1", "9007199254740993,0.5,1.5,2",
            "-4611686018427387907,-1,0,-0"]


class TestTables:
    def _tables(self):
        """Two tables over more rows than a block holds, whose columns are
        the same object, equal copies, equal but for the sign of zero,
        NaN (never shared), and 2-D with one differing cell."""
        rows = _BLOCK_CELLS // 6 + 70
        rng = np.random.default_rng(3)
        k = np.arange(rows)
        a = rng.normal(size=rows)
        points = rng.normal(size=(rows, 2))
        other = points.copy()
        other[rows - 1, 1] = 0.5
        return (("k", "a", "z", "n", "p_0", "p_1"),
                [[k, a, np.zeros(rows), np.full(rows, np.nan), points],
                 [k, a.copy(), -np.zeros(rows), np.full(rows, np.nan),
                  other]])

    def test_each_file_holds_its_table_written_alone(self, tmp_path):
        header, tables = self._tables()
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        write_tables(paths, header, tables)
        for path, table in zip(paths, tables):
            alone = tmp_path / "alone.csv"
            write_table(alone, header, table)
            assert path.read_bytes() == alone.read_bytes()
        assert paths[1].read_text().splitlines()[1].split(",")[2] == "-0"

    def test_tables_without_a_shared_column(self, tmp_path):
        k = np.arange(5)
        tables = [[k, np.linspace(0.0, 1.0, 5)], [k + 1, np.ones(5)]]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        write_tables(paths, ("k", "v"), tables)
        assert paths[1].read_text().splitlines()[1:3] == ["1,1", "2,1"]
        assert paths[0].read_text().splitlines()[2] == "1,0.25"

    @staticmethod
    def _run_tables(T, rng):
        """Two variants' state, trace and bound tables, shaped and shared as
        ``write_state_csv``, ``write_trace_csv`` and ``write_bound_csv``
        pass them to ``write_tables``, with their headers."""
        k = np.arange(T + 1)
        optima = rng.normal(size=(T + 1, 30))
        f_star = rng.normal(size=T + 1)
        # the variants' optima are equal, in arrays of their own
        state = [[k, *rng.normal(size=(5, T + 1)), f_star.copy(),
                  optima.copy()] for _ in range(2)]
        trace = [[k[1:], rng.normal(size=T), f_star[1:],
                  *rng.normal(size=(5, T))] for _ in range(2)]
        bound = [[k[1:], *rng.normal(size=(7, T))] for _ in range(2)]
        return [(_state_header(30), state), (TRACE_CSV_HEADER, trace),
                (BOUND_CSV_HEADER, bound)]

    def test_scratch_does_not_grow_with_the_horizon(self, tmp_path):
        """Blocks of rows, and ``_same_cells``' comparisons, hold a bounded
        number of cells at a time."""
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        short, long = (self._run_tables(T, np.random.default_rng(6))
                       for T in (1024, 4096))
        for (header, small), (_, large) in zip(short, long):
            growth = (_scratch_peak(write_tables, paths, header, large)
                      - _scratch_peak(write_tables, paths, header, small))
            assert growth <= 64 * 1024, header[0]
        # below the blocks' peak, but growing with T were it not bounded
        optima = [[table[-1] for table in tables[0][1]]
                  for tables in (short, long)]
        assert (_scratch_peak(_same_cells, optima[1])
                - _scratch_peak(_same_cells, optima[0])) <= 64 * 1024

    def test_tables_of_other_shapes_are_refused(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        with pytest.raises(ValueError, match="shape"):
            write_tables(paths, ("k",), [[np.arange(3)], [np.arange(4)]])
        with pytest.raises(ValueError, match="paths"):
            write_tables(paths, ("k",), [[np.arange(3)]])


class TestCoefficientTables:
    """example1's coefficients.csv, written one block of time steps at a
    time with the texts of ``t, i`` repeated, holds the bytes of the long
    table ``t, i, a_true, a_pred`` written by ``write_table``."""

    HEADER = ("t", "i", "a_true", "a_pred")
    EXTREMES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, 3.0]

    def _long_table(self, path, a_true, a_pred):
        t, i = np.indices(a_true.shape) + 1
        write_table(path, self.HEADER,
                    [t.ravel(), i.ravel(), a_true.ravel(), a_pred.ravel()])
        return path.read_bytes()

    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("past_a_block", [False, True],
                             ids=["T=1", "T=block+1"])
    def test_files_are_the_long_table(self, tmp_path, n, past_a_block):
        # a block is _BLOCK_CELLS // 4 rows of four cells, in whole steps
        T = _BLOCK_CELLS // 4 // n + 1 if past_a_block else 1
        a_true = np.resize(self.EXTREMES, (T, n))
        preds = [np.resize(self.EXTREMES[3:] + self.EXTREMES[:3], (T, n)),
                 -np.resize(self.EXTREMES[::-1], (T, n))]
        one = tmp_path / "one.csv"
        _write_coefficients_csv(a_true, preds[0], one)
        assert one.read_bytes() == self._long_table(
            tmp_path / "alone.csv", a_true, preds[0])
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        _write_coefficients_csv(a_true, preds, *paths)
        for path, pred in zip(paths, preds):
            assert path.read_bytes() == self._long_table(
                tmp_path / "alone.csv", a_true, pred)
        assert paths[0].read_bytes() != paths[1].read_bytes()
        # variants played as one run share their fills
        _write_coefficients_csv(a_true, [preds[0], preds[0]], *paths)
        assert (paths[0].read_bytes() == paths[1].read_bytes()
                == one.read_bytes())

    @staticmethod
    def _peak(T, tmp_path):
        """tracemalloc peak of writing two n = 30 tables, above the inputs."""
        rng = np.random.default_rng(5)
        a_true, *preds = rng.normal(size=(3, T, 30))
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        return _scratch_peak(_write_coefficients_csv, a_true, preds, *paths)

    def test_scratch_does_not_grow_with_the_horizon(self, tmp_path):
        """The writer holds one block of steps at a time; index arrays of
        T * n cells would grow it by about 1.4 MB from T = 1024 to 4096."""
        growth = self._peak(4096, tmp_path) - self._peak(1024, tmp_path)
        assert growth <= 64 * 1024


class TestStateCsv:
    @staticmethod
    def _played(x0):
        cfg = GaussMarkovConfig(horizon=5, n_coeffs=4, active_set=(1,),
                                seed=3)
        stream, _ = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size,
                              generator=euclidean_generator(),
                              initial_point=x0)
        return run(stream, config, zero_error_model()), stream

    def test_a_trace_without_optima_is_refused(self, tmp_path):
        """As ``write_trace_csv`` refuses it; nothing is written."""
        trace, _ = self._played(np.zeros(4))
        path = tmp_path / "bound_state.csv"
        with pytest.raises(MissingOptimaError):
            write_state_csv(trace, path)
        assert not path.exists()

    def test_row_zero_holds_the_initial_point(self, tmp_path):
        x0 = np.array([0.5, -0.25, 1.0 / 3.0, 0.0])
        trace, stream = self._played(x0)
        fill_optima(trace, stream, stream_optima(stream, tol=1e-9))
        path = tmp_path / "bound_state.csv"
        write_state_csv(trace, path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == (b"k,eps,e_norm,q_norm,L_k,B_k,f_x,f_star,"
                            b"xstar_0,xstar_1,xstar_2,xstar_3")
        assert lines[1] == b"0,0,0,0,0,0,0,0,0.5,-0.25,0.33333333333333331,0"
        state = read_state_csv(path)
        np.testing.assert_array_equal(state["x0"], x0)
        np.testing.assert_array_equal(state["optima"], trace.optima)
        np.testing.assert_array_equal(state["f_x"], trace.f_played)
