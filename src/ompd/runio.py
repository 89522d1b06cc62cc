"""The run record, and the CSV codec of every table a run writes.

Every table is a header line, then rows of integer index columns (``%d``)
and float columns at 17 significant digits, which read back bit for bit.
The tables of several variants are written together (``write_tables``),
so the cells they share are formatted once. A long table of (T, n) arrays
(``write_long_tables``, example1's ``coefficients.csv``) is written one
block of time steps at a time, from row text with literal ``t, i``, and
its shared column (``a_true``) is formatted once for all variants.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, replace
from itertools import chain, cycle, zip_longest
from typing import Optional

import numpy as np

#: cells formatted per write; a bound on the text held in memory at once
_BLOCK_CELLS = 4096
#: rows whose own cells one ``%`` fills in ``write_tables``. Its output
#: grows by reallocation; a whole block per ``%`` fragmented the heap and
#: raised the peak RSS of a T = 5000 example1 run by about 2 MB.
_FILL_ROWS = 32

#: the RunTrace arrays filled one row per step by ``solver.run``
_PER_STEP_FIELDS = ("iterates", "grad_error_norms", "eps", "f_played",
                    "q_norms", "smoothness", "reg_lipschitz", "step_seconds")


@dataclass
class RunTrace:
    """Per-step record of one run; optima arrive via regret.fill_optima."""

    horizon: int
    dim: int
    x0: np.ndarray
    iterates: np.ndarray            # (T, dim)
    grad_error_norms: np.ndarray    # (T,)
    eps: np.ndarray                 # (T,)
    f_played: np.ndarray            # (T,)
    q_norms: np.ndarray             # (T,) ||noisy grad + grad V(y,x_prev)/lam||
    smoothness: np.ndarray          # (T,) declared L_k
    reg_lipschitz: np.ndarray       # (T,) declared B_k
    step_seconds: np.ndarray        # (T,) wall time, monotonic clock
    step_size: float
    domain_kind: str
    domain_diameter: Optional[float]
    optima: Optional[np.ndarray] = None      # (T, dim)
    f_star: Optional[np.ndarray] = None      # (T,)

    def has_optima(self) -> bool:
        return self.optima is not None and self.f_star is not None

    def truncated(self, upto: int) -> "RunTrace":
        """Copy holding only the first ``upto`` completed steps."""
        steps = {name: getattr(self, name)[:upto].copy()
                 for name in _PER_STEP_FIELDS}
        return replace(self, horizon=upto, optima=None, f_star=None,
                       **steps)


def one_per_path(value, paths) -> list:
    """``value`` for each of ``paths``, unless it is a list of one each."""
    if not paths:
        raise ValueError("no path to write to")
    if not isinstance(value, (list, tuple)):
        return [value] * len(paths)
    if len(value) != len(paths):
        raise ValueError(f"{len(value)} values for {len(paths)} paths")
    return list(value)


def _same_cells(arrays) -> bool:
    """Whether every array writes the text of the first: equal shape,
    dtype and values, signs of zero included (NaN never counts as equal)."""
    first = arrays[0]
    return all(a is first or (a.dtype == first.dtype
                              and a.shape == first.shape
                              and np.array_equal(a, first)
                              and np.array_equal(np.signbit(a),
                                                 np.signbit(first)))
               for a in arrays[1:])


def _cell_formats(column) -> list:
    cell = "%d" if column.dtype.kind in "iu" else "%.17g"
    return [cell] * (column.shape[1] if column.ndim == 2 else 1)


def _row_cells(columns, lo: int, hi: int):
    """The cells of rows lo..hi-1 of ``columns``, one tuple per row.

    Each block of rows is cut from every array with one ``tolist``, so
    integer columns reach ``%d`` as Python ints, exact at any size.
    """
    block = zip(*(c[lo:hi].tolist() for c in columns))
    if columns[-1].ndim == 2:  # the 2-D group's cells close each row
        block = ((*head, *tail) for *head, tail in block)
    return block


def write_tables(paths, header, tables) -> None:
    """Write one table per path, block by block, under one header.

    ``tables`` holds each path's columns: equal-length arrays, of which
    the last may be 2-D (several columns). Per block of rows, the cells
    that are equal in every table (``_same_cells``) are formatted once,
    into row texts that keep a ``%`` spec in place of every other cell.
    Each table's own cells then fill those texts, ``_FILL_ROWS`` rows per
    ``%``. With one path every cell is shared and the row texts are the
    block itself.
    """
    if not paths or len(tables) != len(paths):
        raise ValueError(f"{len(tables)} tables for {len(paths)} paths")
    by_column = list(zip(*tables))
    for arrays in by_column:
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("the tables differ in shape")
    shared = [_same_cells(arrays) for arrays in by_column]
    specs = [_cell_formats(arrays[0]) for arrays in by_column]
    # a cell that differs between tables keeps its spec, escaped
    row = ",".join(spec if same else "%" + spec
                   for same, column in zip(shared, specs)
                   for spec in column) + "\n"
    common = [arrays[0] for same, arrays in zip(shared, by_column) if same]
    own = [list(columns) for columns in zip(*(
        arrays for same, arrays in zip(shared, by_column) if not same))]
    rows = max(1, _BLOCK_CELLS // len(header))
    n = len(by_column[0][0])
    with _open_tables(paths, header) as files:
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            # without a shared cell, ``% ()`` only unescapes the specs
            texts = ([row % cells for cells in _row_cells(common, lo, hi)]
                     if common else [row % ()] * (hi - lo))
            if not own:
                text = "".join(texts)
                for fh in files:
                    fh.write(text)
                continue
            for fh, text in zip(files, _filled(texts, _FILL_ROWS, (
                    list(chain.from_iterable(_row_cells(columns, lo, hi)))
                    for columns in own))):
                fh.write(text)


def write_table(path, header, columns) -> None:
    """One table: ``write_tables`` with one path."""
    write_tables((path,), header, (columns,))


def write_long_tables(paths, header, shared, own) -> None:
    """``write_tables`` of the columns t, i, ``shared`` and the path's array
    in ``own`` ((T, n) arrays; rows in (t, i) order, t and i 1-based), from
    one row text per step with ``i`` literal. Per block of steps, ``t`` is
    put in and ``shared`` formatted once for every path; each path's cells
    then fill a few steps per ``%``."""
    if any(a.shape != shared.shape for a in own):
        raise ValueError("the tables differ in shape")
    if all(a is own[0] for a in own):  # variants played as one run
        own = own[:1]
    T, n = shared.shape
    step = "".join(f"{{t}},{i},%.17g,%%.17g\n" for i in range(1, n + 1))
    steps = max(1, _BLOCK_CELLS // len(header) // n)
    with _open_tables(paths, header) as files:
        for lo in range(0, T, steps):
            texts = [step.replace("{t}", str(t)) % tuple(cells) for t, cells
                     in enumerate(shared[lo:lo + steps].tolist(), lo + 1)]
            for fh, text in zip(files, cycle(_filled(
                    texts, max(1, _FILL_ROWS // n),
                    (a[lo:lo + steps].ravel().tolist() for a in own)))):
                fh.write(text)


@contextlib.contextmanager
def _open_tables(paths, header):
    """The files at ``paths``, open for writing, each under ``header``."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8"))
                 for p in paths]
        for fh in files:
            fh.write(",".join(header) + "\n")
        yield files


def _filled(texts, per: int, cells):
    """``texts`` joined ``per`` at a time, filled by each list in ``cells``
    (an equal share per text): one string per list."""
    chunks = ["".join(texts[j:j + per]) for j in range(0, len(texts), per)]
    for values in cells:
        width = len(values) // len(texts) * per
        yield "".join([chunk % tuple(values[j:j + width]) for chunk, j
                       in zip(chunks, range(0, len(values), width))])


def read_table(path):
    """Header names and the (rows, columns) float array of one CSV.

    Raises ValueError on a cell that is not a number, on a row whose
    width differs from the header's, and on a table without rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            # a table without rows is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[0]} rows of {data.shape[1]} "
                         f"columns under {len(header)} header names")
    return header, data


def _check_header(path, header, expected) -> None:
    """Raise ValueError at the first column name that is not the writer's."""
    for j, (got, want) in enumerate(zip_longest(header, expected), 1):
        if got != want:
            raise ValueError(f"{path}: column {j} is {got!r}, not {want!r}")


#: trace.csv columns, in order
TRACE_CSV_HEADER = ("k,f_x,f_star,instant_regret,grad_error_norm,eps,"
                    "dist_to_optimum,cum_regret").split(",")

#: bound_state.csv scalar column -> the RunTrace field it holds
_STATE_COLUMNS = {"eps": "eps", "e_norm": "grad_error_norms",
                  "q_norm": "q_norms", "L_k": "smoothness",
                  "B_k": "reg_lipschitz", "f_x": "f_played",
                  "f_star": "f_star"}


def _state_header(dim: int) -> list:
    return ["k", *_STATE_COLUMNS] + [f"xstar_{j}" for j in range(dim)]


def write_state_csv(traces, *paths) -> None:
    """Per-step scalars and optima for ``verify``; row k = 0 holds x0.

    ``traces`` is one trace, or a list of one per path; the files are
    written together (``write_tables``).
    """
    traces = one_per_path(traces, paths)
    if any(trace.optima is None for trace in traces):
        raise ValueError("state csv needs filled optima")
    write_tables(paths, _state_header(traces[0].dim), [
        [np.arange(trace.horizon + 1),
         *(np.concatenate(([0.0], getattr(trace, field)))
           for field in _STATE_COLUMNS.values()),
         np.vstack([trace.x0, trace.optima])] for trace in traces])


def read_state_csv(path) -> dict:
    """The state file's columns; ValueError unless its header is ours."""
    header, data = read_table(path)
    _check_header(path, header, _state_header(len(header) - 8))
    state = {name: data[1:, j] for j, name in enumerate(_STATE_COLUMNS, 1)}
    return dict(state, x0=data[0, 8:], optima=data[1:, 8:],
                dim=len(header) - 8)


def trace_from_state(state: dict, step_size: float, domain_kind: str,
                     diameter) -> RunTrace:
    """Rebuild the trace fields the ledger and bound evaluators consume.

    Iterates are not persisted (the bound needs only the recorded scalars
    and optima), so that array is zeros.
    """
    T, n = state["optima"].shape
    return RunTrace(
        horizon=T, dim=n, x0=state["x0"],
        iterates=np.zeros((T, n)), step_seconds=np.zeros(T),
        step_size=step_size,
        domain_kind=domain_kind, domain_diameter=diameter,
        optima=state["optima"],
        **{field: state[name] for name, field in _STATE_COLUMNS.items()})


def read_trace_csv(path) -> dict:
    """trace.csv by column name; ValueError unless its header is ours."""
    header, data = read_table(path)
    _check_header(path, header, TRACE_CSV_HEADER)
    return {name: data[:, j] for j, name in enumerate(header)}
