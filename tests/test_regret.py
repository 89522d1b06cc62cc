"""Offline optima, ledger accounting, and the certified bound machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompd import (CompositeLossStep, ErrorModel, MissingOptimaError,
                  OptimumError, RegimeMismatchError, SolverConfig, ball, box,
                  certified_margin, dynamic_regret, euclidean_generator,
                  fill_optima, ledger_from_trace, offline_optimum, prox,
                  recursion_bound, run, stream_optima, theorem_rhs,
                  whole_space, zero_error_model, zero_rule)
from ompd import experiments, regret
from ompd.experiments import (GaussMarkovConfig, SeparationConfig,
                              generate_gauss_markov, generate_separation,
                              lasso_optima_batch, lasso_stream,
                              tracking_stream)
from ompd.solver import RunTrace

EUCLID = euclidean_generator()


def _lasso_coordinate_descent(A, b, eta, iters=20000):
    """Independent oracle: cyclic coordinate minimization of the lasso."""
    n = A.shape[1]
    x = np.zeros(n)
    col_sq = np.sum(A * A, axis=0)
    for _ in range(iters):
        for i in range(n):
            r = b - A @ x + A[:, i] * x[i]
            rho = float(A[:, i] @ r)
            x[i] = np.sign(rho) * max(abs(rho) - eta / 2.0, 0.0) / col_sq[i]
    return x


def _manual_trace(f_played, f_star, optima, x0=None, eps=None, e_norms=None,
                  q_norms=None, B=0.0, step_size=0.1, domain_kind="whole_space",
                  diameter=None):
    f_played = np.asarray(f_played, dtype=float)
    T = f_played.size
    optima = np.asarray(optima, dtype=float)
    n = optima.shape[1]
    trace = RunTrace(
        horizon=T, dim=n,
        x0=np.zeros(n) if x0 is None else np.asarray(x0, float),
        iterates=np.zeros((T, n)),
        grad_error_norms=np.zeros(T) if e_norms is None else np.asarray(e_norms, float),
        eps=np.zeros(T) if eps is None else np.asarray(eps, float),
        f_played=f_played,
        q_norms=np.zeros(T) if q_norms is None else np.asarray(q_norms, float),
        smoothness=np.ones(T), reg_lipschitz=np.full(T, B),
        step_seconds=np.zeros(T), step_size=step_size,
        domain_kind=domain_kind, domain_diameter=diameter,
        optima=optima, f_star=np.asarray(f_star, dtype=float))
    return trace


class TestOfflineOptimum:
    def test_quadratic_whole_space(self):
        c = np.array([2.0, -1.0, 0.5])
        step = tracking_stream(c[None], whole_space(), a=0.5)[0].step_at(1)
        x_star, f_star = offline_optimum(step, whole_space(), tol=1e-10)
        np.testing.assert_allclose(x_star, c, atol=1e-9)
        assert f_star <= 1e-18

    def test_lasso_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        eta = 0.4
        step = lasso_stream(A[None], b[None], eta, whole_space()).step_at(1)
        x_star, _ = offline_optimum(step, whole_space(), tol=1e-11)
        oracle = _lasso_coordinate_descent(A, b, eta)
        np.testing.assert_allclose(x_star, oracle, atol=1e-7)

    def test_linear_objective_on_box_matches_grid_search(self):
        """Linear g pushes the optimum to a box face."""
        g_vec = np.array([1.0, -2.0])
        step = CompositeLossStep(
            smooth_value=lambda x: float(g_vec @ x) + 0.05 * float(x @ x),
            smooth_gradient=lambda x: g_vec + 0.1 * x,
            nonsmooth_value=lambda x: 0.0,
            smoothness_constant=0.1, regularizer_lipschitz=0.0,
            prox_handle=zero_rule(), dim=2)
        dom = box(-1.0, 1.0, dim=2)
        x_star, f_star = offline_optimum(step, dom, tol=1e-10)
        grid = np.linspace(-1.0, 1.0, 401)
        vals = np.array([[step.smooth_value(np.array([a, b_]))
                          for b_ in grid] for a in grid])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        np.testing.assert_allclose(x_star, [grid[i], grid[j]], atol=5e-3)
        assert f_star <= vals[i, j] + 1e-12

    def test_batched_solver_agrees_with_scalar_oracle(self):
        cfg = GaussMarkovConfig(horizon=6, seed=9)
        stream, truth = generate_gauss_markov(cfg)
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-11)
        f_star = stream.total_values(optima)
        for k in (1, 3, 6):
            x_ref, f_ref = offline_optimum(stream.step_at(k), stream.domain,
                                           tol=1e-11)
            np.testing.assert_allclose(optima[k - 1], x_ref, atol=1e-6)
            np.testing.assert_allclose(f_star[k - 1], f_ref, rtol=1e-10)

    def test_underdeclared_smoothness_stops_at_divergence(self, monkeypatch):
        """Step 1/L with L declared 10x too small diverges: an error."""
        calls = _count_composed_prox(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OptimumError) as err:
                offline_optimum(_underdeclared_step(), whole_space(),
                                tol=1e-10)
        assert not np.isfinite(err.value.residual)
        assert err.value.iterations < regret.OPTIMUM_MAX_ITERS
        assert len(calls) < 2000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_without_overflow_warnings(self):
        with pytest.raises(OptimumError) as err:
            offline_optimum(_underdeclared_step(), whole_space(), tol=1e-10)
        assert not np.isfinite(err.value.residual)

    def test_example2_step_costs_few_prox_calls(self, monkeypatch):
        """Cold example2 step 1 at tol 1e-6; backtracking took 8,629 calls."""
        stream, _ = generate_separation(SeparationConfig(seed=1))
        calls = _count_composed_prox(monkeypatch)
        offline_optimum(stream.step_at(1), stream.domain, tol=1e-6)
        assert len(calls) < 1000

    def test_batch_out_of_budget_raises(self, monkeypatch):
        """Twin columns under a binding box leave step 4 to the fallback."""
        cfg = GaussMarkovConfig(horizon=20, seed=9)
        _, truth = generate_gauss_markov(cfg)
        X = truth["X"].copy()
        X[3, :, 1] = X[3, :, 0]
        monkeypatch.setattr(experiments, "LASSO_MAX_ITERS", 5)
        with pytest.raises(OptimumError) as err:
            lasso_optima_batch(X, truth["Y"], cfg.eta,
                               halfwidth=0.2, tol=1e-12)
        assert err.value.residual > 1e-12
        assert err.value.iterations == 5

    @pytest.mark.parametrize("budget", [5, 9])
    def test_batch_out_of_budget_reports_the_last_residual(self, budget,
                                                           monkeypatch):
        """A budget between residual checks reports its last iterate's
        residual: the one a check at every iteration reports."""
        cfg = GaussMarkovConfig(horizon=20, seed=9)
        _, truth = generate_gauss_markov(cfg)
        X = truth["X"].copy()
        X[3, :, 1] = X[3, :, 0]
        monkeypatch.setattr(experiments, "LASSO_MAX_ITERS", budget)

        def residual():
            with pytest.raises(OptimumError) as err:
                lasso_optima_batch(X, truth["Y"], cfg.eta, halfwidth=0.2,
                                   tol=1e-12)
            return err.value.residual

        reported = residual()
        monkeypatch.setattr(prox, "RESIDUAL_CHECK_EVERY", 1)
        assert reported == residual()


def _spy_fallback(monkeypatch):
    """Record grad g(0) of each problem that reaches prox_gradient."""
    calls = []
    kernel = experiments.prox_gradient

    def spy(grad, *args):
        calls.append(grad(np.zeros(args[2].size)))
        return kernel(grad, *args)

    monkeypatch.setattr(experiments, "prox_gradient", spy)
    return calls


class TestLassoOptimaBatch:
    def test_nonfinite_residual_stops_at_the_first_check(self):
        """A NaN in Y used to keep its problem running to max_iters."""
        cfg = GaussMarkovConfig(horizon=3, seed=9)
        _, truth = generate_gauss_markov(cfg)
        Y = truth["Y"].copy()
        Y[1, 0] = np.nan
        with pytest.raises(OptimumError) as err:
            lasso_optima_batch(truth["X"], Y, cfg.eta)
        assert err.value.iterations <= prox.RESIDUAL_CHECK_EVERY
        assert not np.isfinite(err.value.residual)

    def test_near_active_straggler_solves_exactly(self, monkeypatch):
        """Step 426: an inactive |grad_j| at 0.999994 eta stalls FISTA."""
        cfg = GaussMarkovConfig(horizon=5000, seed=7)
        _, truth = generate_gauss_markov(cfg)
        X, Y = truth["X"][425:426], truth["Y"][425:426]
        monkeypatch.setattr(experiments, "LASSO_MAX_ITERS", 1000)
        optima, residuals = lasso_optima_batch(X, Y, cfg.eta, tol=1e-9)
        assert residuals[0] <= 1e-9
        grad = 2.0 * X[0].T @ (X[0] @ optima[0] - Y[0])
        assert np.max(np.abs(grad)) <= cfg.eta * (1.0 + 1e-9)

    def test_twin_columns_alone_reach_the_fallback(self, monkeypatch):
        """A singular system must not spoil the path of the rest."""
        X = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],    # twin columns
                      [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        Y = np.array([[1.0, 2.0], [2.0, -3.0]])
        calls = _spy_fallback(monkeypatch)
        optima, residuals = lasso_optima_batch(X, Y, 1.0)
        assert np.all(residuals <= 1e-9)
        np.testing.assert_allclose(optima[1], [1.5, -2.5, 0.0], rtol=1e-12)
        assert len(calls) == 1  # the twin problem: grad g(0) = -2 X^T y
        np.testing.assert_array_equal(calls[0], -2.0 * X[0].T @ Y[0])

    @pytest.mark.parametrize("halfwidth", [None, 0.5])
    def test_stream_optima_meet_tolerance_and_oracle(self, halfwidth):
        cfg = GaussMarkovConfig(horizon=300, seed=11)
        dom = (whole_space() if halfwidth is None
               else box(-halfwidth, halfwidth, dim=cfg.n_coeffs))
        stream, truth = generate_gauss_markov(cfg, domain=dom)
        tol = 1e-9
        optima, residuals = lasso_optima_batch(
            truth["X"], truth["Y"], cfg.eta, halfwidth=halfwidth, tol=tol)
        f_star = stream.total_values(optima)
        assert np.all(residuals <= tol)
        if halfwidth is not None:
            assert np.all(np.abs(optima) <= halfwidth)
            assert np.any(np.abs(optima) == halfwidth)  # the box binds
        for k in (1, 77, 150, 226, 300):
            x_ref, f_ref = offline_optimum(stream.step_at(k), dom, tol=tol)
            np.testing.assert_allclose(optima[k - 1], x_ref, atol=1e-6)
            np.testing.assert_allclose(f_star[k - 1], f_ref, rtol=1e-10)

    @pytest.mark.parametrize("halfwidth", [None, 0.2])
    def test_chunked_path_matches_one_problem_at_a_time(self, monkeypatch,
                                                        halfwidth):
        """The path runs in chunks of rows; the problems are independent,
        so every optimum keeps its bits: against one call over the whole
        stack for every row, and against one-row stacks for the rows at
        the chunk edges and a sample of the rest."""
        chunk = experiments._LASSO_CHUNK_ROWS
        T = 2 * chunk + 37
        cfg = GaussMarkovConfig(horizon=T, seed=5)
        _, truth = generate_gauss_markov(cfg)
        X, Y = truth["X"], truth["Y"]
        chunked = lasso_optima_batch(X, Y, cfg.eta, halfwidth=halfwidth)
        if halfwidth is not None:
            assert np.any(np.abs(chunked[0]) == halfwidth)  # the box binds
        monkeypatch.setattr(experiments, "_LASSO_CHUNK_ROWS", T)
        whole = lasso_optima_batch(X, Y, cfg.eta, halfwidth=halfwidth)
        for got, want in zip(chunked, whole):
            np.testing.assert_array_equal(got, want)
        rows = sorted({0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, T - 1,
                       *range(11, T, 41)})
        for t in rows:
            alone = lasso_optima_batch(X[t:t + 1], Y[t:t + 1], cfg.eta,
                                       halfwidth=halfwidth)
            for got, want in zip(chunked, alone):
                np.testing.assert_array_equal(got[t:t + 1], want)

    def test_empty_batch_returns_at_once(self):
        """T=0 used to spin the whole iteration budget, then raise."""
        optima, residuals = lasso_optima_batch(
            np.zeros((0, 2, 30)), np.zeros((0, 2)), 0.05)
        assert optima.shape == (0, 30)
        assert residuals.shape == (0,)

    @pytest.mark.parametrize("halfwidth, seed, horizon, row", [
        (None, 7, 2000, None), (0.5, 7, 2000, None), (0.2, 7, 2000, None),
        # rows (0-based) where a coordinate dropped at one event rejoins
        # with the other sign at the next: a bar on both signs left them to
        # the fallback
        (0.2, 7, 5000, 1257), (0.2, 8, 5000, 567)])
    def test_path_solves_a_stream(self, monkeypatch, halfwidth, seed,
                                  horizon, row):
        """The fallback is never entered, on the whole space or a box."""
        calls = _spy_fallback(monkeypatch)
        cfg = GaussMarkovConfig(horizon=horizon, seed=seed)
        _, truth = generate_gauss_markov(cfg)
        X, Y = truth["X"], truth["Y"]
        if row is not None:
            X, Y = X[row:row + 1], Y[row:row + 1]
        _, residuals = lasso_optima_batch(X, Y, cfg.eta, halfwidth=halfwidth)
        assert np.all(residuals <= 1e-9)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), n=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           eta_frac=st.one_of(st.just(0.0), st.floats(0.01, 1.2)),
           twin=st.sampled_from([0, 1, -1]),
           zero_column=st.booleans(),
           halfwidth=st.one_of(st.none(), st.floats(0.05, 2.0)))
    def test_optima_meet_lasso_kkt_and_oracle(self, d, n, seed, eta_frac,
                                              twin, zero_column, halfwidth):
        """eta from 0 to above lambda_max = max_t ||2 X_t^T y_t||_inf.

        It skips (0, 0.01 lambda_max), where the reference oracle takes up
        to seconds per problem.
        """
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, d, n))
        Y = rng.normal(size=(3, d))
        if twin and n >= 2:
            X[:, :, 1] = twin * X[:, :, 0]
        if zero_column:
            X[:, :, -1] = 0.0
        eta = eta_frac * float(np.max(np.abs(
            2.0 * np.einsum("tdn,td->tn", X, Y))))
        tol = 1e-10
        optima, residuals = lasso_optima_batch(
            X, Y, eta, halfwidth=halfwidth, tol=tol)
        domain = (whole_space() if halfwidth is None
                  else box(-halfwidth, halfwidth, dim=n))
        stream = lasso_stream(X, Y, eta, domain)
        f_star = stream.total_values(optima)
        assert np.all(residuals <= tol)
        # the test certifies that -grad g(p) lies within 2 * residual of the
        # subdifferential of eta ||.||_1 (plus the box) at the returned p
        c = 2.0 * np.einsum("tdn,td->tn", X,
                            Y - np.einsum("tdn,tn->td", X, optima))
        slack = 2.0 * tol + 1e-9 * eta
        w = np.inf if halfwidth is None else halfwidth
        inside = np.abs(optima) < w
        on = inside & (optima != 0.0)
        assert np.all(np.abs(c[inside & (optima == 0.0)]) <= eta + slack)
        assert np.all(np.abs(c[on] - eta * np.sign(optima[on])) <= slack)
        assert np.all(c[optima == w] >= eta - slack)
        assert np.all(c[optima == -w] <= -eta + slack)
        for t in range(3):
            _, f_ref = offline_optimum(stream.step_at(t + 1), domain, tol=tol)
            np.testing.assert_allclose(f_star[t], f_ref, rtol=1e-10,
                                       atol=1e-12)


def _underdeclared_step():
    """5 ||x - c||^2, whose gradient is 10-Lipschitz, declared 1-smooth."""
    c = np.array([2.0, -1.0, 0.5])
    return CompositeLossStep(
        smooth_value=lambda x: 5.0 * float(np.dot(x - c, x - c)),
        smooth_gradient=lambda x: 10.0 * (x - c),
        nonsmooth_value=lambda x: 0.0,
        smoothness_constant=1.0, regularizer_lipschitz=0.0,
        prox_handle=zero_rule(), dim=3)


def _count_composed_prox(monkeypatch):
    calls = []
    real = prox.composed_prox

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(prox, "composed_prox", counting)
    return calls


class TestDynamicRegret:
    def test_zero_when_playing_the_optimum(self):
        optima = np.zeros((4, 2))
        trace = _manual_trace(np.ones(4), np.ones(4), optima)
        np.testing.assert_array_equal(dynamic_regret(trace), np.zeros(4))

    def test_single_step_arithmetic(self):
        trace = _manual_trace([2.0], [0.5], np.zeros((1, 2)))
        np.testing.assert_array_equal(dynamic_regret(trace), [1.5])

    def test_missing_optima_raises(self):
        trace = _manual_trace([1.0], [0.5], np.zeros((1, 2)))
        trace.optima = None
        with pytest.raises(MissingOptimaError):
            dynamic_regret(trace)

    def test_cumulative_regret_nondecreasing_within_tolerance(self):
        cfg = GaussMarkovConfig(horizon=80, seed=2)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        trace = run(stream, config, zero_error_model())
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-10)
        fill_optima(trace, stream, optima=optima)
        R = dynamic_regret(trace)
        assert np.all(np.diff(R) >= -1e-6)


#: example1 domains by oracle: the lasso path on the whole space and on an
#: origin-centred cube, ``stream_optima`` on a ball
EX1_DOMAINS = {"whole_space": None, "cube_0.2": box(-0.2, 0.2, dim=30),
               "ball": ball(0.5)}


class TestOneSourceOfFStar:
    """f_k(x_k*) is the stream's own evaluator at the optima, bit for bit,
    whichever oracle found them."""

    @pytest.mark.parametrize("domain", EX1_DOMAINS.values(),
                             ids=EX1_DOMAINS.keys())
    def test_example1(self, domain):
        # the lasso path's own formula was 1 ulp off at step 6 here
        cfg = GaussMarkovConfig(horizon=30, seed=14)
        stream, _ = generate_gauss_markov(cfg, domain)
        for result in experiments.run_example1(cfg, domain=domain).values():
            trace = result.trace
            np.testing.assert_array_equal(
                trace.f_star, stream.total_values(trace.optima))

    def test_example2(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=4, seed=2)
        stream, _ = generate_separation(cfg)
        results = experiments.run_example2(cfg)
        trace = results["exact"].trace
        np.testing.assert_array_equal(trace.f_star,
                                      stream.total_values(trace.optima))

    def test_stream_without_batch_values(self):
        stream, _ = TestNonEuclideanCertification._drifting_quadratic(
            6, 3, 4, whole_space())
        stream = dataclasses.replace(stream, batch_values=None)
        assert stream.batch_values is None
        config = SolverConfig(step_size=0.3, generator=EUCLID,
                              initial_point=np.zeros(3))
        trace = fill_optima(run(stream, config, zero_error_model()), stream,
                            stream_optima(stream, tol=1e-12))
        np.testing.assert_array_equal(trace.f_star,
                                      stream.total_values(trace.optima))
        np.testing.assert_array_equal(
            trace.f_star, [stream.step_at(k).total_value(x)
                           for k, x in enumerate(trace.optima, 1)])


class TestLedger:
    def test_zero_errors_static_optima_zero_ledger(self):
        optima = np.tile(np.array([1.0, 2.0]), (5, 1))
        trace = _manual_trace(np.ones(5), np.ones(5), optima,
                              x0=np.array([1.0, 2.0]))
        ledger = ledger_from_trace(trace, EUCLID, 0.1, whole_space())
        for name in ("Sigma", "SigmaBar", "E", "P", "s", "Z0"):
            np.testing.assert_array_equal(ledger[name], np.zeros(5))

    def test_two_step_drift_arithmetic(self):
        optima = np.array([[0.0, 0.0], [3.0, 4.0]])
        trace = _manual_trace([1.0, 1.0], [1.0, 1.0], optima)
        ledger = ledger_from_trace(trace, EUCLID, 0.1, whole_space())
        np.testing.assert_array_equal(ledger["s"], [0.0, 5.0])
        np.testing.assert_array_equal(ledger["SigmaBar"], [0.0, 25.0])

    def test_ledger_matches_independent_second_pass(self):
        """Brute-force recomputation from raw arrays, field by field, and
        the prefix sums of the bound from the same sequences."""
        cfg = GaussMarkovConfig(horizon=60, seed=3)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=4)
        trace = run(stream, config, model)
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-10)
        fill_optima(trace, stream, optima=optima)
        ledger = ledger_from_trace(trace, EUCLID, cfg.step_size, whole_space())

        T = trace.horizon
        s = [0.0]  # s_1 under the x_0* := x_1* convention
        for k in range(2, T + 1):
            # sqrt of a sum of squares, not the BLAS dot of a vector norm,
            # whose last bit differs at some steps
            d = optima[k - 1] - optima[k - 2]
            s.append(float(np.sqrt(np.sum(d * d))))
        s = np.asarray(s)
        e2 = np.array([float(np.linalg.norm(
            ErrorModel(gradient_std=0.05, prox_std=0.05,
                       seed=4).gradient_error(k, cfg.n_coeffs)))
            for k in range(1, T + 1)])
        np.testing.assert_array_equal(ledger["s"], s)
        np.testing.assert_array_equal(ledger["Sigma"], np.cumsum(s))
        np.testing.assert_array_equal(ledger["SigmaBar"], np.cumsum(s ** 2))
        np.testing.assert_array_equal(ledger["E"], np.cumsum(e2))
        np.testing.assert_array_equal(ledger["P"], np.cumsum(trace.eps))
        # the drift sum_{t=2..T'} s_t of the error coefficient C is Sigma,
        # since s_1 = 0
        np.testing.assert_array_equal(
            np.concatenate(([0.0], np.cumsum(s[1:]))), ledger["Sigma"])
        assert ledger["D"] == 2.0 * cfg.eta * np.sqrt(cfg.n_coeffs)

    def test_bounded_domain_constant_uses_recorded_step_norms(self):
        cfg = GaussMarkovConfig(horizon=30, seed=5)
        dom = box(-2.0, 2.0, dim=cfg.n_coeffs)
        stream, truth = generate_gauss_markov(cfg, domain=dom)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        trace = run(stream, config, zero_error_model())
        halfwidth = 2.0
        optima, _ = lasso_optima_batch(
            truth["X"], truth["Y"], cfg.eta, halfwidth=halfwidth, tol=1e-10)
        fill_optima(trace, stream, optima=optima)
        ledger = ledger_from_trace(trace, EUCLID, cfg.step_size, dom)
        B = cfg.eta * np.sqrt(cfg.n_coeffs)
        assert ledger["D"] == 2.0 * B + float(np.max(trace.q_norms))


class TestRecursionBound:
    def test_zero_tau_reduces_to_sqrt_S(self):
        S = np.array([0.0, 1.0, 4.0, 9.0])
        tau = np.zeros(4)
        assert recursion_bound(S, tau, 3) == 3.0

    def test_single_tau_arithmetic(self):
        S = np.zeros(2)
        tau = np.array([0.0, 2.0])
        assert recursion_bound(S, tau, 1) == 2.0

    def test_rejects_decreasing_S(self):
        with pytest.raises(ValueError):
            recursion_bound(np.array([1.0, 0.5]), np.array([0.0, 0.0]), 1)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            recursion_bound(np.zeros(2), np.array([0.0, -1.0]), 1)

    def test_dominates_forward_simulated_recursions(self):
        """u built to satisfy the recursion never exceeds the bound."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            T = int(rng.integers(2, 12))
            u0 = float(rng.uniform(0.0, 1.0))
            S = np.empty(T + 1)
            S[0] = u0 ** 2 + rng.uniform(0.0, 0.5)
            S[1:] = S[0] + np.cumsum(rng.uniform(0.0, 1.0, size=T))
            tau = np.zeros(T + 1)
            tau[1:] = rng.uniform(0.0, 1.0, size=T)
            u = [u0]
            for i in range(1, T + 1):
                cap = S[i] + sum(tau[k] * u[k] for k in range(1, i))
                # place u_i at a random fraction of its allowed range
                hi = 0.5 * tau[i] + np.sqrt(cap + 0.25 * tau[i] ** 2)
                u.append(float(rng.uniform(0.0, hi)))
                assert u[i] ** 2 <= S[i] + sum(tau[k] * u[k]
                                               for k in range(1, i + 1)) + 1e-9
            for i in range(1, T + 1):
                assert u[i] <= recursion_bound(S, tau, i) + 1e-9


class TestNonEuclideanCertification:
    """Certified bound with entropy geometry, where sigma and G differ.

    The Euclidean case has sigma_omega = g_omega = 1, so it cannot catch
    mixed-up constant factors in the ledger or the bound evaluators; the
    entropy generator on [0.2, 1.0] gives G/sigma = 5 and exercises the
    inner subproblem solver inside the online loop.
    """

    @staticmethod
    def _drifting_quadratic(T, n, seed, domain):
        """||x - c_k||^2, c_k a walk clipped to [0.3, 0.9]^n, and optima."""
        rng = np.random.default_rng(seed)
        c = np.empty((T, n))
        c[0] = rng.uniform(0.4, 0.8, size=n)
        for t in range(1, T):
            c[t] = np.clip(c[t - 1] + rng.normal(scale=0.01, size=n),
                           0.3, 0.9)
        return tracking_stream(c, domain)

    @pytest.mark.parametrize("variant", ["exact", "inexact"])
    def test_bounded_regime_certifies(self, variant):
        from ompd import negative_entropy_generator
        gen = negative_entropy_generator(lo=0.2, hi=1.0)
        T, n = 80, 4
        dom = box(0.2, 1.0, dim=n)
        stream, optima = self._drifting_quadratic(T, n, 1, dom)
        config = SolverConfig(step_size=0.3, generator=gen,
                              initial_point=np.full(n, 0.5))
        model = (zero_error_model(seed=1) if variant == "exact"
                 else ErrorModel(gradient_std=0.05, prox_std=0.02, seed=1))
        trace = run(stream, config, model)
        fill_optima(trace, stream, optima=optima)
        ledger = ledger_from_trace(trace, gen, 0.3, dom)
        assert certified_margin(ledger["R"], ledger["RHS"]) >= 0.0
        if variant == "exact":
            # the inner solver's residual bound is folded into eps
            assert np.all(trace.eps > 0.0)
            assert trace.eps.max() <= 1e-8

    @pytest.mark.parametrize("variant", ["exact", "inexact"])
    def test_whole_space_regime_certifies(self, variant):
        from ompd import negative_entropy_generator
        gen = negative_entropy_generator(lo=0.2, hi=1.0)
        T, n = 80, 4
        stream, optima = self._drifting_quadratic(T, n, 2, whole_space())
        config = SolverConfig(step_size=0.3, generator=gen,
                              initial_point=np.full(n, 0.6))
        model = (zero_error_model(seed=2) if variant == "exact"
                 else ErrorModel(gradient_std=0.03, prox_std=0.01, seed=2))
        trace = run(stream, config, model)
        fill_optima(trace, stream, optima=optima)
        # declared constants are only valid where the iterates live
        assert trace.iterates.min() >= 0.2 and trace.iterates.max() <= 1.0
        ledger = ledger_from_trace(trace, gen, 0.3, whole_space())
        assert certified_margin(ledger["R"], ledger["RHS"]) >= 0.0


class TestTheoremRhs:
    def _static_bounded_setup(self):
        c, dom = np.array([0.25, -0.25]), box(-1.0, 1.0, dim=2)
        return tracking_stream(np.tile(c, (6, 1)), dom)[0], c, dom

    def test_zero_error_static_run_from_optimum_has_zero_rhs(self):
        """Starting at the static optimum, every bound term vanishes."""
        stream, c, dom = self._static_bounded_setup()
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=c)
        trace = run(stream, config, zero_error_model())
        fill_optima(trace, stream, stream_optima(stream, tol=1e-12))
        np.testing.assert_allclose(trace.optima, np.tile(c, (6, 1)),
                                   atol=1e-10)
        ledger = ledger_from_trace(trace, EUCLID, 0.5, dom)
        rhs = theorem_rhs(ledger, trace, "bounded")
        np.testing.assert_allclose(rhs, np.zeros(6), atol=1e-12)

    def test_regime_mismatch_raises(self):
        stream, c, dom = self._static_bounded_setup()
        config = SolverConfig(step_size=0.5, generator=EUCLID,
                              initial_point=c)
        trace = run(stream, config, zero_error_model())
        fill_optima(trace, stream, stream_optima(stream, tol=1e-10))
        bounded = ledger_from_trace(trace, EUCLID, 0.5, dom)
        whole = ledger_from_trace(trace, EUCLID, 0.5, whole_space())
        for ledger, other in ((bounded, "whole_space"), (whole, "bounded")):
            with pytest.raises(RegimeMismatchError):
                theorem_rhs(ledger, trace, other)
            with pytest.raises(ValueError):
                theorem_rhs(ledger, trace, "euclidean")

    def test_average_regret_decreases_with_horizon(self):
        """Burn-in dominates early, so R_T/T shrinks as T grows."""
        cfg = GaussMarkovConfig(horizon=300, seed=13)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        trace = run(stream, config, zero_error_model())
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-9)
        fill_optima(trace, stream, optima=optima)
        R = dynamic_regret(trace)
        assert R[299] / 300.0 < R[29] / 30.0

    def test_bound_csv_schema_and_margin_column(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=20, seed=14)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        trace = run(stream, config, zero_error_model())
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-9)
        fill_optima(trace, stream, optima=optima)
        ledger = ledger_from_trace(trace, EUCLID, cfg.step_size, whole_space())
        rhs = theorem_rhs(ledger, trace, "whole_space")
        path = tmp_path / "bound.csv"
        from ompd import write_bound_csv
        np.testing.assert_array_equal(ledger["RHS"], rhs)
        np.testing.assert_array_equal(ledger["R"], dynamic_regret(trace))
        write_bound_csv(ledger, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T,R_T,RHS_T,Sigma_T,SigmaBar_T,E_T,P_T,margin"
        assert len(lines) == 21
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 20
        np.testing.assert_allclose(last[7], last[2] - last[1], rtol=1e-12)
        np.testing.assert_allclose(last[3], np.sum(ledger["s"]), rtol=1e-12)

    @pytest.mark.parametrize("halfwidth", [None, 2.0])
    def test_terms_sum_to_rhs_and_fill_bound_csv(self, tmp_path, halfwidth):
        """The table's RHS and theorem_rhs are the RHS_TERMS added left to
        right, bit for bit, and bound.csv's regret and sums are the
        table's, in both regimes."""
        cfg = GaussMarkovConfig(horizon=40, seed=15)
        dom = (whole_space() if halfwidth is None
               else box(-halfwidth, halfwidth, dim=cfg.n_coeffs))
        stream, truth = generate_gauss_markov(cfg, domain=dom)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=16)
        trace = run(stream, config, model)
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       halfwidth=halfwidth, tol=1e-10)
        fill_optima(trace, stream, optima=optima)
        terms = ledger_from_trace(trace, EUCLID, cfg.step_size, dom)
        assert regret.RHS_TERMS == ("Z0", "DP", "curvature", "error")
        rhs = theorem_rhs(terms, trace, dom.kind)
        for total in (rhs, terms["RHS"]):
            np.testing.assert_array_equal(
                terms["Z0"] + terms["DP"] + terms["curvature"]
                + terms["error"], total)
        assert np.all(terms["E"] > 0.0) and terms["Sigma"][-1] > 0.0
        path = tmp_path / "bound.csv"
        from ompd import write_bound_csv
        write_bound_csv(terms, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 1], dynamic_regret(trace))
        np.testing.assert_array_equal(table[:, 2], rhs)
        for j, name in enumerate(("Sigma", "SigmaBar", "E", "P"), start=3):
            np.testing.assert_array_equal(table[:, j], terms[name])

    def test_certified_inequality_and_lemma_dominance_on_a_run(self):
        """R <= RHS at every prefix, and iterate gaps obey the recursion."""
        cfg = GaussMarkovConfig(horizon=120, seed=7)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size, generator=EUCLID,
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=8)
        trace = run(stream, config, model)
        optima, _ = lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                                       tol=1e-10)
        fill_optima(trace, stream, optima=optima)
        ledger = ledger_from_trace(trace, EUCLID, cfg.step_size, whole_space())
        assert certified_margin(ledger["R"], ledger["RHS"]) >= 0.0
        # S_i and tau_i of the module docstring, from the ledger and trace
        T, lam, sig, G = trace.horizon, cfg.step_size, 1.0, 1.0
        s = np.concatenate(([0.0], ledger["s"], [0.0]))  # s_0 .. s_{T+1}
        S, tau = np.empty(T + 1), np.zeros(T + 1)
        S[0] = (2 * lam / sig) * ledger["Z0"][0]
        for i in range(1, T + 1):
            S[i] = (S[i - 1] + (2 * lam * ledger["D"] / sig) * trace.eps[i - 1]
                    + (2 * G / sig - 1.0) * s[i] ** 2)
            tau[i] = ((2 * lam / sig) * trace.grad_error_norms[i - 1]
                      + (2 * G / sig) * s[i + 1]
                      + (2 * G / sig) * trace.eps[i - 1])
        gaps = np.linalg.norm(trace.iterates - trace.optima, axis=1)
        for i in range(1, trace.horizon + 1):
            assert gaps[i - 1] <= recursion_bound(S, tau, i) + 1e-6


def _static_quadratic_margin(r, a, domain):
    """``certified_margin`` of T = 200 exact steps on f_k(x) = a x^2 from
    x0 = 1 at r = lam L / sigma = 2 a lam, over ``domain``."""
    lam = r / (2.0 * a)
    stream, optima = tracking_stream(np.zeros((200, 1)), domain, a=a)
    config = SolverConfig(step_size=lam, generator=EUCLID,
                          initial_point=np.ones(1))
    trace = fill_optima(run(stream, config, ErrorModel()), stream, optima)
    ledger = ledger_from_trace(trace, EUCLID, lam, domain)
    return certified_margin(ledger["R"], ledger["RHS"])


class TestStepSizeAboveOneOverL:
    """ROADMAP item 1: the bound at r = lam L / sigma in (1, 2], which
    ``run`` accepts. On f_k(x) = x^2 from x0 = 1 with optima 0, no drift
    and no error, the RHS is Z0 and R_T tends to Z0 (1 - r)^2 / (2 - r),
    which exceeds Z0 exactly when r > (1 + sqrt 5) / 2."""

    @pytest.mark.parametrize("r", [1.6, pytest.param(
        1.7, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                     reason="ROADMAP item 1"))])
    def test_static_quadratic_certifies(self, r):
        assert _static_quadratic_margin(r, 1.0, whole_space()) >= 0.0


class TestScaleFreeMargin:
    """ROADMAP item 16: the margin has no absolute allowance. Scaling item
    1's x^2 stream by a power of two (a -> s a, lam -> lam / s) leaves the
    iterates bit-identical and scales R, RHS and the margin exactly, so a
    small enough stream cannot certify a false bound. With 1e-6 T' of
    slack, r = 1.7 at s = 2^-20 certified with a margin of +1.09e-6."""

    @pytest.mark.parametrize("domain", [whole_space(), box(-2.0, 2.0, dim=1)],
                             ids=["whole_space", "box"])
    @pytest.mark.parametrize("r, sign", [(1.6, 1.0), (1.7, -1.0)])
    def test_power_of_two_rescaling_keeps_the_sign(self, domain, r, sign):
        s = 2.0 ** -20
        unit = _static_quadratic_margin(r, 1.0, domain)
        scaled = _static_quadratic_margin(r, s, domain)
        assert np.sign(unit) == np.sign(scaled) == sign
        assert scaled == unit * s
        if r == 1.7:
            assert unit == pytest.approx(-0.372549, abs=5e-7)
