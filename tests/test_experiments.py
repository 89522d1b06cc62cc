"""Generators and drivers for both experiment families."""

import dataclasses

import numpy as np
import pytest

from ompd import (CompositionError, Domain, GaussMarkovConfig, OptimumError,
                  SeparationConfig, background_spectrum, ball, box,
                  coefficient_paths, gauss_markov_constants,
                  generate_gauss_markov, generate_separation,
                  lasso_optima_batch, lasso_stream, offline_optimum, prox,
                  run_example1, run_example2, separation_blocks,
                  separation_constants, separation_f1, separation_optima,
                  separation_smoothness, soft_threshold, stream_optima,
                  tracking_stream, validate_constants, whole_space)
from ompd import experiments
from ompd.regret import OPTIMUM_TOL_DEFAULT
from ompd.runio import read_table


class TestGaussMarkovGenerator:
    def test_inactive_coefficients_stay_zero(self):
        cfg = GaussMarkovConfig(horizon=500, seed=0)
        path = coefficient_paths(cfg)
        inactive = [i for i in range(cfg.n_coeffs)
                    if (i + 1) not in cfg.active_set]
        assert np.all(path[:, inactive] == 0.0)

    def test_stationary_variance_near_one(self):
        """Monte Carlo check of the unit-variance fixed point.

        One chain of 1e5 steps has only ~100 effectively independent
        samples at alpha = 0.999, so the estimate pools both active
        coordinates across five seeded chains.
        """
        samples = []
        for seed in (11, 12, 13, 14, 15):
            cfg = GaussMarkovConfig(horizon=100_000, seed=seed)
            samples.append(coefficient_paths(cfg)[:, [0, 1]].ravel())
        var = float(np.var(np.concatenate(samples)))
        assert 0.95 <= var <= 1.05

    @pytest.mark.parametrize("horizon", [1, 5000])
    def test_paths_match_the_per_step_loop(self, horizon):
        """Bit for bit the numpy loop the scalar recursions replaced."""
        cfg = GaussMarkovConfig(horizon=horizon, seed=8, active_set=(1, 2, 5))
        rng = np.random.default_rng(cfg.seed)
        active = [i - 1 for i in cfg.active_set]
        prev = rng.normal(size=len(active))
        v = rng.normal(scale=np.sqrt(1.0 - cfg.alpha ** 2),
                       size=(horizon, len(active)))
        expected = np.zeros((horizon, cfg.n_coeffs))
        for t in range(horizon):
            prev = cfg.alpha * prev + v[t]
            expected[t, active] = prev
        assert coefficient_paths(cfg).tobytes() == expected.tobytes()

    def test_streams_are_seed_deterministic(self):
        cfg = GaussMarkovConfig(horizon=50, seed=2)
        s1, t1 = generate_gauss_markov(cfg)
        s2, t2 = generate_gauss_markov(cfg)
        np.testing.assert_array_equal(t1["X"], t2["X"])
        np.testing.assert_array_equal(t1["Y"], t2["Y"])
        np.testing.assert_array_equal(t1["a_true"], t2["a_true"])

    def test_observations_follow_the_linear_model(self):
        cfg = GaussMarkovConfig(horizon=50, seed=3, obs_noise_std=0.0)
        _, truth = generate_gauss_markov(cfg)
        recon = np.einsum("tdn,tn->td", truth["X"], truth["a_true"])
        np.testing.assert_allclose(truth["Y"], recon, atol=1e-12)

    def test_stream_constants_validate_with_zero_violations(self):
        cfg = GaussMarkovConfig(horizon=10, seed=4)
        stream, _ = generate_gauss_markov(cfg)
        for k in (1, 5, 10):
            report = validate_constants(stream.step_at(k), samples=300,
                                        seed=k)
            assert report.passed(tol=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            GaussMarkovConfig(alpha=1.0)

    def test_rejects_bad_active_set(self):
        for active_set in ((0, 2), (1, 1), (2, 5, 2)):  # range, repeats
            with pytest.raises(ValueError):
                GaussMarkovConfig(active_set=active_set)


class TestRunExample1:
    def test_variants_share_the_stream_and_differ_in_errors(self):
        cfg = GaussMarkovConfig(horizon=40, seed=5)
        results = run_example1(cfg)
        exact = results["exact"].trace
        inexact = results["inexact"].trace
        assert np.all(exact.grad_error_norms == 0.0)
        assert np.all(exact.eps == 0.0)
        assert np.any(inexact.grad_error_norms > 0.0)
        np.testing.assert_array_equal(exact.f_star, inexact.f_star)

    def test_end_to_end_determinism(self):
        cfg = GaussMarkovConfig(horizon=40, seed=6)
        r1 = run_example1(cfg)
        r2 = run_example1(cfg)
        for variant in ("exact", "inexact"):
            np.testing.assert_array_equal(r1[variant].trace.iterates,
                                          r2[variant].trace.iterates)
            np.testing.assert_array_equal(r1[variant].regret,
                                          r2[variant].regret)

    def test_certified_bound_both_variants(self):
        cfg = GaussMarkovConfig(horizon=60, seed=7)
        results = run_example1(cfg)
        for res in results.values():
            assert res.margin >= 0.0

    def test_output_files_written(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=15, seed=8)
        run_example1(cfg, out_dir=str(tmp_path))
        for variant in ("exact", "inexact"):
            for name in ("trace.csv", "bound.csv", "bound_state.csv",
                         "coefficients.csv"):
                assert (tmp_path / variant / name).exists()
        header = (tmp_path / "exact" / "coefficients.csv").read_text()
        assert header.splitlines()[0] == "t,i,a_true,a_pred"

    def test_cube_optima_lie_in_the_played_box(self):
        """The half-width is read from the box: 2.1908902300206647 /
        (2 sqrt 30) is 0.2, but rebuilt from the box's diameter it reads
        0.20000000000000007, a box wider than the one played."""
        cfg = GaussMarkovConfig(horizon=200, seed=5)
        halfwidth = 2.1908902300206647 / (2.0 * np.sqrt(cfg.n_coeffs))
        dom = box(-halfwidth, halfwidth, dim=cfg.n_coeffs)
        optima = run_example1(cfg, variants=("exact",),
                              domain=dom)["exact"].trace.optima
        assert np.all(np.abs(optima) <= halfwidth)
        assert np.any(np.abs(optima) == halfwidth)  # the box binds

    def test_off_centre_box_goes_to_the_generic_oracle(self):
        cfg = GaussMarkovConfig(horizon=20, seed=5)
        dom = box(0.0, 1.0, dim=cfg.n_coeffs)
        trace = run_example1(cfg, variants=("exact",),
                             domain=dom)["exact"].trace
        stream = generate_gauss_markov(cfg, dom)[0]
        f_ref = stream.total_values(stream_optima(stream))
        assert np.all((trace.optima >= 0.0) & (trace.optima <= 1.0))
        np.testing.assert_array_equal(trace.f_star, f_ref)


class TestTrackingStream:
    """a ||x - c_k||^2 + eta ||x||_1 over a domain, and its optima."""

    @pytest.mark.parametrize("domain, a, eta", [
        (whole_space(), 3.0, 0.4), (whole_space(), 1.0, 0.0),
        (box(-0.5, 0.8, dim=5), 0.5, 0.3), (box(0.2, 1.0, dim=5), 2.0, 0.7),
        (ball(1.5), 1.5, 0.2),
    ], ids=["whole", "whole-zero-rule", "box", "nonnegative-box", "ball"])
    def test_values_constants_and_optima(self, domain, a, eta):
        T, n = 12, 5
        centers = np.random.default_rng(8).normal(0.4, 0.6, (T, n))
        stream, optima = tracking_stream(centers, domain, a, eta)
        steps = stream.steps()
        assert len({id(step.prox_handle) for step in steps}) == 1
        assert steps[0].prox_handle.kind == ("l1" if eta else "zero")
        assert all(step.smoothness_constant == 2.0 * a
                   and step.regularizer_lipschitz == eta * np.sqrt(n)
                   for step in steps)
        # batch values are each step's total_value, bit for bit
        xs = np.random.default_rng(9).normal(scale=2.0, size=(T, n))
        for rows, start in ((xs, 0), (optima, 0), (xs[4:9], 4)):
            np.testing.assert_array_equal(
                stream.total_values(rows, start=start),
                [steps[start + j].total_value(x) for j, x in enumerate(rows)])
        for k in (1, T // 2, T):
            x_star, _ = offline_optimum(steps[k - 1], domain)
            np.testing.assert_allclose(optima[k - 1], x_star, rtol=0.0,
                                       atol=OPTIMUM_TOL_DEFAULT)
        if domain.bounds is not None:
            # a is a power of two here, so the composed prox's threshold
            # (1 / (2a)) eta is eta / (2a) exactly
            lo, hi = domain.bounds
            np.testing.assert_array_equal(optima, np.clip(
                soft_threshold(centers, eta / (2.0 * a)), lo, hi))

    @pytest.mark.parametrize("centers, a, eta", [
        (np.zeros((3, 2)), 0.0, 0.1), (np.zeros((3, 2)), -1.0, 0.1),
        (np.zeros((3, 2)), np.inf, 0.1), (np.zeros((3, 2)), np.nan, 0.1),
        (np.zeros((3, 2)), 1.0, -0.1), (np.zeros((3, 2)), 1.0, np.inf),
        (np.zeros((3, 2)), 1.0, np.nan), (np.zeros(3), 1.0, 0.1),
        (np.zeros((0, 2)), 1.0, 0.1), (np.zeros((3, 0)), 1.0, 0.1),
        (np.zeros((3, 2, 1)), 1.0, 0.1), ([[0.0, np.nan]], 1.0, 0.1),
        ([[np.inf, 0.0]], 1.0, 0.1),
    ])
    def test_refuses_bad_inputs(self, centers, a, eta):
        with pytest.raises(ValueError):
            tracking_stream(centers, whole_space(), a, eta)

    def test_refuses_a_domain_without_exact_composition(self):
        custom = Domain(project=lambda x: x, diameter=2.0)
        with pytest.raises(CompositionError):
            tracking_stream(np.zeros((2, 2)), custom, eta=0.1)


class TestLassoStream:
    """||y_k - X_k a||^2 + eta ||a||_1 from given data, over a domain."""

    @pytest.mark.parametrize("domain, eta", [
        (whole_space(), 0.3), (whole_space(), 0.0),
        (box(-0.4, 0.4, dim=6), 0.5)], ids=["whole", "eta-zero", "box"])
    def test_values_constants_and_optima(self, domain, eta):
        rng = np.random.default_rng(12)
        T, d, n = 10, 3, 6
        X, Y = rng.normal(size=(T, d, n)), rng.normal(size=(T, d))
        stream = lasso_stream(X, Y, eta, domain)
        steps = stream.steps()
        assert (stream.horizon, stream.dim, stream.domain) == (T, n, domain)
        assert len({id(step.prox_handle) for step in steps}) == 1
        assert steps[0].prox_handle.kind == "l1"  # at eta = 0 too
        for step, Xk in zip(steps, X):
            assert step.regularizer_lipschitz == eta * np.sqrt(n)
            np.testing.assert_allclose(step.smoothness_constant,
                                       2.0 * np.linalg.norm(Xk, 2) ** 2,
                                       rtol=1e-12)
        # batch values are each step's total_value, bit for bit
        xs = rng.normal(size=(T, n))
        for rows, start in ((xs, 0), (xs[3:8], 3)):
            np.testing.assert_array_equal(
                stream.total_values(rows, start=start),
                [steps[start + j].total_value(x) for j, x in enumerate(rows)])
        halfwidth = None if domain.bounds is None else 0.4
        optima, _ = lasso_optima_batch(X, Y, eta, halfwidth=halfwidth)
        for k in (1, T):
            _, f_ref = offline_optimum(steps[k - 1], domain)
            np.testing.assert_allclose(stream.total_values(optima)[k - 1],
                                       f_ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("X, Y, eta", [
        (np.zeros((2, 3)), np.zeros((2, 3)), 0.1),
        (np.zeros((0, 3, 2)), np.zeros((0, 3)), 0.1),
        (np.zeros((2, 0, 2)), np.zeros((2, 0)), 0.1),
        (np.zeros((2, 3, 0)), np.zeros((2, 3)), 0.1),
        (np.zeros((2, 3, 2)), np.zeros((2, 2)), 0.1),
        (np.zeros((2, 3, 2)), np.zeros(2), 0.1),
        (np.full((2, 3, 2), np.nan), np.zeros((2, 3)), 0.1),
        (np.zeros((2, 3, 2)), np.full((2, 3), np.inf), 0.1),
        (np.full((2, 3, 2), 1e200), np.zeros((2, 3)), 0.1),
        (np.zeros((2, 3, 2)), np.array([[0, 0, 0], [0, 1e200, 0]]), 0.1),
        (np.zeros((2, 3, 2)), np.zeros((2, 3)), -0.1),
        (np.zeros((2, 3, 2)), np.zeros((2, 3)), np.inf),
        (np.zeros((2, 3, 2)), np.zeros((2, 3)), np.nan),
    ])
    def test_refuses_bad_inputs(self, X, Y, eta):
        with pytest.raises(ValueError):
            lasso_stream(X, Y, eta, whole_space())


class TestSeparationGenerator:
    def test_zero_sparsity_gives_numerical_rank_r(self):
        cfg = SeparationConfig(frame_dim=24, window=10, synth_rank=3,
                               synth_sparsity=0.0, noise_std=0.0, horizon=5,
                               seed=9, background_scale=1.0,
                               foreground_scale=1.0)
        _, truth = generate_separation(cfg)
        for t in range(5):
            sv = np.linalg.svd(truth["M"][t], compute_uv=False)
            assert np.all(sv[3:] <= 1e-8)

    def test_truth_decomposition_reconstructs_observations(self):
        cfg = SeparationConfig(frame_dim=24, window=10, noise_std=0.0,
                               horizon=4, seed=10, background_scale=1.0,
                               foreground_scale=1.0)
        _, truth = generate_separation(cfg)
        np.testing.assert_allclose(
            truth["M"], truth["background"] + truth["foreground"], atol=1e-12)

    def test_background_spectrum_matches_configuration(self):
        cfg = SeparationConfig(frame_dim=24, window=10, synth_rank=2,
                               synth_sparsity=0.0, noise_std=0.0, horizon=6,
                               seed=11, background_scale=1.0,
                               foreground_scale=1.0)
        _, truth = generate_separation(cfg)
        want = background_spectrum(cfg)
        for t in range(6):
            sv = np.linalg.svd(truth["background"][t], compute_uv=False)
            np.testing.assert_allclose(sv[:2], want, atol=1e-10)
            assert np.all(sv[2:] <= 1e-10)

    def test_generator_is_seed_deterministic(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=5, seed=12)
        _, t1 = generate_separation(cfg)
        _, t2 = generate_separation(cfg)
        np.testing.assert_array_equal(t1["M"], t2["M"])

    def test_config_guards(self):
        # the drift rotates a plane on each side, so a side needs 2
        for sizes in (dict(synth_rank=8, window=8, frame_dim=8),
                      dict(synth_rank=-1), dict(synth_rank=0, window=1),
                      dict(synth_rank=0, frame_dim=1)):
            with pytest.raises(ValueError):
                SeparationConfig(**sizes)
        with pytest.raises(ValueError):
            SeparationConfig(synth_sparsity=1.0)
        with pytest.raises(ValueError):
            SeparationConfig(alpha_L=0.2, alpha_S=0.1)

    def test_horizon_is_not_capped(self):
        assert SeparationConfig(horizon=501).horizon == 501

    def test_joint_smoothness_constant_validates(self):
        """The coupled curvature bound survives sampled descent checks."""
        cfg = SeparationConfig(frame_dim=12, window=6, horizon=2, seed=13,
                               background_scale=1.0, foreground_scale=1.0,
                               noise_std=0.01)
        stream, _ = generate_separation(cfg)
        report = validate_constants(stream.step_at(1), samples=200, seed=0)
        assert report.descent_margin <= 1e-9
        assert report.smooth_convexity_margin <= 1e-9
        # the understated single-block constant fails the same check
        loose = separation_smoothness(cfg)
        assert loose > 2.0 * (1.0 + max(cfg.mu_L, cfg.mu_S))


def _descent_margin(step, x, y, L):
    """g(y) - g(x) - <grad g(x), y - x> - L/2 ||y - x||^2."""
    d = y - x
    return (step.smooth_value(y) - step.smooth_value(x)
            - float(np.dot(step.smooth_gradient(x), d))
            - 0.5 * L * float(np.dot(d, d)))


#: a constant counts as attained when this much less of it fails
_SHORTFALL = 1e-6


def _curvature_attained(step, x, direction):
    """Along ``direction`` the descent lemma holds at the step's L, up to
    rounding, and fails at (1 - _SHORTFALL) L."""
    L, y = step.smoothness_constant, x + direction
    scale = L * float(np.dot(direction, direction))
    return (_descent_margin(step, x, y, L) <= 1e-12 * scale
            and _descent_margin(step, x, y, (1.0 - _SHORTFALL) * L) > 0.0)


def _lipschitz_attained(step, x, y):
    """Between x and y, h changes by B times their distance, up to
    rounding, and by more than (1 - _SHORTFALL) B times it."""
    gain = abs(step.nonsmooth_value(y) - step.nonsmooth_value(x))
    bound = step.regularizer_lipschitz * float(np.linalg.norm(y - x))
    return (1.0 - _SHORTFALL) * bound < gain <= (1.0 + 1e-12) * bound


def _with_constants(step, L, B):
    return dataclasses.replace(step, smoothness_constant=float(L),
                               regularizer_lipschitz=float(B))


class TestExactConstants:
    """The closed forms ``verify`` checks against pass the sampled check
    and are attained along an extremal direction, so a closed form that
    is too small or too large fails."""

    @pytest.mark.parametrize("domain", [None, box(-0.5, 0.5, dim=30)],
                             ids=["whole_space", "box"])
    def test_gauss_markov_constants(self, domain):
        cfg = GaussMarkovConfig(horizon=12, seed=4)
        stream, truth = generate_gauss_markov(cfg, domain)
        L, B = gauss_markov_constants(cfg, truth)
        assert L.shape == B.shape == (cfg.horizon,)
        x = np.random.default_rng(0).normal(size=cfg.n_coeffs)
        for k in (1, 6, 12):
            step = _with_constants(stream.step_at(k), L[k - 1], B[k - 1])
            assert validate_constants(step, samples=300, seed=k).passed(
                tol=1e-9)
            top = np.linalg.svd(truth["X"][k - 1])[2][0]  # right, largest
            assert _curvature_attained(step, x, 3.0 * top)
            # eta ||a||_1 grows by eta n along the all-ones direction
            assert _lipschitz_attained(step, 0.0 * x, np.ones(cfg.n_coeffs))

    # at the default lambda_L, lambda_S sqrt(m) moves B by about 1e-12
    @pytest.mark.parametrize("lambda_L", [1e5, 0.1])
    def test_separation_constants(self, lambda_L):
        cfg = SeparationConfig(frame_dim=12, window=6, horizon=3, seed=13,
                               background_scale=1.0, foreground_scale=1.0,
                               noise_std=0.01, lambda_L=lambda_L)
        stream, _ = generate_separation(cfg)
        L, B = separation_constants(cfg)
        assert L.shape == B.shape == (cfg.horizon,)
        rows, cols = cfg.window, cfg.frame_dim
        # the Hessian acts entrywise on (L, S) by one 2 x 2 matrix
        u = np.linalg.eigh([[2.0 + 2.0 * cfg.mu_L, 2.0],
                            [2.0, 2.0 + 2.0 * cfg.mu_S]])[1][:, -1]
        for k in (1, 3):
            step = _with_constants(stream.step_at(k), L[k - 1], B[k - 1])
            assert validate_constants(step, samples=200, seed=k).passed(
                tol=1e-9)
            E = np.random.default_rng(k).normal(size=rows * cols)
            x = np.zeros(step.dim)
            assert _curvature_attained(step, x, np.concatenate((u[0] * E,
                                                                 u[1] * E)))
            # B is attained at (lambda_L P, lambda_S 1) with P a partial
            # identity, whose min(rows, cols) singular values are all one
            y = np.concatenate((cfg.lambda_L * np.eye(rows, cols).ravel(),
                                np.full(rows * cols, cfg.lambda_S)))
            assert _lipschitz_attained(step, x, y)


class TestSeparationOptima:
    @pytest.mark.parametrize("mu_L", [0.005, 0.0])
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_agrees_with_the_generic_oracle(self, seed, mu_L):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=12, seed=seed,
                               mu_L=mu_L)
        stream, truth = generate_separation(cfg)
        tol = 1e-6
        f_ref = stream.total_values(stream_optima(stream, tol=tol))
        optima, residuals = separation_optima(stream, truth["M"], cfg,
                                              tol=tol)
        f_star = stream.total_values(optima)
        assert np.all(residuals <= tol)
        np.testing.assert_allclose(f_star, f_ref, rtol=1e-12)
        for k in (1, 12):  # f_star is F at the returned point
            step = stream.step_at(k)
            assert f_star[k - 1] == step.total_value(optima[k - 1])

    def test_out_of_budget_raises(self, monkeypatch):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=3, seed=3)
        stream, truth = generate_separation(cfg)
        monkeypatch.setattr(experiments, "SEPARATION_MAX_SWEEPS", 2)
        with pytest.raises(OptimumError) as err:
            separation_optima(stream, truth["M"], cfg, tol=1e-12)
        assert err.value.residual > 1e-12
        assert err.value.iterations == 2

    def test_nonfinite_data_stops_at_the_first_check(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=3, seed=3)
        stream, truth = generate_separation(cfg)
        M = truth["M"].copy()
        M[1, 0, 0] = np.nan
        with pytest.raises(OptimumError) as err:
            separation_optima(stream, M, cfg)
        assert err.value.iterations == 1
        assert not np.isfinite(err.value.residual)

    def test_cold_step_costs_few_svts(self, monkeypatch):
        """A cold 16x8 step at tol 1e-6: 30 SVTs; the generic oracle 78.

        The sweeps threshold through ``_gram_svt`` and the acceptance
        check through ``singular_value_threshold``; both are counted.
        """
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=1, seed=1)
        stream, truth = generate_separation(cfg)
        calls = []
        for module, name in ((prox, "singular_value_threshold"),
                             (experiments, "_gram_svt")):
            monkeypatch.setattr(module, name,
                                _counting(getattr(module, name), calls))
        offline_optimum(stream.step_at(1), stream.domain, tol=1e-6)
        generic = len(calls)
        calls.clear()
        separation_optima(stream, truth["M"], cfg, tol=1e-6)
        assert len(calls) <= 30 < generic

    @pytest.mark.parametrize("seed", [7, 8])
    def test_one_exact_check_per_step(self, seed, monkeypatch):
        """At the 64x16, T=10 benchmark config each step's first check
        passes: one exact SVT per step, every sweep through the Gram route."""
        cfg = SeparationConfig(frame_dim=64, window=16, horizon=10,
                               seed=seed)
        stream, truth = generate_separation(cfg)
        exact, gram = [], []
        monkeypatch.setattr(prox, "singular_value_threshold",
                            _counting(prox.singular_value_threshold, exact))
        monkeypatch.setattr(experiments, "_gram_svt",
                            _counting(experiments._gram_svt, gram))
        _, residuals = separation_optima(stream, truth["M"], cfg, tol=1e-6)
        assert np.all(residuals <= 1e-6)
        assert len(exact) == cfg.horizon
        assert len(gram) >= cfg.horizon

    def test_a_rejected_candidate_is_finished_by_prox_gradient(
            self, monkeypatch):
        """Gram candidates pushed off the optimum never pass the exact
        test; each step is then finished by the shared prox-gradient
        kernel from its candidate and meets it."""
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=3, seed=3)
        stream, truth = generate_separation(cfg)
        f_ref = stream.total_values(
            separation_optima(stream, truth["M"], cfg)[0])
        real = experiments._gram_svt
        monkeypatch.setattr(experiments, "_gram_svt",
                            lambda Z, tau: real(Z, tau) + 1.0)
        finished = []
        monkeypatch.setattr(experiments, "prox_gradient",
                            _counting(experiments.prox_gradient, finished))
        optima, residuals = separation_optima(stream, truth["M"], cfg)
        f_star = stream.total_values(optima)
        assert np.all(residuals <= experiments.SEPARATION_OPTIMUM_TOL)
        np.testing.assert_allclose(f_star, f_ref, rtol=1e-12)
        assert len(finished) == cfg.horizon

    def test_near_floor_tolerance_is_met(self):
        """At tol 3e-9, inside the rounding floor of the 64x16 check,
        the kernel finishes steps whose Gram candidates stall above it."""
        cfg = SeparationConfig(horizon=5, seed=2304, lambda_L=1e5)
        stream, truth = generate_separation(cfg)
        f_ref = stream.total_values(
            separation_optima(stream, truth["M"], cfg, tol=1e-8)[0])
        optima, residuals = separation_optima(stream, truth["M"], cfg,
                                              tol=3e-9)
        f_star = stream.total_values(optima)
        assert np.all(residuals <= 3e-9)
        np.testing.assert_allclose(f_star, f_ref, rtol=1e-12)
        assert f_star[-1] == stream.step_at(5).total_value(optima[-1])


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return counted


def _svt_test_matrices():
    rng = np.random.default_rng(11)
    low = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 20))
    return {"wide": rng.normal(size=(6, 40)),
            "tall": rng.normal(size=(40, 6)) * 1e5,
            "square": rng.normal(size=(9, 9)),
            "rank_deficient": low,
            "rank_deficient_tall": low.T * 1e4,
            "zero": np.zeros((5, 7))}


class TestGramSvt:
    @pytest.mark.parametrize("name", sorted(_svt_test_matrices()))
    @pytest.mark.parametrize("where", ["zero", "mid", "above"])
    def test_agrees_with_the_exact_svt(self, name, where):
        Z = _svt_test_matrices()[name]
        sv = np.linalg.svd(Z, compute_uv=False)
        tau = {"zero": 0.0, "mid": 0.5 * (sv[0] + sv[-1]),
               "above": 1.5 * sv[0] + 1.0}[where]
        out = experiments._gram_svt(Z, tau)
        assert out.shape == Z.shape
        assert (np.linalg.norm(out - prox.singular_value_threshold(Z, tau))
                <= 1e-12 * np.linalg.norm(Z))


class TestUpdateSchemes:
    def test_regression_stream_matches_two_line_update(self):
        """Gradient step then shrink-plus-offset, coded directly."""
        from ompd import ErrorModel, SolverConfig, euclidean_generator, run

        cfg = GaussMarkovConfig(horizon=30, seed=21)
        stream, truth = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size,
                              generator=euclidean_generator(),
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=22)
        trace = run(stream, config, model)
        a = np.zeros(cfg.n_coeffs)
        lam, eta = cfg.step_size, cfg.eta
        for k in range(1, 31):
            X, y = truth["X"][k - 1], truth["Y"][k - 1]
            e = model.gradient_error(k, cfg.n_coeffs)
            half = a - lam * (2.0 * (X.T @ (X @ a - y)) + e)
            a = np.sign(half) * np.maximum(np.abs(half) - lam * eta, 0.0)
            offset, _ = model.prox_error(k, cfg.n_coeffs)
            a = a + offset
            assert np.linalg.norm(trace.iterates[k - 1] - a) <= 1e-12

    def test_separation_stream_matches_four_line_update(self):
        """Paired Z/L and Y/S updates, coded directly with a raw SVD."""
        from ompd import SolverConfig, euclidean_generator, run, zero_error_model

        cfg = SeparationConfig(frame_dim=12, window=6, horizon=12, seed=23,
                               lambda_L=0.5, lambda_S=0.05,
                               background_scale=10.0, foreground_scale=5.0,
                               noise_std=0.1)
        stream, truth = generate_separation(cfg)
        config = SolverConfig(step_size=cfg.alpha_L,
                              generator=euclidean_generator(),
                              initial_point=np.zeros(stream.dim))
        trace = run(stream, config, zero_error_model())
        rows, cols = cfg.window, cfg.frame_dim
        L = np.zeros((rows, cols))
        S = np.zeros((rows, cols))
        aL, aS = cfg.alpha_L, cfg.alpha_S
        for k in range(1, 13):
            M = truth["M"][k - 1]
            Z = L - aL * (2.0 * (L + S - M) + 2.0 * cfg.mu_L * L)
            U, sv, Vt = np.linalg.svd(Z, full_matrices=False)
            L_next = (U * np.maximum(sv - aL * cfg.lambda_L, 0.0)) @ Vt
            Y = S - aS * (2.0 * (L + S - M) + 2.0 * cfg.mu_S * S)
            S_next = np.sign(Y) * np.maximum(np.abs(Y) - aS * cfg.lambda_S,
                                             0.0)
            L, S = L_next, S_next
            got_L, got_S = separation_blocks(trace.iterates[k - 1], cfg)
            assert np.linalg.norm(got_L - L) <= 1e-12
            assert np.linalg.norm(got_S - S) <= 1e-12


class TestRunExample2:
    def test_static_data_reaches_a_fixed_point(self):
        """No noise, no rotation: the composite residual dies out."""
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=150, seed=14,
                               rotation=0.0, noise_std=0.0,
                               background_scale=1e5, foreground_scale=3e4)
        stream, _ = generate_separation(cfg)
        results = run_example2(cfg, optimum_tol=1e-7)
        trace = results["exact"].trace
        step = stream.step_at(cfg.horizon)
        resid = prox._prox_gradient_point(
            step.smooth_gradient, step.prox_handle, stream.domain,
            trace.iterates[-1], cfg.alpha_L)[1]
        assert resid <= 1e-6

    def test_objective_nonincreasing_on_static_data(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=60, seed=15,
                               rotation=0.0, noise_std=0.0)
        results = run_example2(cfg, optimum_tol=1e-6)
        f = results["exact"].trace.f_played
        assert np.all(np.diff(f) <= 1e-6 * np.maximum(1.0, np.abs(f[:-1])))

    def test_small_run_recovers_foreground_support(self):
        cfg = SeparationConfig(frame_dim=32, window=12, horizon=80, seed=16)
        results = run_example2(cfg, optimum_tol=1e-5)
        truth = generate_separation(cfg)[1]
        f1 = separation_f1(results["exact"].trace, truth, cfg)
        assert f1 >= 0.8

    def test_certified_bound_holds(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=40, seed=17)
        results = run_example2(cfg, optimum_tol=1e-6)
        assert results["exact"].margin >= 0.0

    def test_snapshots_written(self, tmp_path, monkeypatch):
        cfg = SeparationConfig(frame_dim=12, window=6, horizon=20, seed=18)
        monkeypatch.setattr(experiments, "_SNAPSHOT_EVERY", 10)
        trace = run_example2(cfg, out_dir=str(tmp_path),
                             optimum_tol=1e-5)["exact"].trace
        snaps = tmp_path / "exact" / "snapshots"
        assert sorted(p.name for p in snaps.iterdir()) == [
            "L_0010.csv", "L_0020.csv", "S_0010.csv", "S_0020.csv"]
        for k in (10, 20):
            blocks = separation_blocks(trace.iterates[k - 1], cfg)
            for name, block in zip("LS", blocks):
                header, grid = read_table(snaps / f"{name}_{k:04d}.csv")
                assert header == [f"pixel_{j}" for j in range(12)]
                assert grid.tobytes() == block.tobytes()  # -0.0 too

    def test_blocks_roundtrip(self):
        cfg = SeparationConfig(frame_dim=8, window=4, horizon=2, seed=19)
        flat = np.arange(2 * 4 * 8, dtype=float)
        L, S = separation_blocks(flat, cfg)
        np.testing.assert_array_equal(np.concatenate([L.ravel(), S.ravel()]),
                                      flat)


def _tree_bytes(root):
    """Relative path -> contents of every file below ``root``."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _example1_runner(halfwidth=None):
    cfg = GaussMarkovConfig(horizon=60, seed=30)
    domain = (None if halfwidth is None
              else box(-halfwidth, halfwidth, dim=cfg.n_coeffs))

    def play(variants, out):
        results = run_example1(cfg, out_dir=str(out), variants=variants,
                               domain=domain)
        if halfwidth is not None:  # the box binds
            optima = next(iter(results.values())).trace.optima
            assert np.any(np.isclose(np.abs(optima), halfwidth, rtol=1e-12,
                                     atol=0.0))

    return play


def _example2_runner():
    cfg = SeparationConfig(frame_dim=8, window=4, horizon=6, seed=32,
                           error_std=0.5)
    return lambda variants, out: run_example2(
        cfg, out_dir=str(out), variants=variants, optimum_tol=1e-6)


@pytest.mark.parametrize("runner", [
    _example1_runner(),
    _example1_runner(halfwidth=5.0 / (2.0 * np.sqrt(30))),
    _example2_runner(),
], ids=["example1-whole", "example1-binding-box", "example2-noisy"])
def test_variants_written_together_match_variants_written_alone(
        runner, tmp_path, monkeypatch):
    """Shared cells are formatted once for both variants; every file must
    still hold the bytes of a run of its variant alone."""
    monkeypatch.setattr(experiments, "_SNAPSHOT_EVERY", 3)  # example2: 3, 6
    runner(("exact", "inexact"), tmp_path / "both")
    for variant in ("exact", "inexact"):
        runner((variant,), tmp_path / variant)
        alone = _tree_bytes(tmp_path / variant / variant)
        assert alone  # tables, and coefficients or snapshots
        assert _tree_bytes(tmp_path / "both" / variant) == alone


class TestRunDirectory:
    """``play`` owns what it writes into ``out_dir``: an earlier run's
    variant folders and partial trace go before the new run is played."""

    def test_rerun_leaves_no_snapshot_past_its_horizon(self, tmp_path):
        cfg = SeparationConfig(frame_dim=8, window=4, horizon=100, seed=1)
        run_example2(cfg, out_dir=str(tmp_path))
        snaps = tmp_path / "exact" / "snapshots"
        assert (snaps / "L_0100.csv").exists()
        (tmp_path / "partial_trace.csv").write_text("k,f_x\n1,0\n")
        (tmp_path / "notes.txt").write_text("mine\n")
        run_example2(dataclasses.replace(cfg, horizon=60),
                     out_dir=str(tmp_path))
        assert sorted(p.name for p in snaps.iterdir()) == ["L_0050.csv",
                                                           "S_0050.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exact",
                                                              "notes.txt"]

    def test_rerun_leaves_no_dropped_variant(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=20, seed=5)
        run_example1(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "inexact").is_dir()
        run_example1(cfg, out_dir=str(tmp_path), variants=("exact",))
        assert [p.name for p in tmp_path.iterdir()] == ["exact"]

    def test_unknown_variant_refused_before_clearing(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=20, seed=5)
        run_example1(cfg, out_dir=str(tmp_path), variants=("exact",))
        with pytest.raises(ValueError, match="variant"):
            run_example1(cfg, out_dir=str(tmp_path),
                         variants=("exact", "noisy"))
        assert (tmp_path / "exact" / "bound_state.csv").exists()
