"""Generators and drivers for both experiment families."""

import numpy as np
import pytest

from ompd import (GaussMarkovConfig, SeparationConfig, background_spectrum,
                  coefficient_paths, generate_gauss_markov,
                  generate_separation, run_example1, run_example2,
                  separation_blocks, separation_f1, separation_smoothness,
                  validate_constants)
from ompd.experiments import gradient_mapping_norm


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
        with pytest.raises(ValueError):
            GaussMarkovConfig(active_set=(0, 2))


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
            Ts = np.arange(1, res.trace.horizon + 1)
            assert np.all(res.regret <= res.rhs + 1e-6 * Ts)

    def test_output_files_written(self, tmp_path):
        cfg = GaussMarkovConfig(horizon=15, seed=8)
        run_example1(cfg, out_dir=str(tmp_path))
        for variant in ("exact", "inexact"):
            for name in ("trace.csv", "bound.csv", "bound_state.csv",
                         "coefficients.csv"):
                assert (tmp_path / variant / name).exists()
        header = (tmp_path / "exact" / "coefficients.csv").read_text()
        assert header.splitlines()[0] == "t,i,a_true,a_pred"


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
        with pytest.raises(ValueError):
            SeparationConfig(synth_rank=8, window=8, frame_dim=8)
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
        results, _ = run_example2(cfg, optimum_tol=1e-7)
        trace = results["exact"].trace
        resid = gradient_mapping_norm(stream.step_at(cfg.horizon),
                                      stream.domain, trace.iterates[-1],
                                      cfg.alpha_L)
        assert resid <= 1e-6

    def test_objective_nonincreasing_on_static_data(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=60, seed=15,
                               rotation=0.0, noise_std=0.0)
        results, _ = run_example2(cfg, optimum_tol=1e-6)
        f = results["exact"].trace.f_played
        assert np.all(np.diff(f) <= 1e-6 * np.maximum(1.0, np.abs(f[:-1])))

    def test_small_run_recovers_foreground_support(self):
        cfg = SeparationConfig(frame_dim=32, window=12, horizon=80, seed=16)
        results, truth = run_example2(cfg, optimum_tol=1e-5)
        f1 = separation_f1(results["exact"].trace, truth, cfg)
        assert f1 >= 0.8

    def test_certified_bound_holds(self):
        cfg = SeparationConfig(frame_dim=16, window=8, horizon=40, seed=17)
        results, _ = run_example2(cfg, optimum_tol=1e-6)
        res = results["exact"]
        Ts = np.arange(1, res.trace.horizon + 1)
        assert np.all(res.regret <= res.rhs + 1e-6 * Ts)

    def test_snapshots_written(self, tmp_path):
        cfg = SeparationConfig(frame_dim=12, window=6, horizon=20, seed=18)
        run_example2(cfg, out_dir=str(tmp_path), optimum_tol=1e-5,
                     snapshot_every=10)
        snaps = sorted((tmp_path / "exact" / "snapshots").iterdir())
        assert [p.name for p in snaps] == ["L_0010.csv", "L_0020.csv",
                                           "S_0010.csv", "S_0020.csv"]
        grid = np.loadtxt(snaps[0], delimiter=",")
        assert grid.shape == (6, 12)

    def test_blocks_roundtrip(self):
        cfg = SeparationConfig(frame_dim=8, window=4, horizon=2, seed=19)
        flat = np.arange(2 * 4 * 8, dtype=float)
        L, S = separation_blocks(flat, cfg)
        np.testing.assert_array_equal(np.concatenate([L.ravel(), S.ravel()]),
                                      flat)
