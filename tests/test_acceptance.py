"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time

import numpy as np

from ompd import (ErrorModel, GaussMarkovConfig, SeparationConfig,
                  SolverConfig, box, check_pythagorean, check_three_point,
                  divergence, divergence_gradient, euclidean_generator,
                  negative_entropy_generator, recursion_bound, run,
                  run_example1, run_example2, run_proximal_gradient,
                  separation_f1, singular_value_threshold, soft_threshold)
from ompd.bregman import FD_STEP
from ompd.experiments import generate_gauss_markov, generate_separation


def _verdict(num, label, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} ({detail}) [{elapsed:.1f} s]")


def test_criterion_1_certified_regret_bound():
    """R_{T'} <= RHS_{T'} pathwise on 50 streams, both variants and regimes."""
    t0 = time.perf_counter()
    T = 300
    n = 30
    halfwidth = 10.0 / np.sqrt(n)
    margins = []
    clipped_steps = 0
    for seed in range(1, 51):
        cfg = GaussMarkovConfig(horizon=T, seed=seed)
        for domain in (None, box(-halfwidth, halfwidth, dim=n)):
            results = run_example1(cfg, variants=("exact", "inexact"),
                                   domain=domain)
            margins += [res.margin for res in results.values()]
            if domain is not None:
                opt = results["exact"].trace.optima
                clipped_steps += int(np.sum(
                    np.max(np.abs(opt), axis=1) >= halfwidth - 1e-12))
    elapsed = time.perf_counter() - t0
    ok = all(margin >= 0.0 for margin in margins)
    _verdict(1, "certified regret bound", ok,
             f"{len(margins)} runs, worst margin {min(margins):.3g}, "
             f"{clipped_steps} box-active optimum steps, target <60 s",
             elapsed)
    assert ok


def test_criterion_2_example1_tracking():
    """Zero-error tracking error within 3x the per-step lasso optimum's."""
    t0 = time.perf_counter()
    cfg = GaussMarkovConfig(horizon=1000, seed=1, error_std=0.0)
    results = run_example1(cfg, variants=("exact",))
    trace = results["exact"].trace
    _, truth = generate_gauss_markov(cfg)
    active = [i - 1 for i in cfg.active_set]
    window = slice(149, 1000)
    pred_err = np.mean(np.abs(trace.iterates[window][:, active]
                              - truth["a_true"][window][:, active]))
    oracle_err = np.mean(np.abs(trace.optima[window][:, active]
                                - truth["a_true"][window][:, active]))
    ratio = pred_err / oracle_err
    elapsed = time.perf_counter() - t0
    ok = ratio <= 3.0
    _verdict(2, "sparse coefficient tracking", ok,
             f"mean abs error {pred_err:.4f} vs oracle {oracle_err:.4f}, "
             f"ratio {ratio:.2f} <= 3, target <30 s", elapsed)
    assert ok


def test_criterion_3_noise_robustness():
    """Average regret under noise within a factor 3 of the clean run."""
    t0 = time.perf_counter()
    ratios = []
    for seed in range(1, 11):
        cfg = GaussMarkovConfig(horizon=1000, seed=seed)
        results = run_example1(cfg)
        clean = results["exact"].regret[-1] / 1000.0
        noisy = results["inexact"].regret[-1] / 1000.0
        ratios.append(noisy / clean)
    median = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = median <= 3.0
    _verdict(3, "noise robustness", ok,
             f"median R_T/T ratio {median:.3f} <= 3 over 10 seeds", elapsed)
    assert ok


def test_criterion_4_euclidean_reduction():
    """Mirror path with Euclidean geometry equals the coded baseline."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 21):
        cfg = GaussMarkovConfig(horizon=60, seed=100 + seed)
        stream, _ = generate_gauss_markov(cfg)
        config = SolverConfig(step_size=cfg.step_size,
                              generator=euclidean_generator(),
                              initial_point=np.zeros(cfg.n_coeffs))
        model = ErrorModel(gradient_std=0.05, prox_std=0.05, seed=200 + seed)
        mirror = run(stream, config, model)
        baseline = run_proximal_gradient(stream, config, model)
        gap = np.linalg.norm(mirror.iterates - baseline.iterates, axis=1)
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _verdict(4, "Euclidean reduction", ok,
             f"20 streams, max per-iterate gap {worst:.2e} <= 1e-12", elapsed)
    assert ok


def _grid_prox_oracle(y, lam, rounds=10, points=65):
    """Coordinatewise grid-refinement argmin of lam|u| + (u-y)^2/2.

    Values are compared as differences against the bracket center in
    factored form, (u-c)(u+c-2y)/2, so the argmin stays resolvable well
    below the sqrt(eps) floor of naive objective evaluation.
    """
    lo = np.minimum(0.0, y) - 1.0
    hi = np.maximum(0.0, y) + 1.0
    centers = 0.5 * (lo + hi)
    for _ in range(rounds):
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0, 1, points)
        c = centers[:, None]
        rel = (lam * (np.abs(grid) - np.abs(c))
               + 0.5 * (grid - c) * (grid + c - 2.0 * y[:, None]))
        j = np.argmin(rel, axis=1)
        centers = np.take_along_axis(grid, j[:, None], axis=1)[:, 0]
        h = (hi - lo) / (points - 1)
        lo, hi = centers - 2 * h, centers + 2 * h
    return centers


def test_criterion_5_prox_oracle_equivalence():
    """Shrinkage operators against brute-force minimization, 1000 each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_l1 = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 21))
        y = rng.normal(scale=2.0, size=dim)
        lam = float(rng.uniform(0.01, 1.5))
        got = soft_threshold(y, lam)
        want = _grid_prox_oracle(y, lam)
        worst_l1 = max(worst_l1, float(np.max(np.abs(got - want))))
    worst_nuc = 0.0
    for _ in range(1000):
        r, c = rng.integers(1, 7), rng.integers(1, 7)
        Z = rng.normal(scale=2.0, size=(int(r), int(c)))
        lam = float(rng.uniform(0.01, 2.0))
        out = singular_value_threshold(Z, lam)
        s_in = np.linalg.svd(Z, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        gap = float(np.max(np.abs(s_out - np.maximum(s_in - lam, 0.0))))
        worst_nuc = max(worst_nuc, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_l1 <= 1e-8 and worst_nuc <= 1e-8
    _verdict(5, "prox oracle equivalence", ok,
             f"l1 gap {worst_l1:.2e}, spectrum gap {worst_nuc:.2e}, "
             "both <= 1e-8", elapsed)
    assert ok


def test_criterion_6_identity_suite():
    """Divergence identities and gradients at their stated tolerances."""
    t0 = time.perf_counter()
    gens = (euclidean_generator(), negative_entropy_generator(lo=0.1, hi=1.0))
    rng = np.random.default_rng(99)
    worst_identity = 0.0
    for gen in gens:
        pts = rng.uniform(0.1, 1.0, size=(3000, 6))
        for i in range(0, 3000, 3):
            x, y, z = pts[i], pts[i + 1], pts[i + 2]
            worst_identity = max(worst_identity,
                                 check_three_point(gen, x, y, z),
                                 check_pythagorean(gen, x, y, z))
    worst_fd = 0.0
    h = FD_STEP
    for gen in gens:
        for _ in range(50):
            x, y = rng.uniform(0.1, 1.0, size=(2, 5))
            grad = divergence_gradient(gen, x, y)
            fd = np.zeros_like(x)
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = h
                fd[j] = (divergence(gen, x + e, y)
                         - divergence(gen, x - e, y)) / (2.0 * h)
            scale = max(1.0, float(np.linalg.norm(grad)))
            worst_fd = max(worst_fd, float(np.linalg.norm(grad - fd)) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-10 and worst_fd <= 1e-5
    _verdict(6, "divergence identity suite", ok,
             f"identity residual {worst_identity:.2e} <= 1e-10, "
             f"gradient vs differences {worst_fd:.2e} <= 1e-5", elapsed)
    assert ok


def test_criterion_7_recursion_bound_dominance():
    """Forward-simulated recursions never exceed the closed-form bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    violations = 0
    for _ in range(1000):
        T = int(rng.integers(1, 15))
        u0 = float(rng.uniform(0.0, 2.0))
        S = np.empty(T + 1)
        S[0] = u0 ** 2 + rng.uniform(0.0, 1.0)
        S[1:] = S[0] + np.cumsum(rng.uniform(0.0, 2.0, size=T))
        tau = np.zeros(T + 1)
        tau[1:] = rng.uniform(0.0, 2.0, size=T)
        u = [u0]
        for i in range(1, T + 1):
            cap = S[i] + sum(tau[k] * u[k] for k in range(1, i))
            hi = 0.5 * tau[i] + np.sqrt(cap + 0.25 * tau[i] ** 2)
            u.append(float(rng.uniform(0.0, hi)))
        for i in range(1, T + 1):
            if u[i] > recursion_bound(S, tau, i) + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _verdict(7, "recursion bound dominance", ok,
             f"1000 simulated recursions, {violations} violations", elapsed)
    assert ok


def test_criterion_8_example2_decay_and_support():
    """Average regret decays 2x from T=20 to T=200; support F1 >= 0.8."""
    t0 = time.perf_counter()
    cfg = SeparationConfig(frame_dim=64, window=16, synth_rank=2,
                           synth_sparsity=0.05, horizon=200, seed=1)
    results = run_example2(cfg, optimum_tol=1e-5)
    truth = generate_separation(cfg)[1]
    res = results["exact"]
    avg_20 = res.regret[19] / 20.0
    avg_200 = res.regret[199] / 200.0
    f1 = separation_f1(res.trace, truth, cfg)
    margin = res.margin
    elapsed = time.perf_counter() - t0
    ok = (avg_200 <= 0.5 * avg_20) and f1 >= 0.8 and margin >= 0.0
    _verdict(8, "separation decay and support", ok,
             f"R/T {avg_20:.3g} -> {avg_200:.3g} "
             f"(ratio {avg_200 / avg_20:.3f} <= 0.5), F1 {f1:.3f} >= 0.8, "
             f"bound margin {margin:.3g} >= 0, target <120 s", elapsed)
    assert ok
