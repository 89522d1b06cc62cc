"""Desk-scale generators and drivers for the two built-in experiments.

Experiment 1 tracks a sparse autoregressive coefficient vector through a
stream of tiny least-squares plus l1 problems. Experiment 2 separates
synthetic low-rank backgrounds from sparse foregrounds with paired
nuclear-norm and l1 prox updates on one block variable.

All randomness flows from the config seed through a single generator in a
fixed draw order, so streams are bit-reproducible. Error draws use a
separate seed (derived by XOR with ``ERROR_SEED_XOR`` unless given).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bregman import euclidean_generator
from .errors import OptimumError
from .losses import (CompositeLossStep, Domain, ErrorModel, ProblemStream,
                     whole_space, zero_error_model)
from .prox import RESIDUAL_CHECK_EVERY, block_rule, l1_rule, nuclear_rule
from .prox import gradient_mapping_norm  # noqa: F401  (re-exported)
from .regret import (OPTIMUM_TOL_DEFAULT, dynamic_regret, fill_optima,
                     ledger_from_trace, stream_optima, theorem_rhs,
                     write_bound_csv)
from .runio import write_state_csv
from .solver import RunTrace, SolverConfig, run, write_trace_csv

#: default derivation of the error-model seed from the stream seed
ERROR_SEED_XOR = 0x4E4F4953  # "NOIS"

#: example2's optimum tolerance; 1e-9 may be out of reach at its 1e5 scale
SEPARATION_OPTIMUM_TOL = 1e-6


@dataclass(frozen=True)
class GaussMarkovConfig:
    """Sparse time-varying regression stream (autoregressive truth)."""

    n_coeffs: int = 30
    input_dim: int = 2
    alpha: float = 0.999
    active_set: tuple = (1, 2)  # 1-based coefficient indices
    obs_noise_std: float = 0.1
    eta: float = 0.05
    step_size: float = 0.01
    error_std: float = 0.05
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if any(not 1 <= i <= self.n_coeffs for i in self.active_set):
            raise ValueError("active_set indices must lie in 1..n_coeffs")


def coefficient_paths(cfg: GaussMarkovConfig, horizon: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Ground-truth coefficients, shape (horizon, n_coeffs), times 1..T.

    Active coordinates follow a_t = alpha a_{t-1} + v_t with stationary
    unit variance (v_t has variance 1 - alpha^2); inactive ones stay zero.
    """
    T = cfg.horizon if horizon is None else horizon
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    active = [i - 1 for i in cfg.active_set]
    a0 = rng.normal(size=len(active))
    v = rng.normal(scale=np.sqrt(1.0 - cfg.alpha ** 2), size=(T, len(active)))
    path = np.zeros((T, cfg.n_coeffs))
    prev = a0
    for t in range(T):
        prev = cfg.alpha * prev + v[t]
        path[t, active] = prev
    return path


def generate_gauss_markov(cfg: GaussMarkovConfig,
                          domain: Optional[Domain] = None):
    """Build the regression stream plus its ground truth.

    Each step k carries g_k(a) = ||y_k - X_k a||^2 with the exact
    smoothness constant 2 * lambda_max(X_k^T X_k), and h(a) = eta ||a||_1
    with Lipschitz constant eta * sqrt(n). Returns (stream, truth) where
    truth holds the coefficient paths and the raw (X, y) arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    T, n, d = cfg.horizon, cfg.n_coeffs, cfg.input_dim
    a_true = coefficient_paths(cfg, rng=rng)
    X = rng.normal(size=(T, d, n))
    w = rng.normal(scale=cfg.obs_noise_std, size=(T, d))
    Y = np.einsum("tdn,tn->td", X, a_true) + w
    # lambda_max(X^T X) = lambda_max(X X^T), a d x d problem
    gram = np.einsum("tdn,ten->tde", X, X)
    L = 2.0 * np.linalg.eigvalsh(gram)[:, -1]
    B = cfg.eta * np.sqrt(n)
    prox = l1_rule(cfg.eta)
    dom = whole_space() if domain is None else domain

    def step_at(k: int) -> CompositeLossStep:
        Xk, yk = X[k - 1], Y[k - 1]

        def g(a):
            r = Xk @ a - yk
            return float(np.dot(r, r))

        def grad(a):
            return 2.0 * (Xk.T @ (Xk @ a - yk))

        def h(a):
            return cfg.eta * float(np.sum(np.abs(a)))

        return CompositeLossStep(
            smooth_value=g, smooth_gradient=grad, nonsmooth_value=h,
            smoothness_constant=float(L[k - 1]), regularizer_lipschitz=B,
            prox_handle=prox, dim=n)

    stream = ProblemStream(horizon=T, step_at=step_at, domain=dom, dim=n)
    truth = {"a_true": a_true, "X": X, "Y": Y, "smoothness": L}
    return stream, truth


def _support_candidate(p, g, X, Y, eta, halfwidth):
    """Exact lasso point on the support that grad g(p) names, per problem.

    With a d x n design the lasso has a solution with at most
    k = min(d, n) free nonzeros (Tibshirani 2013), and there each free
    nonzero a_j has grad_j = -eta sign(a_j). The candidate takes the k
    coordinates of largest |g| that p does not pin at a box bound, gives
    them the sign opposite to g, keeps the pinned coordinates at their
    bound and every other one at 0 (long before p itself is that sparse,
    g names the support), and solves
    2 X_S^T X_S a_S = 2 X_S^T (y - X_F a_F) - eta s_S.
    It is only a guess: the caller accepts it by its mapping norm.
    """
    k = min(X.shape[1], X.shape[2])
    score = np.abs(g)
    c = np.zeros_like(p)
    if halfwidth is not None:
        pinned = np.abs(p) >= halfwidth
        score[pinned] = -1.0
        c[pinned] = p[pinned]
    S = np.argpartition(-score, k - 1, axis=1)[:, :k]
    np.put_along_axis(c, S, 0.0, axis=1)
    XS = np.take_along_axis(X, S[:, None, :], axis=2)
    r = Y - np.einsum("tdn,tn->td", X, c)
    sign = -np.sign(np.take_along_axis(g, S, axis=1))
    rhs = 2.0 * np.einsum("tdk,td->tk", XS, r) - eta * sign
    gram = 2.0 * np.einsum("tdk,tdl->tkl", XS, XS)
    # a shift far below the tolerance: one singular system must not make
    # np.linalg.solve raise for the whole stack
    diag = np.arange(k)
    gram[:, diag, diag] += (1e-14 * np.trace(gram, axis1=1, axis2=2)
                            + np.finfo(float).tiny)[:, None]
    np.put_along_axis(c, S, np.linalg.solve(gram, rhs[..., None])[..., 0],
                      axis=1)
    return c


def lasso_optima_batch(X, Y, eta, halfwidth=None, tol=1e-9,
                       max_iters=200_000):
    """Per-step optima of ||y_t - X_t a||^2 + eta ||a||_1, all t at once.

    Accelerated proximal gradient with gradient restart, one step size per
    problem (1/L_t); optionally box-constrained to [-halfwidth, halfwidth]
    per coordinate (clip after shrink is the exact composed prox).
    At every residual check each running problem also tries an exact
    candidate guessed from its prox-gradient point (``_support_candidate``)
    and keeps whichever of the two has the smaller mapping norm.
    Problems whose prox-gradient mapping norm drops below ``tol`` are
    frozen so stragglers do not keep the whole batch busy.
    Returns (optima, f_star, residuals); raises OptimumError if any
    problem is still above ``tol`` after ``max_iters``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T, d, n = X.shape
    gram = np.einsum("tdn,ten->tde", X, X)
    L = 2.0 * np.linalg.eigvalsh(gram)[:, -1]
    step_all = 1.0 / L

    def prox(v, s):
        w = np.sign(v) * np.maximum(np.abs(v) - s * eta, 0.0)
        if halfwidth is not None:
            w = np.clip(w, -halfwidth, halfwidth)
        return w

    def grad(a, Xa, Ya):
        return 2.0 * np.einsum("tdn,td->tn", Xa,
                               np.einsum("tdn,tn->td", Xa, a) - Ya)

    out = np.zeros((T, n))
    out_res = np.full(T, np.inf)
    active = np.arange(T)
    Xa, Ya = X, Y
    s = step_all[:, None]
    a = np.zeros((T, n))
    z = a.copy()
    tmom = np.ones(T)
    res = np.full(T, np.inf)
    for it in range(1, max_iters + 1):
        a_new = prox(z - s * grad(z, Xa, Ya), s)
        restart = np.einsum("tn,tn->t", z - a_new, a_new - a) > 0.0
        tmom[restart] = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tmom ** 2))
        z = a_new + ((tmom - 1.0) / t_next)[:, None] * (a_new - a)
        a = a_new
        tmom = t_next
        if it % RESIDUAL_CHECK_EVERY == 0 or it == max_iters:
            p = prox(a - s * grad(a, Xa, Ya), s)
            res = np.linalg.norm(p - a, axis=1) / s[:, 0]
            with np.errstate(all="ignore"):  # a nonfinite candidate loses
                c = _support_candidate(p, grad(p, Xa, Ya), Xa, Ya, eta,
                                       halfwidth)
                pc = prox(c - s * grad(c, Xa, Ya), s)
                res_c = np.linalg.norm(pc - c, axis=1) / s[:, 0]
            better = res_c < res
            p[better], res[better] = pc[better], res_c[better]
            done = res <= tol
            if np.any(done):
                out[active[done]] = p[done]
                out_res[active[done]] = res[done]
                keep = ~done
                if not np.any(keep):
                    break
                active = active[keep]
                Xa, Ya = X[active], Y[active]
                s = step_all[active][:, None]
                a, z, tmom = a[keep], z[keep], tmom[keep]
    else:
        raise OptimumError(float(np.max(res)), tol, max_iters)
    r = np.einsum("tdn,tn->td", X, out) - Y
    f_star = np.einsum("td,td->t", r, r) + eta * np.sum(np.abs(out), axis=1)
    return out, f_star, out_res


@dataclass
class ExperimentResult:
    variant: str
    trace: RunTrace
    ledger: object
    rhs: np.ndarray
    regret: np.ndarray


def _error_model(error_std: float, variant: str, seed: int) -> ErrorModel:
    if variant not in ("exact", "inexact"):
        raise ValueError("variant must be 'exact' or 'inexact'")
    if variant == "exact" or error_std == 0.0:
        return zero_error_model(seed=seed)
    return ErrorModel(gradient_std=error_std, prox_std=error_std, seed=seed)


def _play_variants(stream: ProblemStream, cfg, step_size: float, variants,
                   error_seed: Optional[int], optimum_tol: float, optima,
                   f_star, out_dir: Optional[str], write_extra):
    """Play each variant on one stream against the shared optima.

    Variants differ only in their error model. With ``out_dir``, each
    writes trace.csv, bound.csv and bound_state.csv into its directory,
    then calls ``write_extra(trace, variant_dir)``.
    """
    config = SolverConfig(step_size=step_size,
                          generator=euclidean_generator(),
                          initial_point=np.zeros(stream.dim))
    seed = cfg.seed ^ ERROR_SEED_XOR if error_seed is None else error_seed
    results = {}
    for variant in variants:
        trace = run(stream, config, _error_model(cfg.error_std, variant, seed))
        fill_optima(trace, stream, tol=optimum_tol, optima=optima,
                    f_star=f_star)
        ledger = ledger_from_trace(trace, config.generator, step_size,
                                   stream.domain)
        rhs = theorem_rhs(ledger, trace, stream.domain.kind)
        results[variant] = ExperimentResult(
            variant=variant, trace=trace, ledger=ledger, rhs=rhs,
            regret=dynamic_regret(trace))
        if out_dir is not None:
            vdir = os.path.join(out_dir, variant)
            os.makedirs(vdir, exist_ok=True)
            write_trace_csv(trace, os.path.join(vdir, "trace.csv"))
            write_bound_csv(trace, ledger, rhs,
                            os.path.join(vdir, "bound.csv"))
            write_state_csv(trace, os.path.join(vdir, "bound_state.csv"))
            write_extra(trace, vdir)
    return results


def _write_coefficients_csv(path, a_true, a_pred) -> None:
    """Columns t, i, a_true, a_pred (i is 1-based)."""
    T, n = a_true.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,i,a_true,a_pred\n")
        for t in range(T):
            for i in range(n):
                fh.write(f"{t + 1},{i + 1},{a_true[t, i]:.17g},"
                         f"{a_pred[t, i]:.17g}\n")


def run_example1(cfg: GaussMarkovConfig, out_dir: Optional[str] = None,
                 variants=("exact", "inexact"),
                 domain: Optional[Domain] = None,
                 error_seed: Optional[int] = None,
                 optimum_tol: float = OPTIMUM_TOL_DEFAULT):
    """Wire the regression stream through the solver, both variants.

    Per-step optima are computed once (batched for the whole-space and box
    cases, generic oracle otherwise) and shared across variants. Writes
    trace.csv, bound.csv, bound_state.csv, and coefficients.csv per
    variant when ``out_dir`` is given. Returns a dict keyed by variant.
    """
    stream, truth = generate_gauss_markov(cfg, domain)
    dom = stream.domain
    if dom.is_bounded and dom.name != "box":
        optima, f_star = stream_optima(stream, tol=optimum_tol)
    else:
        halfwidth = (dom.diameter / (2.0 * np.sqrt(cfg.n_coeffs))
                     if dom.is_bounded else None)
        optima, f_star, _ = lasso_optima_batch(
            truth["X"], truth["Y"], cfg.eta, halfwidth=halfwidth,
            tol=optimum_tol)

    def write_coefficients(trace, vdir):
        _write_coefficients_csv(os.path.join(vdir, "coefficients.csv"),
                                truth["a_true"], trace.iterates)

    return _play_variants(stream, cfg, cfg.step_size, variants, error_seed,
                          optimum_tol, optima, f_star, out_dir,
                          write_coefficients)


@dataclass(frozen=True)
class SeparationConfig:
    """Synthetic low-rank + sparse separation stream.

    The optimization constants mirror the reference setup; the synthetic
    scales are desk-scale choices. ``background_scale`` keeps the nuclear
    threshold alpha_L * lambda_L (2e4 at defaults) meaningful against the
    background spectrum.
    """

    frame_dim: int = 64
    window: int = 16
    mu_L: float = 0.005
    mu_S: float = 2.0
    lambda_L: float = 1e5
    lambda_S: float = 0.034
    alpha_L: float = 0.2
    alpha_S: float = 0.2
    synth_rank: int = 2
    synth_sparsity: float = 0.05
    horizon: int = 200
    seed: int = 0
    background_scale: float = 1e5
    foreground_scale: float = 3e4
    noise_std: float = 1.0
    rotation: float = 0.01
    error_std: float = 0.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not self.synth_rank < min(self.window, self.frame_dim):
            raise ValueError("synth_rank must be below min(window, frame_dim)")
        if not 0.0 <= self.synth_sparsity < 1.0:
            raise ValueError("synth_sparsity must lie in [0, 1)")
        if self.alpha_L != self.alpha_S:
            raise ValueError("paired updates need alpha_L == alpha_S to form "
                             "one block step")


def background_spectrum(cfg: SeparationConfig) -> np.ndarray:
    """Configured singular values of the synthetic background."""
    r = cfg.synth_rank
    decay = np.linspace(1.0, 0.5, r) if r > 1 else np.ones(1)
    return cfg.background_scale * decay


def separation_smoothness(cfg: SeparationConfig) -> float:
    """Exact curvature bound of the coupled smooth part.

    Largest eigenvalue of [[2 + 2 mu_L, 2], [2, 2 + 2 mu_S]], acting
    entrywise on the (L, S) pair.
    """
    a = 2.0 + 2.0 * cfg.mu_L
    b = 2.0 + 2.0 * cfg.mu_S
    return 0.5 * ((a + b) + np.hypot(a - b, 4.0))


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q * np.sign(np.diag(r))


def _plane_rotation(q: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the plane of q's two orthonormal columns."""
    u, v = q[:, 0], q[:, 1]
    return (np.eye(q.shape[0])
            + np.sin(angle) * (np.outer(v, u) - np.outer(u, v))
            + (np.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v)))


def generate_separation(cfg: SeparationConfig):
    """Synthesize the streaming separation problem.

    Backgrounds are exact rank-``synth_rank`` matrices with the configured
    spectrum whose singular subspaces rotate slowly; foregrounds are a
    fixed sparse pattern. Returns (stream, truth) with truth holding the
    per-step background, the static foreground, its support mask, and the
    observed matrices.
    """
    rng = np.random.default_rng(cfg.seed)
    T, rows, cols, r = cfg.horizon, cfg.window, cfg.frame_dim, cfg.synth_rank
    spectrum = background_spectrum(cfg)
    U = _orthonormal(rng, rows, r)
    V = _orthonormal(rng, cols, r)
    RU = _plane_rotation(_orthonormal(rng, rows, 2), cfg.rotation)
    RV = _plane_rotation(_orthonormal(rng, cols, 2), cfg.rotation)
    mask = rng.uniform(size=(rows, cols)) < cfg.synth_sparsity
    signs = np.where(rng.uniform(size=(rows, cols)) < 0.5, -1.0, 1.0)
    magnitudes = rng.uniform(cfg.foreground_scale, 2.0 * cfg.foreground_scale,
                             size=(rows, cols))
    S_true = mask * signs * magnitudes
    backgrounds = np.zeros((T, rows, cols))
    M = np.zeros((T, rows, cols))
    for t in range(T):
        backgrounds[t] = (U * spectrum) @ V.T
        M[t] = backgrounds[t] + S_true + rng.normal(scale=cfg.noise_std,
                                                    size=(rows, cols))
        U = _reorthonormalize(RU @ U)
        V = _reorthonormalize(RV @ V)
    m = rows * cols
    L_const = separation_smoothness(cfg)
    B_const = float(np.hypot(cfg.lambda_L * np.sqrt(min(rows, cols)),
                             cfg.lambda_S * np.sqrt(m)))
    prox = block_rule([((rows, cols), nuclear_rule(cfg.lambda_L)),
                       ((rows, cols), l1_rule(cfg.lambda_S))])

    def step_at(k: int) -> CompositeLossStep:
        Mk = M[k - 1]

        def g(z):
            Lm = z[:m].reshape(rows, cols)
            Sm = z[m:].reshape(rows, cols)
            res = Lm + Sm - Mk
            return (float(np.sum(res * res))
                    + cfg.mu_L * float(np.sum(Lm * Lm))
                    + cfg.mu_S * float(np.sum(Sm * Sm)))

        def grad(z):
            Lm = z[:m].reshape(rows, cols)
            Sm = z[m:].reshape(rows, cols)
            res2 = 2.0 * (Lm + Sm - Mk)
            return np.concatenate(((res2 + 2.0 * cfg.mu_L * Lm).ravel(),
                                   (res2 + 2.0 * cfg.mu_S * Sm).ravel()))

        def h(z):
            Lm = z[:m].reshape(rows, cols)
            sv = np.linalg.svd(Lm, compute_uv=False)
            return (cfg.lambda_L * float(np.sum(sv))
                    + cfg.lambda_S * float(np.sum(np.abs(z[m:]))))

        return CompositeLossStep(
            smooth_value=g, smooth_gradient=grad, nonsmooth_value=h,
            smoothness_constant=L_const, regularizer_lipschitz=B_const,
            prox_handle=prox, dim=2 * m)

    stream = ProblemStream(horizon=T, step_at=step_at, domain=whole_space(),
                           dim=2 * m)
    truth = {"background": backgrounds, "foreground": S_true,
             "support": mask, "M": M, "spectrum": spectrum}
    return stream, truth


def _reorthonormalize(A: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(A)
    return q * np.sign(np.diag(r))


def separation_blocks(trace_row: np.ndarray, cfg: SeparationConfig):
    """Split one flat iterate into its (L, S) matrices."""
    m = cfg.window * cfg.frame_dim
    return (trace_row[:m].reshape(cfg.window, cfg.frame_dim),
            trace_row[m:].reshape(cfg.window, cfg.frame_dim))


def separation_f1(trace: RunTrace, truth, cfg: SeparationConfig,
                  at: int = -1) -> float:
    """Foreground support F1 of the recovered sparse block.

    The ridge term shrinks on-support entries by roughly 1 + mu_S, so the
    detection threshold is half the smallest planted magnitude after that
    shrinkage.
    """
    _, S_pred = separation_blocks(trace.iterates[at], cfg)
    threshold = cfg.foreground_scale / (2.0 * (1.0 + cfg.mu_S))
    pred = np.abs(S_pred) > threshold
    true = truth["support"]
    tp = float(np.sum(pred & true))
    fp = float(np.sum(pred & ~true))
    fn = float(np.sum(~pred & true))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _write_snapshots(trace: RunTrace, cfg: SeparationConfig, out_dir: str,
                     every: int) -> None:
    sdir = os.path.join(out_dir, "snapshots")
    os.makedirs(sdir, exist_ok=True)
    for k in range(every, trace.horizon + 1, every):
        Lm, Sm = separation_blocks(trace.iterates[k - 1], cfg)
        np.savetxt(os.path.join(sdir, f"L_{k:04d}.csv"), Lm, delimiter=",",
                   fmt="%.17g")
        np.savetxt(os.path.join(sdir, f"S_{k:04d}.csv"), Sm, delimiter=",",
                   fmt="%.17g")


def run_example2(cfg: SeparationConfig, out_dir: Optional[str] = None,
                 variants=("exact",), error_seed: Optional[int] = None,
                 optimum_tol: float = SEPARATION_OPTIMUM_TOL,
                 snapshot_every: int = 50):
    """Run the separation stream and assemble the regret artifacts.

    The (L, S) pair is one flat block variable, so the generic solver,
    ledger, and bound evaluators apply unchanged. Per-step optima come
    from the warm-started offline oracle, computed once and shared.
    Returns (results dict keyed by variant, truth dict).
    """
    stream, truth = generate_separation(cfg)
    optima, f_star = stream_optima(stream, tol=optimum_tol)
    results = _play_variants(
        stream, cfg, cfg.alpha_L, variants, error_seed, optimum_tol, optima,
        f_star, out_dir,
        lambda trace, vdir: _write_snapshots(trace, cfg, vdir, snapshot_every))
    return results, truth
