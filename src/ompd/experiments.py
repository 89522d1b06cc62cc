"""Desk-scale generators and drivers for the two built-in experiments.

Experiment 1 tracks a sparse autoregressive coefficient vector through a
stream of tiny least-squares plus l1 problems. Experiment 2 separates
synthetic low-rank backgrounds from sparse foregrounds with paired
nuclear-norm and l1 prox updates on one block variable. ``EXPERIMENTS``
holds one row per experiment. ``play`` plays a row into a run directory,
and ``verify`` certifies that directory from the same row.
``tracking_stream`` builds f_k = a ||x - c_k||^2 + eta ||x||_1 from given
centres, with its exact optima, for tests and custom runs. ``lasso_stream``
builds example1's f_k = ||y_k - X_k a||^2 + eta ||a||_1 from given data;
``lasso_optima_batch`` computes its optima.

All randomness flows from the config seed through a single generator in a
fixed draw order, so streams are bit-reproducible. Error draws use the
seed ``ompd run`` derives, ``cfg.seed ^ STREAM_SEED_XOR ^ ERROR_SEED_XOR``.
"""

from __future__ import annotations

import functools
import itertools
import os
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import euclidean_generator
from .errors import OptimumError, SolverRunError, StepSizeError, SvdError
from .losses import (CompositeLossStep, Domain, ErrorModel, ProblemStream,
                     box, whole_space)
from .prox import (_prox_gradient_point, block_rule, check_step_size,
                   composed_prox, l1_rule, nuclear_rule, prox_gradient,
                   zero_rule)
from .regret import (OPTIMUM_TOL_DEFAULT, certified_margin, fill_optima,
                     ledger_from_trace, stream_optima, write_bound_csv)
from .runio import (RunTrace, one_per_path, read_state_csv, trace_from_state,
                    write_long_tables, write_state_csv, write_table,
                    write_tables)
from .solver import SolverConfig, run, write_trace_csv

VARIANTS = ("exact", "inexact")  # one folder each in a run directory
PARTIAL_TRACE = "partial_trace.csv"  # (k, f_x) of a run that failed
RUN_CONFIG = "run_config.cfg"  # the resolved config ``ompd run`` writes
#: the stream and error-model seeds are the manifest seed XOR these tags
STREAM_SEED_XOR = 0x53545245  # "STRE"
ERROR_SEED_XOR = 0x4E4F4953  # "NOIS"

#: example2's optimum tolerance; 1e-9 may be out of reach at its 1e5 scale
SEPARATION_OPTIMUM_TOL = 1e-6
#: sweep budget of one step of ``separation_optima``
SEPARATION_MAX_SWEEPS = 10_000
#: iteration budget of each fallback problem of ``lasso_optima_batch``
LASSO_MAX_ITERS = 200_000
#: problems per ``_lasso_path`` call in ``lasso_optima_batch``
_LASSO_CHUNK_ROWS = 1024
_SNAPSHOT_EVERY = 50  # steps between example2's (L, S) snapshots
_SANITY_TOL = 1e-6  # verify's f_x - f_star allowance, beside optimum_tol


def _require_step_size(cfg, key: str) -> None:
    """A step size must be positive and finite; NaN fails too."""
    value = getattr(cfg, key)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{key} must be positive and finite, got {value}")


def _require_scale(cfg, key: str) -> None:
    """A weight or standard deviation must be nonnegative and finite."""
    value = getattr(cfg, key)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{key} must be nonnegative and finite, got {value}")


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
        for key in ("horizon", "n_coeffs", "input_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if any(not 1 <= i <= self.n_coeffs for i in self.active_set):
            raise ValueError("active_set indices must lie in 1..n_coeffs")
        if len(set(self.active_set)) < len(self.active_set):
            raise ValueError("active_set indices must be distinct")
        _require_step_size(self, "step_size")
        for key in ("eta", "obs_noise_std", "error_std"):
            _require_scale(self, key)


def coefficient_paths(cfg: GaussMarkovConfig,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Ground-truth coefficients, shape (horizon, n_coeffs), times 1..T.

    Active coordinates follow a_t = alpha a_{t-1} + v_t with stationary
    unit variance (v_t has variance 1 - alpha^2); inactive ones stay zero.
    Each coordinate's recursion runs on Python floats: one rounded multiply
    and one rounded add per step, as numpy's elementwise ops round them.
    """
    T = cfg.horizon
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    active = [i - 1 for i in cfg.active_set]
    a0 = rng.normal(size=len(active))
    v = rng.normal(scale=np.sqrt(1.0 - cfg.alpha ** 2), size=(T, len(active)))
    path = np.zeros((T, cfg.n_coeffs))
    alpha = float(cfg.alpha)
    for j, i in enumerate(active):
        path[:, i] = list(itertools.accumulate(
            v[:, j].tolist(), lambda p, x: alpha * p + x,
            initial=float(a0[j])))[1:]
    return path


def generate_gauss_markov(cfg: GaussMarkovConfig,
                          domain: Optional[Domain] = None):
    """Build the regression stream plus its ground truth.

    Synthesizes coefficient paths and (X, y) data for ``lasso_stream`` on
    ``domain`` (None: the whole space). Returns (stream, truth) where truth
    holds the coefficient paths and the raw (X, y) arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    T, n, d = cfg.horizon, cfg.n_coeffs, cfg.input_dim
    a_true = coefficient_paths(cfg, rng=rng)
    X = rng.normal(size=(T, d, n))
    w = rng.normal(scale=cfg.obs_noise_std, size=(T, d))
    Y = np.einsum("tdn,tn->td", X, a_true) + w
    stream = lasso_stream(X, Y, cfg.eta,
                          whole_space() if domain is None else domain)
    return stream, {"a_true": a_true, "X": X, "Y": Y}


def _indexed_stream(g, grad, h, L, B, rule, domain: Domain, dim: int,
                    values) -> ProblemStream:
    """The stream of f_k = g(k-1, .) + h, of gradient grad(k-1, .), (T,)
    arrays L and B of L_k and B_k and one prox ``rule``, which it declares;
    step k binds the shared evaluators to k - 1. ``ProblemStream`` refuses
    an L_k or B_k that is not finite (a closed form that overflowed)."""

    def step_at(k: int) -> CompositeLossStep:
        return CompositeLossStep(
            smooth_value=functools.partial(g, k - 1),
            smooth_gradient=functools.partial(grad, k - 1), nonsmooth_value=h,
            smoothness_constant=float(L[k - 1]),
            regularizer_lipschitz=float(B[k - 1]), prox_handle=rule, dim=dim)

    return ProblemStream(horizon=len(L), step_at=step_at, domain=domain,
                         dim=dim, batch_values=values, gradient=grad,
                         rule=rule, smoothness=L, reg_lipschitz=B)


def tracking_stream(centers, domain: Domain, a: float = 1.0,
                    eta: float = 0.0):
    """(stream, optima) of f_k(x) = a ||x - c_k||^2 + eta ||x||_1 over
    ``domain``, c_k row k of the (T, n) array ``centers``. Steps declare
    the exact L = 2a and B = eta sqrt(n) and share one rule (``zero_rule``
    at eta = 0). Step k's optimum is ``composed_prox`` of c_k at scale
    1/(2a), exact for l1 on a box or ball (Yu, NeurIPS 2013)."""
    centers = np.array(centers, dtype=float)
    if not (0.0 < a < np.inf and 0.0 <= eta < np.inf and centers.ndim == 2
            and centers.size and np.all(np.isfinite(centers))):
        raise ValueError(f"need finite a > 0, eta >= 0 and (T >= 1, n >= 1) "
                         f"centers; got a={a}, eta={eta}, {centers.shape}")
    (T, n), rule = centers.shape, l1_rule(eta) if eta else zero_rule()
    with np.errstate(over="ignore"):  # refused by ProblemStream
        L, B = 2.0 * np.float64(a), eta * np.sqrt(n)

    def g(i, x):  # shared evaluators; a step binds its own index
        d = x - centers[i]
        return a * float(np.dot(d, d))

    def grad(i, x):
        return L * (x - centers[i])

    def h(x):
        return eta * float(np.sum(np.abs(x)))

    def values(xs, start):  # stacked matmuls: g's dot products, bit for bit
        d = xs - centers[start:start + len(xs)]
        return (a * (d[:, None, :] @ d[:, :, None])[:, 0, 0]
                + eta * np.sum(np.abs(xs), axis=1))

    optima = np.array([composed_prox(rule, domain, c, 1.0 / L)
                       for c in centers])  # CompositionError: no exact form
    return _indexed_stream(g, grad, h, np.full(T, L), np.full(T, B), rule,
                           domain, n, values), optima


def _lasso_smoothness(X: np.ndarray) -> np.ndarray:
    """2 lambda_max(X_t^T X_t) per t, from the d x d Gram X_t X_t^T."""
    return 2.0 * np.linalg.eigvalsh(np.einsum("tdn,ten->tde", X, X))[:, -1]


def lasso_stream(X, Y, eta: float, domain: Domain) -> ProblemStream:
    """The stream f_k(a) = ||y_k - X_k a||^2 + eta ||a||_1 over ``domain``,
    X_k and y_k row k of the (T, d, n) array ``X`` and the (T, d) array
    ``Y``. Step k declares the exact L_k = 2 lambda_max(X_k^T X_k) and
    B = eta sqrt(n), and all steps share one ``l1_rule(eta)``. Its optima
    come from ``lasso_optima_batch``. Data whose ||y_k||^2 (the loss at
    the origin), L_k or B overflows are refused."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if not (X.ndim == 3 and X.size and Y.shape == X.shape[:2]
            and 0.0 <= eta < np.inf and np.all(np.isfinite(X))
            and np.all(np.isfinite(Y))):
        raise ValueError(f"need finite (T >= 1, d >= 1, n >= 1) X, (T, d) Y "
                         f"and eta >= 0; got {X.shape}, {Y.shape}, eta={eta}")
    T, _, n = X.shape
    with np.errstate(over="ignore"):  # refused here and by ProblemStream
        L, B = _lasso_smoothness(X), eta * np.sqrt(n)
        ok = np.isfinite(np.einsum("td,td->t", Y, Y))
    if not np.all(ok):
        raise ValueError(f"need finite ||y_k||^2; step {np.argmin(ok) + 1} "
                         f"overflows")
    rule = l1_rule(eta)

    def g(i, a):  # shared evaluators; a step binds its own index
        r = X[i] @ a - Y[i]
        return float(np.dot(r, r))

    def grad(i, a):
        return 2.0 * (X[i].T @ (X[i] @ a - Y[i]))

    def h(a):
        return eta * float(np.sum(np.abs(a)))

    def values(A, start):  # stacked matmuls: g's dot products, bit for bit
        rows = slice(start, start + len(A))
        r = (X[rows] @ A[:, :, None])[:, :, 0] - Y[rows]
        return ((r[:, None, :] @ r[:, :, None])[:, 0, 0]
                + eta * np.sum(np.abs(A), axis=1))

    return _indexed_stream(g, grad, h, L, np.full(T, B), rule, domain, n,
                           values)


def _lasso_path(X, Y, eta, halfwidth=None):
    """Exact lasso solutions at ``eta`` by a batched LARS-lasso homotopy.

    The lasso path in lambda is piecewise linear (Efron et al., Ann. Stat.
    2004; Osborne, Presnell & Turlach, IMA J. Numer. Anal. 2000), also in
    the box |a_j| <= ``halfwidth`` (Rosset & Zhu, Ann. Stat. 2007). Each
    problem starts at lambda_max = ||2 X^T y||_inf with a = 0 (inside any
    box), and each coordinate is zero, active with sign s_j (at most
    min(d, n) active slots), or pinned at s_j * halfwidth. With the pinned
    columns on the right-hand side, r0 = y - X_P a_P, a_A(lam) = v - lam u
    where 2 X_A^T X_A [v, u] = [2 X_A^T r0, s], and every correlation
    c_j(lam) = 2 x_j^T (r0 - X_A a_A(lam)) is linear in lam. The next event
    is the largest lam' below lam at which an active a_j reaches 0 against
    its sign (a drop), a zero |c_j| reaches lam' (a join), an active a_j
    reaches s_j * halfwidth (a pin), a pinned s_j c_j falls to lam' (a
    release), or lam' = eta (the stop). A join takes the sign of c_j, a
    release keeps s_j. Without a box no pin or release is computed. A full
    set of slots takes no join or release. A coordinate dropped, pinned or
    released at one event may not reverse that at the next: rounding would
    let it. Returns a; a problem whose path outlasts 4n events or meets
    nonfinite data keeps a = 0 (the caller's acceptance test judges every
    row).
    """
    T, d, n = X.shape
    K = min(d, n)
    lam = np.max(np.abs(2.0 * np.einsum("tdn,td->tn", X, Y)), axis=1)
    slots = np.full((T, K), -1)  # active coordinates, -1 marks a free slot
    signs = np.zeros((T, K))
    if halfwidth is not None:  # s_j where a_j is pinned at s_j * halfwidth
        pins = np.zeros((T, n))
    barred = np.full(T, -1)  # the coordinate changed at the previous event
    barred_sign = np.zeros(T)  # its sign if it was dropped, else 0
    a = np.zeros((T, n))
    run = np.flatnonzero(lam > eta)  # else a = 0 is optimal
    diag = np.arange(K)
    for _ in range(4 * n):
        if run.size == 0:
            break
        S, s = slots[run], signs[run]
        used = S >= 0
        rows = np.arange(run.size)
        XA = (np.swapaxes(X[run[:, None], :, np.where(used, S, 0)], 1, 2)
              * used[:, None, :])  # a free slot holds a zero column
        gram = 2.0 * np.einsum("tdk,tdl->tkl", XA, XA)
        # a shift far below the tolerance: one singular system must not make
        # np.linalg.solve raise for the whole stack; a free slot solves to 0
        gram[:, diag, diag] += np.where(
            used, (1e-14 * np.trace(gram, axis1=1, axis2=2)
                   + np.finfo(float).tiny)[:, None], 1.0)
        r0 = Y[run]
        if halfwidth is not None:
            held = pins[run]
            r0 = r0 - halfwidth * np.einsum("tdn,tn->td", X[run], held)
        rhs = np.stack((2.0 * np.einsum("tdk,td->tk", XA, r0), s), axis=2)
        vu = np.linalg.solve(gram, rhs)
        v, u = vu[..., 0], vu[..., 1]
        # c(lam') = p + lam' q with p = 2 X^T (r0 - X_A v), q = 2 X^T X_A u
        fit = 2.0 * np.einsum("tdk,tkm->tmd", XA, vu)
        fit[:, 0] = 2.0 * r0 - fit[:, 0]
        pq = fit @ X[run]
        p, q = pq[:, 0], pq[:, 1]
        free = np.ones((run.size, n), dtype=bool)
        free[np.nonzero(used)[0], S[used]] = False
        # a full set leaves no coordinate (n <= d) or fits r0 exactly with a
        # square X_A, so that every c_j / lam' stays fixed (d < n)
        free[np.all(used, axis=1)] = False
        b = barred[run]
        hb = np.flatnonzero(b >= 0)
        if halfwidth is not None:
            # s_j c_j(lam') = lam' at p / (s_j - q); a crossing counts
            # where s_j c_j - lam' falls as lam' falls
            release = free & (held * q > 1.0)
            release[hb, b[hb]] = False
            free &= held == 0.0
        # c_j(lam') = lam' at p / (1 - q) and -lam' at p / (-1 - q); a
        # crossing counts where |c_j| - lam' grows as lam' falls. A dropped
        # coordinate may rejoin at once only with the other sign.
        up, down = free & (q < 1.0), free & (q > -1.0)
        up[hb, b[hb]] &= barred_sign[run[hb]] < 0.0
        down[hb, b[hb]] &= barred_sign[run[hb]] > 0.0
        join = np.divide(p, 1.0 - q, out=np.full_like(p, -np.inf), where=up)
        np.fmax(join, np.divide(p, -1.0 - q, out=np.full_like(p, -np.inf),
                                where=down), out=join)
        times = [np.divide(v, u, out=np.full_like(v, -np.inf),
                           where=used & (u * s < 0.0)), join]
        if halfwidth is not None:
            # a_j(lam') = s_j * halfwidth at (v - s_j halfwidth) / u, where
            # |a_j| grows as lam' falls
            times.append(np.divide(
                v - s * halfwidth, u, out=np.full_like(v, -np.inf),
                where=used & (u * s > 0.0) & (S != b[:, None])))
            times.append(np.divide(p, held - q, out=np.full_like(p, -np.inf),
                                   where=release))
        # per kind (drop, join, pin, release) the slot or coordinate that
        # reaches its event first, and when; the first kind wins a tie
        at = np.stack([np.argmax(np.minimum(t, lam[run][:, None], out=t),
                                 axis=1) for t in times])
        when = np.stack([t[rows, i] for t, i in zip(times, at)])
        kind = np.argmax(when, axis=0)
        nxt = np.maximum(np.max(when, axis=0), eta)
        stop = nxt <= eta  # the stop wins a tie
        done = stop | ~np.isfinite(nxt)  # NaN data ends here
        ri, ki = np.nonzero(stop[:, None] & used)
        a[run[ri], S[ri, ki]] = v[ri, ki] - eta * u[ri, ki]
        barred[run], barred_sign[run] = -1, 0.0
        # a drop or a pin empties its slot k
        lv = np.flatnonzero(~done & (kind % 2 == 0))
        k = at[kind[lv], lv]
        slots[run[lv], k] = -1
        signs[run[lv], k] = 0.0
        barred[run[lv]] = S[lv, k]
        barred_sign[run[lv]] = np.where(kind[lv] == 0, s[lv, k], 0.0)
        # a join or a release takes the first free slot; a join takes the
        # sign of c_j, a release keeps s_j
        en = np.flatnonzero(~done & (kind % 2 == 1))
        j = at[kind[en], en]
        vacant = np.argmin(used[en], axis=1)
        slots[run[en], vacant] = j
        signs[run[en], vacant] = np.sign(p[en, j] + nxt[en] * q[en, j])
        if halfwidth is not None:
            a[run[stop]] += halfwidth * held[stop]
            pins[run[lv], S[lv, k]] = np.where(kind[lv] == 2, s[lv, k], 0.0)
            rl = kind[en] == 3
            signs[run[en[rl]], vacant[rl]] = held[en[rl], j[rl]]
            pins[run[en], j] = 0.0
            barred[run[en]] = np.where(rl, j, -1)
        lam[run] = nxt
        run = run[~done]
        del pq, p, q, times  # before the next event allocates its own
    return a


def lasso_optima_batch(X, Y, eta, halfwidth=None, tol=OPTIMUM_TOL_DEFAULT):
    """Per-step optima of ||y_t - X_t a||^2 + eta ||a||_1, all t at once.

    Optionally box-constrained to [-halfwidth, halfwidth] per coordinate
    (clip after shrink is the exact composed prox). A point is kept as its
    prox-gradient point p at step 1/L_t once the mapping norm
    ||p - a|| L_t is at most ``tol``. The exact lasso homotopy
    (``_lasso_path``, at most 4n join, drop, pin and release events)
    solves the problems ``_LASSO_CHUNK_ROWS`` at a time, which bounds its
    scratch memory (they are independent); on the small default designs it
    reaches eta in a few events and its points pass the test up to
    rounding. Each problem it leaves (a degenerate design such as twin
    columns, a path out of events) runs ``prox.prox_gradient`` alone, from
    0 with step 1/L_t, for ``LASSO_MAX_ITERS`` iterations at most. Returns
    (optima, residuals); raises OptimumError for a problem with nonfinite
    data, before any iteration, and for one that ends above ``tol``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T, d, n = X.shape
    L = _lasso_smoothness(X)
    step = 1.0 / np.where(L > 0.0, L, 1.0)  # as offline_optimum: X = 0
    dom = whole_space() if halfwidth is None else box(-halfwidth, halfwidth,
                                                      dim=n)
    s = step[:, None]
    with np.errstate(all="ignore"):  # a nonfinite path point fails the test
        a = np.empty((T, n))
        for lo in range(0, T, _LASSO_CHUNK_ROWS):
            rows = slice(lo, lo + _LASSO_CHUNK_ROWS)
            a[rows] = _lasso_path(X[rows], Y[rows], eta, halfwidth)
        v = a - s * (2.0 * np.einsum("tdn,td->tn", X,
                                     np.einsum("tdn,tn->td", X, a) - Y))
        out = dom.project(np.sign(v) * np.maximum(np.abs(v) - s * eta, 0.0))
        residuals = np.linalg.norm(out - a, axis=1) / step
    left = np.flatnonzero(~(residuals <= tol))  # NaN fails too
    if not (np.all(np.isfinite(X[left])) and np.all(np.isfinite(Y[left]))):
        raise OptimumError(np.nan, tol, 0)
    for t in left:
        Xt, yt = X[t], Y[t]
        out[t], residuals[t], converged, iters = prox_gradient(
            lambda x: 2.0 * (Xt.T @ (Xt @ x - yt)), l1_rule(eta), dom,
            np.zeros(n), step[t], tol, LASSO_MAX_ITERS)
        if not converged:
            raise OptimumError(residuals[t], tol, iters)
    return out, residuals


@dataclass
class ExperimentResult:
    trace: RunTrace
    rhs: np.ndarray
    regret: np.ndarray

    @property
    def margin(self) -> float:  # the number ``verify`` prints
        return certified_margin(self.regret, self.rhs)


def _error_model(error_std: float, variant: str, seed: int) -> ErrorModel:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    std = error_std if variant == "inexact" else 0.0
    return ErrorModel(gradient_std=std, prox_std=std, seed=seed)


@dataclass(frozen=True)
class Experiment:
    """One built-in experiment, as ``play`` and ``verify`` read it. Its
    callables look this module's functions up at call time, so a replaced
    module attribute (a spy, a tracer) is used."""

    section: str           # config-file section holding the config fields
    config: type           # the config dataclass
    step_size: str         # the config field holding lambda
    optimum_tol: float     # default of [run] optimum_tol
    domain_dim: Optional[str]  # field sizing a box [domain]; None: whole space
    stream: Callable       # (cfg, domain) -> (ProblemStream, truth)
    optima: Callable       # (stream, truth, cfg, tol) -> (T, dim) optima
    tables: Callable       # (traces, vdirs, cfg, truth): extra files
    generator: Callable = lambda: euclidean_generator()  # run's and verify's


def initial_point(dim: int) -> np.ndarray:
    """x0 of every experiment's run, the origin; ``verify`` requires row
    k = 0 of bound_state.csv to hold it."""
    return np.zeros(dim)


def play(row: Experiment, cfg, domain: Optional[Domain],
         out_dir: Optional[str], variants, optimum_tol: float):
    """Play each variant of experiment ``row`` on one stream built from
    ``cfg`` (``domain`` None is the whole space), against optima at
    ``optimum_tol`` that the variants share. Variants differ only in their
    error model, seeded with ``cfg.seed ^ STREAM_SEED_XOR ^
    ERROR_SEED_XOR``, and each distinct model is played once. With
    ``out_dir``, play owns the run directory: an earlier ``RUN_CONFIG``,
    ``PARTIAL_TRACE`` and ``VARIANTS`` are removed first, so a failed or
    library run leaves nothing of an earlier run for ``verify``; a
    ``SolverRunError`` writes ``PARTIAL_TRACE``, and then each variant's
    trace.csv, bound.csv, bound_state.csv and row tables are written
    together. Returns the results keyed by variant.
    """
    seed = cfg.seed ^ STREAM_SEED_XOR ^ ERROR_SEED_XOR
    models = {variant: _error_model(cfg.error_std, variant, seed)
              for variant in variants}
    if out_dir is not None:  # no file of an earlier run may outlive this one
        os.makedirs(out_dir, exist_ok=True)
        for name in (RUN_CONFIG, PARTIAL_TRACE, *VARIANTS):
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
    stream, truth = row.stream(cfg, domain)
    optima = row.optima(stream, truth, cfg, optimum_tol)
    step_size = getattr(cfg, row.step_size)
    config = SolverConfig(step_size=step_size, generator=row.generator(),
                          initial_point=initial_point(stream.dim))
    try:
        played = {model: run(stream, config, model)
                  for model in dict.fromkeys(models.values())}
    except SolverRunError as exc:
        if out_dir is not None:
            write_table(os.path.join(out_dir, PARTIAL_TRACE), ("k", "f_x"), [
                np.arange(1, exc.trace.horizon + 1), exc.trace.f_played])
        raise
    tables = {model: ledger_from_trace(fill_optima(trace, stream, optima),
                                       config.generator, step_size,
                                       stream.domain)
              for model, trace in played.items()}
    results = {variant: ExperimentResult(trace=played[model],
                                         rhs=tables[model]["RHS"],
                                         regret=tables[model]["R"])
               for variant, model in models.items()}
    if out_dir is not None:
        vdirs = [os.path.join(out_dir, variant) for variant in models]
        for vdir in vdirs:
            os.makedirs(vdir, exist_ok=True)

        def paths(name):
            return [os.path.join(vdir, name) for vdir in vdirs]

        traces = [res.trace for res in results.values()]
        write_trace_csv(traces, *paths("trace.csv"))
        write_bound_csv([tables[model] for model in models.values()],
                        *paths("bound.csv"))
        write_state_csv(traces, *paths("bound_state.csv"))
        row.tables(traces, vdirs, cfg, truth)
    return results


def verdict(variant: str, regret, rhs, detail: str = ""):
    """The (error, line) ``ompd run`` and ``ompd verify`` print for one
    variant: ``detail``, then the ``certified_margin``, which is
    "bound_violated" (else None) when negative or not finite."""
    worst = certified_margin(regret, rhs)
    line = f"variant={variant}{detail} worst_margin={worst:.6g}"
    if not 0.0 <= worst < np.inf:
        return "bound_violated", line + " error=bound_violated"
    return None, line


def verify(row: Experiment, cfg, domain: Optional[Domain], out_dir: str,
           variants, optimum_tol: float):
    """Certify each variant of the run directory ``out_dir`` that ``play``
    wrote for ``row`` and ``cfg``, from its bound_state.csv alone, against
    the row's rebuilt stream, step size and distance generator. The
    recorded L_k and B_k must be finite and at least the ones the stream
    declares, with no slack: both come from the same code, bit for bit,
    and a raised one is still a valid upper bound. Returns one (error,
    line) per variant, error None or the line's name; a certified run's
    is its ``verdict``."""
    stream, _ = row.stream(cfg, domain)
    declared = np.stack((stream.smoothness, stream.reg_lipschitz))
    lam, generator = getattr(cfg, row.step_size), row.generator()

    def check(variant):
        def fail(error, detail=""):
            return error, f"variant={variant} error={error}{detail}"
        path = os.path.join(out_dir, variant, "bound_state.csv")
        if not os.path.exists(path):
            return fail("missing_trace")
        try:
            state = read_state_csv(path)
            if not (state["eps"].size == stream.horizon
                    and state["dim"] == stream.dim):
                raise ValueError("the file does not cover the run")
        except (OSError, ValueError):
            return fail("unreadable_trace")
        # f_star is the stream's value at the optimum, within 4 ulp (README)
        optima = state["optima"]
        finite = np.all(np.isfinite(optima), axis=1)
        with np.errstate(all="ignore"):  # a nonfinite optimum reaches no SVD
            f = stream.total_values(np.where(finite[:, None], optima, 0))
            ok = finite & (abs(state["f_star"] - f) <= 4 * abs(np.spacing(f)))
        if not np.all(ok):
            return fail("f_star", f" step={np.argmin(ok) + 1}")
        # the bound is certified from this file's f_x and f_star
        gap = state["f_x"] - state["f_star"]
        worst_gap = np.min(gap) if np.all(np.isfinite(gap)) else np.nan
        if not worst_gap >= -(_SANITY_TOL + optimum_tol):
            return fail("sanity", f" worst={worst_gap:.6g}")
        # a negative or nonfinite norm would inflate the bound it enters
        norms = np.stack([state[key] for key in ("e_norm", "eps", "q_norm")])
        ok = np.all(np.isfinite(norms) & (norms >= 0.0), axis=0)
        if not np.all(ok):
            return fail("norms", f" step={np.argmin(ok) + 1}")
        # x0 sets the start cost Z0 = V(x_1*, x0) / lam
        if not np.array_equal(state["x0"], initial_point(stream.dim)):
            return fail("x0")
        # every recorded constant must bound its declared one; NaN, inf fail
        recorded = np.stack((state["L_k"], state["B_k"]))
        ok = np.all((recorded >= declared) & (recorded < np.inf), axis=0)
        if not np.all(ok):
            return fail("constants", f" step={int(np.argmin(ok)) + 1}")
        try:  # the recorded L_k bound the declared ones
            check_step_size(lam, np.max(state["L_k"]), generator.sigma_omega)
        except StepSizeError:
            return fail("step_size")
        rebuilt = trace_from_state(state, lam, stream.domain.kind,
                                   stream.domain.diameter)
        table = ledger_from_trace(rebuilt, generator, lam, stream.domain)
        return verdict(variant, table["R"], table["RHS"])

    return [check(variant) for variant in variants]


def _gauss_markov_optima(stream: ProblemStream, truth, cfg, tol: float):
    """example1's optima: one batched lasso path (``lasso_optima_batch``,
    with the box's own half-width) on the whole space or an origin-centred
    cube, the generic oracle ``regret.stream_optima`` on any other domain.
    """
    dom = stream.domain
    halfwidth = None
    if dom.bounds is not None:
        lo, hi = dom.bounds
        if np.all(hi == hi[0]) and np.all(lo == -hi):
            halfwidth = float(hi[0])
    if dom.kind == "bounded" and halfwidth is None:
        return stream_optima(stream, tol=tol)
    return lasso_optima_batch(truth["X"], truth["Y"], cfg.eta,
                              halfwidth=halfwidth, tol=tol)[0]


def _write_coefficients_csv(a_true, a_pred, *paths) -> None:
    """Columns t, i, a_true, a_pred (t and i are 1-based).

    ``a_pred`` is one (T, n) array, or a list of one per path. The files
    are written together, one block of time steps at a time, with the
    texts of ``t, i`` repeated and ``a_true`` formatted once for all of
    them (``runio.write_long_tables``).
    """
    write_long_tables(paths, ("t", "i", "a_true", "a_pred"), a_true,
                      one_per_path(a_pred, paths))


def run_example1(cfg: GaussMarkovConfig, out_dir: Optional[str] = None,
                 variants=("exact", "inexact"),
                 domain: Optional[Domain] = None,
                 optimum_tol: float = OPTIMUM_TOL_DEFAULT):
    """Play the regression stream (``play``), both variants by default,
    with coefficients.csv per variant. Returns a dict keyed by variant."""
    return play(EXPERIMENTS["example1"], cfg, domain, out_dir, variants,
                optimum_tol)


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
        # the drift rotates a plane on each side: frame_dim, window >= 2
        for key, least in (("horizon", 1), ("synth_rank", 0),
                           ("frame_dim", 2), ("window", 2)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}")
        for key in ("mu_L", "mu_S", "lambda_L", "lambda_S", "noise_std",
                    "error_std", "background_scale", "foreground_scale"):
            _require_scale(self, key)
        if not np.isfinite(self.rotation):
            raise ValueError(f"rotation must be finite, got {self.rotation}")
        if not self.synth_rank < min(self.window, self.frame_dim):
            raise ValueError("synth_rank must be below min(window, frame_dim)")
        if not 0.0 <= self.synth_sparsity < 1.0:
            raise ValueError("synth_sparsity must lie in [0, 1)")
        for key in ("alpha_L", "alpha_S"):
            _require_step_size(self, key)
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


def _orthonormalize(A: np.ndarray) -> np.ndarray:
    """Q of A's QR factorisation, column signs fixed by R's diagonal."""
    q, r = np.linalg.qr(A)
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
    observed matrices. Frames M_k whose ||M_k||^2 (the loss at the origin)
    overflows, and scales whose L_k or B_k overflows, are refused.
    """
    rng = np.random.default_rng(cfg.seed)
    T, rows, cols, r = cfg.horizon, cfg.window, cfg.frame_dim, cfg.synth_rank
    spectrum = background_spectrum(cfg)
    U = _orthonormalize(rng.normal(size=(rows, r)))
    V = _orthonormalize(rng.normal(size=(cols, r)))
    RU = _plane_rotation(_orthonormalize(rng.normal(size=(rows, 2))),
                         cfg.rotation)
    RV = _plane_rotation(_orthonormalize(rng.normal(size=(cols, 2))),
                         cfg.rotation)
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
        U = _orthonormalize(RU @ U)
        V = _orthonormalize(RV @ V)
    with np.errstate(over="ignore"):  # refused below, not warned of
        ok = np.isfinite(np.einsum("tij,tij->t", M, M))
    if not np.all(ok):
        raise ValueError(f"need finite ||M_k||^2; frame {np.argmin(ok) + 1} "
                         f"overflows")
    m = rows * cols
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        L_k = np.full(T, separation_smoothness(cfg))
        B_k = np.full(T, np.hypot(cfg.lambda_L * np.sqrt(min(rows, cols)),
                                  cfg.lambda_S * np.sqrt(m)))
    prox = block_rule([((rows, cols), nuclear_rule(cfg.lambda_L)),
                       ((rows, cols), l1_rule(cfg.lambda_S))])

    # one evaluator of each kind per stream; a step binds its own index
    def g(i, z):
        Lm = z[:m].reshape(rows, cols)
        Sm = z[m:].reshape(rows, cols)
        res = Lm + Sm - M[i]
        return (float(np.sum(res * res))
                + cfg.mu_L * float(np.sum(Lm * Lm))
                + cfg.mu_S * float(np.sum(Sm * Sm)))

    def grad(i, z):
        Lm = z[:m].reshape(rows, cols)
        Sm = z[m:].reshape(rows, cols)
        res2 = 2.0 * (Lm + Sm - M[i])
        return np.concatenate(((res2 + 2.0 * cfg.mu_L * Lm).ravel(),
                               (res2 + 2.0 * cfg.mu_S * Sm).ravel()))

    def h(z):
        Lm = z[:m].reshape(rows, cols)
        sv = np.linalg.svd(Lm, compute_uv=False)
        return (cfg.lambda_L * float(np.sum(sv))
                + cfg.lambda_S * float(np.sum(np.abs(z[m:]))))

    def values(Z, start):
        t = len(Z)
        Lm = Z[:, :m].reshape(t, rows, cols)
        Sm = Z[:, m:].reshape(t, rows, cols)
        res = Lm + Sm - M[start:start + t]
        sv = np.linalg.svd(Lm, compute_uv=False)
        return (np.sum(res * res, axis=(1, 2))
                + cfg.mu_L * np.sum(Lm * Lm, axis=(1, 2))
                + cfg.mu_S * np.sum(Sm * Sm, axis=(1, 2))
                + (cfg.lambda_L * np.sum(sv, axis=1)
                   + cfg.lambda_S * np.sum(np.abs(Z[:, m:]), axis=1)))

    stream = _indexed_stream(g, grad, h, L_k, B_k, prox, whole_space(), 2 * m,
                             values)
    truth = {"background": backgrounds, "foreground": S_true,
             "support": mask, "M": M, "spectrum": spectrum}
    return stream, truth


def _gram_svt(Z: np.ndarray, tau: float) -> np.ndarray:
    """SVT(Z, tau) from the eigendecomposition of Z's smaller Gram matrix.

    With w, V = eigh(A A^T) for A the wide orientation of Z, the singular
    values are s = sqrt(w) and SVT(A) = V diag(max(s - tau, 0) / s) V^T A:
    one symmetric eigensolve instead of a rectangular SVD. A kept singular
    value s carries an error of about eps ||Z||^2 / s, so this serves
    ``separation_optima``'s sweep candidates only; whatever is certified
    uses ``prox.singular_value_threshold``.
    """
    A = Z if Z.shape[0] <= Z.shape[1] else Z.T
    w, V = np.linalg.eigh(A @ A.T)
    s = np.sqrt(np.maximum(w, 0.0))
    shrink = np.divide(np.maximum(s - tau, 0.0), s, out=np.zeros_like(s),
                       where=s > 0.0)
    out = (V * shrink) @ (V.T @ A)
    return out if A is Z else out.T


def separation_optima(stream: ProblemStream, M: np.ndarray,
                      cfg: SeparationConfig,
                      tol: float = SEPARATION_OPTIMUM_TOL):
    """Per-step optima of the separation stream by exact block minimisation.

    With the other block fixed, each block of step k's objective
    ||L + S - M_k||^2 + mu_L ||L||^2 + mu_S ||S||^2 + lambda_L ||L||_*
    + lambda_S ||S||_1 has a closed-form minimiser:

        L = SVT((M_k - S) / (1 + mu_L), lambda_L / (2 (1 + mu_L))),
        S = soft((M_k - L) / (1 + mu_S), lambda_S / (2 (1 + mu_S))),

    the L-update by ``_gram_svt``, the S-update by the stream's own l1
    rule. Alternating them converges linearly, as both blocks are
    strongly convex (Tseng, JOTA 2001; Beck, SIAM J. Optim. 2015), so the
    prox-gradient residual is bounded by a constant times the sweep
    increment ||(L, S) - (L_0, S_0)||_F. Step k starts from step k-1's
    blocks and sweeps until the increment is <= ``tol`` or nonfinite, or
    for ``SEPARATION_MAX_SWEEPS`` sweeps. The blocks then face
    ``offline_optimum``'s test: their prox-gradient point p at step 1/L,
    under the stream's exact SVD-based prox, must have mapping norm <=
    ``tol``; p is kept. A finite candidate that fails it (near the
    rounding floor) is finished by ``prox.prox_gradient`` from there, at
    step 1/L within the step's remaining budget. Returns (optima,
    residuals); raises OptimumError at a nonfinite candidate residual (or
    an SVD or eigensolver failure), or when sweeps and iterations run out.
    """
    T, rows, cols = M.shape
    optima = np.zeros((T, stream.dim))
    residuals = np.zeros(T)
    L = S = np.zeros((rows, cols))
    shrink_L, shrink_S = 1.0 + cfg.mu_L, 1.0 + cfg.mu_S
    (_, nuclear), (_, l1) = stream.rule.blocks
    tau_L = 0.5 / shrink_L * nuclear.weight  # rounded as nuclear.apply
    for k in range(1, T + 1):
        Mk = M[k - 1]
        kernel = (functools.partial(stream.gradient, k - 1), stream.rule,
                  stream.domain)
        h = 1.0 / float(stream.smoothness[k - 1])
        try:
            for sweep in range(1, SEPARATION_MAX_SWEEPS + 1):
                L_prev, S_prev = L, S
                L = _gram_svt((Mk - S) / shrink_L, tau_L)
                S = l1.apply((Mk - L) / shrink_S, 0.5 / shrink_S)
                if not np.hypot(np.linalg.norm(L - L_prev),
                                np.linalg.norm(S - S_prev)) > tol:
                    break
            x = np.concatenate((L.ravel(), S.ravel()))
            p, residual = _prox_gradient_point(*kernel, x, h)
            if tol < residual < np.inf and sweep < SEPARATION_MAX_SWEEPS:
                p, residual, _, iterations = prox_gradient(
                    *kernel, x, h, tol, SEPARATION_MAX_SWEEPS - sweep)
                sweep += iterations
        except (SvdError, np.linalg.LinAlgError) as exc:
            # LAPACK's SVD and eigensolver refuse a nonfinite matrix
            raise OptimumError(np.nan, tol, sweep) from exc
        if not residual <= tol:
            raise OptimumError(residual, tol, sweep)
        optima[k - 1], residuals[k - 1] = p, residual
    return optima, residuals


def separation_blocks(trace_row: np.ndarray, cfg: SeparationConfig):
    """Split one flat iterate into its (L, S) matrices."""
    m = cfg.window * cfg.frame_dim
    return (trace_row[:m].reshape(cfg.window, cfg.frame_dim),
            trace_row[m:].reshape(cfg.window, cfg.frame_dim))


def separation_f1(trace: RunTrace, truth, cfg: SeparationConfig) -> float:
    """Foreground support F1 of the last iterate's sparse block.

    The ridge term shrinks on-support entries by roughly 1 + mu_S, so the
    detection threshold is half the smallest planted magnitude after that
    shrinkage.
    """
    _, S_pred = separation_blocks(trace.iterates[-1], cfg)
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


def _write_snapshots(traces, vdirs, cfg: SeparationConfig, truth) -> None:
    """Each variant's (L, S) blocks every ``_SNAPSHOT_EVERY`` steps, one
    column per frame coordinate; the variants' snapshots of one step are
    written together (``runio.write_tables``)."""
    sdirs = [os.path.join(vdir, "snapshots") for vdir in vdirs]
    for sdir in sdirs:
        os.makedirs(sdir, exist_ok=True)
    header = [f"pixel_{j}" for j in range(cfg.frame_dim)]
    for k in range(_SNAPSHOT_EVERY, traces[0].horizon + 1, _SNAPSHOT_EVERY):
        blocks = zip(*(separation_blocks(trace.iterates[k - 1], cfg)
                       for trace in traces))  # (L of each, S of each)
        for name, mats in zip("LS", blocks):
            write_tables([os.path.join(sdir, f"{name}_{k:04d}.csv")
                          for sdir in sdirs], header, [[m] for m in mats])


def run_example2(cfg: SeparationConfig, out_dir: Optional[str] = None,
                 variants=("exact",),
                 optimum_tol: float = SEPARATION_OPTIMUM_TOL):
    """Play the separation stream (``play``), the exact variant by default:
    the (L, S) pair is one flat block variable, and the optima come from
    ``separation_optima``. Returns a dict keyed by variant, as
    ``run_example1`` does; ``generate_separation(cfg)[1]`` is the truth.
    """
    return play(EXPERIMENTS["example2"], cfg, None, out_dir, variants,
                optimum_tol)


#: the built-in experiments, by the name ``ompd run --experiment`` takes
EXPERIMENTS = {
    "example1": Experiment(
        section="example1", config=GaussMarkovConfig,
        step_size="step_size", optimum_tol=OPTIMUM_TOL_DEFAULT,
        domain_dim="n_coeffs",
        stream=lambda cfg, domain: generate_gauss_markov(cfg, domain),
        optima=_gauss_markov_optima,
        tables=lambda traces, vdirs, cfg, truth: _write_coefficients_csv(
            truth["a_true"], [trace.iterates for trace in traces],
            *(os.path.join(vdir, "coefficients.csv") for vdir in vdirs))),
    "example2": Experiment(
        section="example2", config=SeparationConfig,
        step_size="alpha_L", optimum_tol=SEPARATION_OPTIMUM_TOL,
        domain_dim=None,
        stream=lambda cfg, domain: generate_separation(cfg),
        optima=lambda stream, truth, cfg, tol: separation_optima(
            stream, truth["M"], cfg, tol=tol)[0],
        tables=lambda *args: _write_snapshots(*args)),
}
# custom is example1 read from a [custom] section
EXPERIMENTS["custom"] = EXPERIMENTS["example1"]
