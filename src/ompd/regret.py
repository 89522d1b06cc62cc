"""Dynamic regret, per-step offline optima, and regret bound evaluation.

The central objects are the accumulators of the run:

    s_k       = ||x_k* - x_{k-1}*||  (optimum drift; s_1 = 0 under the
                convention x_0* := x_1*, and s_{T+1} = 0)
    Sigma     = sum s_k              SigmaBar = sum s_k^2
    E         = sum ||e_k||          EBar     = sum ||e_k||^2
    P         = sum eps_k            PBar     = sum eps_k^2

plus the regime constant D (2B on the whole space; on bounded domains
2B + max_k ||grad g_k(x_{k-1}) + e_k + grad V(y_k, x_{k-1})/lam||), the
start cost Z0 = (V(x_0*, x_0) + G s_1 ||x_0* - x_0||) / lam, and the
recursion sequences

    S_i   = (2 lam / sigma) Z0 + (2 lam D / sigma) sum_{k<=i} eps_k
            + (2 G / sigma - 1) sum_{k<=i} s_k^2
    tau_i = (2 lam / sigma) ||e_i|| + (2 G / sigma) s_{i+1}
            + (2 G / sigma) eps_i.

``theorem_rhs`` evaluates, at every prefix horizon T', the certified
upper bound on R_{T'}:

    bounded domain:
        V(x_0*, x_0)/lam + R G s_1 / lam + D P + (G - sigma/2) SigmaBar/lam
        + R * C
    whole space:
        Z0 + D P + (G - sigma/2) SigmaBar / lam
        + (sum tau + sqrt(S)) * C

where C = E + (G/lam) (sum_{t=2..T'} s_t + P) is the error-coefficient
sum after reindexing (the prefix application sets s_{T'+1} = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bregman import DistanceGenerator, divergence
from .errors import (MissingOptimaError, OptimumError, RegimeMismatchError)
from .losses import CompositeLossStep, Domain, ProblemStream
# composed_prox stays importable here: perfbench's tracer test wraps it
from .prox import composed_prox, prox_gradient  # noqa: F401
from .solver import RunTrace

OPTIMUM_TOL_DEFAULT = 1e-9
OPTIMUM_MAX_ITERS = 10 ** 6

REGIMES = ("bounded", "whole_space")


def offline_optimum(step: CompositeLossStep, domain: Domain,
                    tol: float = OPTIMUM_TOL_DEFAULT,
                    max_iters: int = OPTIMUM_MAX_ITERS,
                    x0: Optional[np.ndarray] = None):
    """Minimize one composite step over the domain.

    ``prox.prox_gradient`` at step 1/L of the declared smoothness (1 if
    L <= 0) until the mapping norm is below ``tol``. Returns (x_star,
    f_star); raises OptimumError with the achieved residual when the
    budget runs out or the iteration diverges (an under-declared L).
    """
    x = np.zeros(step.dim) if x0 is None else np.array(x0, dtype=float)
    L = step.smoothness_constant
    x_star, residual, converged = prox_gradient(
        step.smooth_gradient, step.prox_handle, domain, domain.project(x),
        1.0 / L if L > 0 else 1.0, tol, max_iters)
    if not converged:
        raise OptimumError(residual, tol, max_iters)
    return x_star, step.total_value(x_star)


def stream_optima(stream: ProblemStream, tol: float = OPTIMUM_TOL_DEFAULT):
    """Per-step optima of a whole stream, each warm-started at the last."""
    xs = np.zeros((stream.horizon, stream.dim))
    fs = np.zeros(stream.horizon)
    guess = None
    for k in range(1, stream.horizon + 1):
        xs[k - 1], fs[k - 1] = offline_optimum(
            stream.step_at(k), stream.domain, tol=tol, x0=guess)
        guess = xs[k - 1]
    return xs, fs


def fill_optima(trace: RunTrace, stream: ProblemStream,
                tol: float = OPTIMUM_TOL_DEFAULT,
                optima: Optional[np.ndarray] = None,
                f_star: Optional[np.ndarray] = None) -> RunTrace:
    """Attach per-step optima to a trace, computing them unless provided."""
    if optima is None:
        optima, f_star = stream_optima(stream, tol=tol)
    trace.optima = np.asarray(optima, dtype=float)
    if f_star is None:
        f_star = np.array([stream.step_at(k).total_value(trace.optima[k - 1])
                           for k in range(1, trace.horizon + 1)])
    trace.f_star = np.asarray(f_star, dtype=float)
    trace.optimum_tolerance = tol
    return trace


def dynamic_regret(trace: RunTrace) -> np.ndarray:
    """Cumulative played-minus-optimal loss, one entry per horizon prefix."""
    if not trace.has_optima():
        raise MissingOptimaError("fill_optima before computing regret")
    return np.cumsum(trace.f_played - trace.f_star)


@dataclass
class BoundLedger:
    """Accumulators for the regret bound, full horizon.

    ``s`` is 1-based with s[0] unused: s[k] for k = 1..T is the optimum
    drift and s[T+1] = 0. ``S_seq[i]`` holds S_i for i = 0..T, and
    ``tau_seq`` is 1-based like ``s``.
    """

    s: np.ndarray
    Sigma: float
    SigmaBar: float
    E: float
    EBar: float
    P: float
    PBar: float
    D: float
    Z0: float
    S_seq: np.ndarray
    tau_seq: np.ndarray
    lam: float
    sigma_omega: float
    g_omega: float
    domain_kind: str
    diameter: Optional[float]


def ledger_from_trace(trace: RunTrace, gen: DistanceGenerator, lam: float,
                      domain: Domain) -> BoundLedger:
    """Fold one completed trace into the bound accumulators."""
    if not trace.has_optima():
        raise MissingOptimaError("fill_optima before building the ledger")
    T = trace.horizon
    opt = trace.optima
    s = np.zeros(T + 2)
    if T >= 2:
        s[2:T + 1] = np.linalg.norm(np.diff(opt, axis=0), axis=1)
    # x_0* := x_1* convention: s[1] = 0, s[T+1] = 0 by definition.
    sigma, G = gen.sigma_omega, gen.g_omega
    e = trace.grad_error_norms
    eps = trace.eps
    x0_star = opt[0]
    Z0 = (divergence(gen, x0_star, trace.x0)
          + G * s[1] * float(np.linalg.norm(x0_star - trace.x0))) / lam
    B = float(np.max(trace.reg_lipschitz)) if T else 0.0
    if domain.is_bounded:
        D = 2.0 * B + float(np.max(trace.q_norms)) if T else 2.0 * B
    else:
        D = 2.0 * B
    S_seq = np.zeros(T + 1)
    S_seq[0] = (2.0 * lam / sigma) * Z0
    incr = (2.0 * lam * D / sigma) * eps + (2.0 * G / sigma - 1.0) * s[1:T + 1] ** 2
    S_seq[1:] = S_seq[0] + np.cumsum(incr)
    tau_seq = np.zeros(T + 1)
    tau_seq[1:] = ((2.0 * lam / sigma) * e
                   + (2.0 * G / sigma) * s[2:T + 2]
                   + (2.0 * G / sigma) * eps)
    return BoundLedger(
        s=s[:T + 2], Sigma=float(np.sum(s[1:T + 1])),
        SigmaBar=float(np.sum(s[1:T + 1] ** 2)),
        E=float(np.sum(e)), EBar=float(np.sum(e ** 2)),
        P=float(np.sum(eps)), PBar=float(np.sum(eps ** 2)),
        D=D, Z0=Z0, S_seq=S_seq, tau_seq=tau_seq, lam=lam,
        sigma_omega=sigma, g_omega=G, domain_kind=domain.kind,
        diameter=domain.diameter)


def recursion_bound(S_seq, tau_seq, i: int) -> float:
    """Upper bound on u_i for u_i^2 <= S_i + sum_{k<=i} tau_k u_k.

    S_seq is indexed 0..T (S_0 included) and tau_seq 1-based with index 0
    unused, matching the ledger layout.
    """
    S_seq = np.asarray(S_seq, dtype=float)
    tau_seq = np.asarray(tau_seq, dtype=float)
    if np.any(np.diff(S_seq) < -1e-12):
        raise ValueError("S_seq must be nondecreasing")
    if np.any(tau_seq < -1e-12):
        raise ValueError("tau_seq must be nonnegative")
    if not 1 <= i < len(S_seq):
        raise ValueError(f"index {i} outside 1..{len(S_seq) - 1}")
    half_tau = 0.5 * float(np.sum(tau_seq[1:i + 1]))
    return half_tau + float(np.sqrt(S_seq[i] + half_tau ** 2))


def theorem_rhs(ledger: BoundLedger, trace: RunTrace,
                regime: str) -> np.ndarray:
    """Certified regret upper bound at every prefix horizon T' = 1..T.

    Prefix values use cumulative sums of the realized sequences with the
    horizon-T' convention s_{T'+1} = 0; the constant D is the full-horizon
    one, which only enlarges earlier prefixes (D is a running maximum).
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if regime == "bounded" and ledger.domain_kind != "bounded":
        raise RegimeMismatchError("bounded regime on an unbounded domain")
    if regime == "whole_space" and ledger.domain_kind != "whole_space":
        raise RegimeMismatchError("whole-space regime on a bounded domain")
    T = trace.horizon
    lam, sigma, G = ledger.lam, ledger.sigma_omega, ledger.g_omega
    s = ledger.s
    E = np.cumsum(trace.grad_error_norms)
    P = np.cumsum(trace.eps)
    SigmaBar = np.cumsum(s[1:T + 1] ** 2)
    drift = np.concatenate(([0.0], np.cumsum(s[2:T + 1])))  # sum_{t=2..T'} s_t
    C = E + (G / lam) * (drift + P)
    curvature = (G - 0.5 * sigma) / lam * SigmaBar
    if regime == "bounded":
        R = ledger.diameter
        start = divergence_start(ledger, trace) + R * G * s[1] / lam
        return start + ledger.D * P + curvature + R * C
    tau_sum = (2.0 * lam / sigma) * C
    S_pref = ((2.0 * lam / sigma) * ledger.Z0
              + (2.0 * lam * ledger.D / sigma) * P
              + (2.0 * G / sigma - 1.0) * SigmaBar)
    return ledger.Z0 + ledger.D * P + curvature + (tau_sum + np.sqrt(S_pref)) * C


def divergence_start(ledger: BoundLedger, trace: RunTrace) -> float:
    # V(x_0*, x_0)/lam isolated from Z0 (they coincide when s_1 = 0).
    return ledger.Z0 - ledger.g_omega * ledger.s[1] * float(
        np.linalg.norm(trace.optima[0] - trace.x0)) / ledger.lam


BOUND_CSV_HEADER = "T,R_T,RHS_T,Sigma_T,SigmaBar_T,E_T,P_T,margin"


def write_bound_csv(trace: RunTrace, ledger: BoundLedger, rhs: np.ndarray,
                    path) -> None:
    """Prefix ledger and bound values, one row per horizon."""
    R = dynamic_regret(trace)
    T = trace.horizon
    s = ledger.s
    Sigma = np.cumsum(s[1:T + 1])
    SigmaBar = np.cumsum(s[1:T + 1] ** 2)
    E = np.cumsum(trace.grad_error_norms)
    P = np.cumsum(trace.eps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BOUND_CSV_HEADER + "\n")
        for i in range(T):
            row = (R[i], rhs[i], Sigma[i], SigmaBar[i], E[i], P[i],
                   rhs[i] - R[i])
            fh.write(f"{i + 1}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def certified_margin(trace: RunTrace, ledger: BoundLedger,
                     regime: str, tol_per_step: float = 1e-6) -> float:
    """Worst slack of R_{T'} <= RHS_{T'} + tol*T'; nonnegative means pass."""
    R = dynamic_regret(trace)
    rhs = theorem_rhs(ledger, trace, regime)
    horizons = np.arange(1, trace.horizon + 1)
    return float(np.min(rhs + tol_per_step * horizons - R))
