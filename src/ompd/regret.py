"""Dynamic regret, per-step offline optima, and regret bound evaluation.

The bound is built from sums over the run, each formed at every prefix
horizon T' by ``ledger_from_trace``, and nowhere else:

    s_k       = ||x_k* - x_{k-1}*||  (optimum drift; s_1 = 0 under the
                convention x_0* := x_1*, and s_{T'+1} = 0)
    Sigma     = sum s_k              SigmaBar = sum s_k^2
    E         = sum ||e_k||          P        = sum eps_k

plus the regime constant D (2B on the whole space; on bounded domains
2B + max_k ||grad g_k(x_{k-1}) + e_k + grad V(y_k, x_{k-1})/lam||) and
the start cost Z0 = V(x_0*, x_0) / lam (its drift term G s_1 ||x_0* -
x_0|| vanishes with s_1).

``ledger_from_trace`` returns these with the prefix regret, under ``R``,
and the four terms of the certified bound on R_{T'} and, under ``RHS``,
their left-to-right sum (``RHS_TERMS``):

    Z0 + D P + (G - sigma/2) SigmaBar / lam + error,

where error = R * C on a bounded domain of diameter R (its start term
R G s_1 / lam vanishes with s_1) and (sum tau + sqrt(S)) * C on the
whole space. C = E + (G/lam) (Sigma + P) is the error-coefficient sum
after reindexing (the prefix application sets s_{T'+1} = 0, and s_1 = 0
makes sum_{t=2..T'} s_t = Sigma), and S and sum tau are the prefix-T'
values of the recursion sequences

    S_i   = (2 lam / sigma) Z0 + (2 lam D / sigma) sum_{k<=i} eps_k
            + (2 G / sigma - 1) sum_{k<=i} s_k^2
    tau_i = (2 lam / sigma) ||e_i|| + (2 G / sigma) s_{i+1}
            + (2 G / sigma) eps_i,

so that sum_{i<=T'} tau_i = (2 lam / sigma) C. bound.csv holds the four
sums, not the terms: T, R_T, RHS_T, Sigma_T, SigmaBar_T, E_T, P_T, margin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bregman import DistanceGenerator, divergence
from .errors import (MissingOptimaError, OptimumError, RegimeMismatchError)
from .losses import CompositeLossStep, Domain, ProblemStream
# composed_prox stays importable here: perfbench's tracer test wraps it
from .prox import composed_prox, prox_gradient  # noqa: F401
from .runio import RunTrace, one_per_path, write_tables

OPTIMUM_TOL_DEFAULT = 1e-9
#: iteration budget of one ``offline_optimum`` call
OPTIMUM_MAX_ITERS = 10 ** 6

REGIMES = ("bounded", "whole_space")
RHS_TERMS = ("Z0", "DP", "curvature", "error")


def offline_optimum(step: CompositeLossStep, domain: Domain,
                    tol: float = OPTIMUM_TOL_DEFAULT,
                    x0: Optional[np.ndarray] = None):
    """Minimize one composite step over the domain.

    ``prox.prox_gradient`` at step 1/L of the declared smoothness (1 if
    L <= 0) until the mapping norm is below ``tol``, for at most
    ``OPTIMUM_MAX_ITERS`` iterations. Returns (x_star, f_star); raises
    OptimumError with the achieved residual when the budget runs out or
    the iteration diverges (an under-declared L).
    """
    x = np.zeros(step.dim) if x0 is None else np.array(x0, dtype=float)
    L = step.smoothness_constant
    x_star, residual, converged, iterations = prox_gradient(
        step.smooth_gradient, step.prox_handle, domain, domain.project(x),
        1.0 / L if L > 0 else 1.0, tol, OPTIMUM_MAX_ITERS)
    if not converged:
        raise OptimumError(residual, tol, iterations)
    return x_star, step.total_value(x_star)


def stream_optima(stream: ProblemStream, tol: float = OPTIMUM_TOL_DEFAULT):
    """Per-step optima of a whole stream, each warm-started at the last."""
    xs = np.zeros((stream.horizon, stream.dim))
    for k in range(1, stream.horizon + 1):  # xs[-1] is still 0 at k = 1
        xs[k - 1], _ = offline_optimum(
            stream.step_at(k), stream.domain, tol=tol, x0=xs[k - 2])
    return xs


def fill_optima(trace: RunTrace, stream: ProblemStream,
                optima: np.ndarray) -> RunTrace:
    """Attach per-step optima (e.g. ``stream_optima``'s) and f_k at them."""
    trace.optima = np.asarray(optima, dtype=float)
    trace.f_star = stream.total_values(trace.optima[:trace.horizon])
    return trace


def dynamic_regret(trace: RunTrace) -> np.ndarray:
    """Cumulative played-minus-optimal loss, one entry per horizon prefix."""
    if not trace.has_optima():
        raise MissingOptimaError("fill_optima before computing regret")
    return np.cumsum(trace.f_played - trace.f_star)


def ledger_from_trace(trace: RunTrace, gen: DistanceGenerator, lam: float,
                      domain: Domain) -> dict:
    """The certified bound of one completed trace (module docstring).

    Returns named arrays with one entry per prefix T' = 1..T: the regret
    ``R`` (``dynamic_regret``), ``Sigma``, ``SigmaBar``, ``E``, ``P``, the
    ``RHS_TERMS`` in the domain's regime and their sum ``RHS``, with the
    horizon-T' convention s_{T'+1} = 0 and the full-horizon D, which only
    enlarges earlier prefixes (a running max). Also the drift ``s`` (s_k
    at index k - 1), the scalar ``D`` and the domain's ``kind``. D P and
    the recursion's (2 lam D / sigma) P are 0 wherever P is: a D that
    overflowed to inf adds nothing at a prefix without prox error.
    """
    if not trace.has_optima():
        raise MissingOptimaError("fill_optima before building the ledger")
    T = trace.horizon
    opt = trace.optima
    s = np.zeros(T)  # s_1 = 0 under the x_0* := x_1* convention
    if T >= 2:
        s[1:] = np.linalg.norm(np.diff(opt, axis=0), axis=1)
    D = 2.0 * float(np.max(trace.reg_lipschitz))
    if domain.kind == "bounded":
        D += float(np.max(trace.q_norms))
    Z0 = divergence(gen, opt[0], trace.x0) / lam
    sigma, G = gen.sigma_omega, gen.g_omega
    Sigma, SigmaBar = np.cumsum(s), np.cumsum(s ** 2)
    E, P = np.cumsum(trace.grad_error_norms), np.cumsum(trace.eps)

    def times_p(c):  # c P, 0 where P is: an inf c adds no NaN there
        return np.multiply(c, P, out=np.zeros(T), where=P != 0.0)

    C = E + (G / lam) * (Sigma + P)
    if domain.kind == "bounded":
        error = domain.diameter * C
    else:
        S = ((2.0 * lam / sigma) * Z0 + times_p(2.0 * lam * D / sigma)
             + (2.0 * G / sigma - 1.0) * SigmaBar)
        error = ((2.0 * lam / sigma) * C + np.sqrt(S)) * C
    table = {"R": dynamic_regret(trace), "s": s, "D": D, "kind": domain.kind,
             "Sigma": Sigma, "SigmaBar": SigmaBar, "E": E, "P": P,
             "Z0": np.full(T, Z0), "DP": times_p(D),
             "curvature": (G - 0.5 * sigma) / lam * SigmaBar, "error": error}
    table["RHS"] = sum(map(table.get, RHS_TERMS[1:]), table[RHS_TERMS[0]])
    return table


def recursion_bound(S, tau, i: int) -> float:
    """Upper bound on u_i for u_i^2 <= S_i + sum_{k<=i} tau_k u_k.

    S is indexed 0..T (S_0 included) and tau 1-based with index 0 unused.
    """
    S = np.asarray(S, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(np.diff(S) < -1e-12):
        raise ValueError("S must be nondecreasing")
    if np.any(tau < -1e-12):
        raise ValueError("tau must be nonnegative")
    if not 1 <= i < len(S):
        raise ValueError(f"index {i} outside 1..{len(S) - 1}")
    half_tau = 0.5 * float(np.sum(tau[1:i + 1]))
    return half_tau + float(np.sqrt(S[i] + half_tau ** 2))


def theorem_rhs(ledger: dict, trace: RunTrace, regime: str) -> np.ndarray:
    """``ledger["RHS"]`` of a ``ledger_from_trace`` table, once ``regime``
    is checked against its domain. ``trace`` is unread: the signature stays
    for perfbench's mirror_box, its last caller, and ROADMAP item 14
    deletes this function after item 11."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if regime != ledger["kind"]:
        raise RegimeMismatchError(f"{regime} regime on a "
                                  f"{ledger['kind']} domain")
    return ledger["RHS"]


BOUND_CSV_HEADER = "T,R_T,RHS_T,Sigma_T,SigmaBar_T,E_T,P_T,margin".split(",")


def write_bound_csv(tables, *paths) -> None:
    """Prefix regret and bound values, one row per horizon. ``tables``
    (``ledger_from_trace``'s) is one table, or a list of one per path; the
    files are written together (``runio.write_tables``)."""
    def columns(t):
        R, rhs = t["R"], t["RHS"]
        return [np.arange(1, len(R) + 1), R, rhs, t["Sigma"], t["SigmaBar"],
                t["E"], t["P"], rhs - R]

    write_tables(paths, BOUND_CSV_HEADER,
                 [columns(t) for t in one_per_path(tables, paths)])


def certified_margin(regret, rhs) -> float:
    """min_{T'} RHS_{T'} - R_{T'} of the prefix curves, with no allowance,
    so it scales with them; nonnegative means pass."""
    return float(np.min(rhs - regret))
