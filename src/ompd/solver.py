"""The online loop driving the inexact mirror step across a stream.

``run`` plays the iteration

    x_k  ~  argmin over the domain of
            h_k(x) + <grad g_k(x_{k-1}) + e_k, x> + V(x, x_{k-1}) / lam

and records everything the regret ledger needs: realized error norms,
realized prox bounds eps_k, played loss values, and the per-step norm of
grad g_k(x_{k-1}) + e_k + grad V(y_k, x_{k-1}) / lam (used by the
bounded-domain constant). The loop itself runs only the recursion; the
losses and norms are computed after each block of steps, in array calls
over the block, so ``step_seconds`` times the recursion alone
(perfbench's per-step quantiles such as ``step_p50_us`` read lower than
when the loop also did the bookkeeping). The gradient is always
evaluated at the played point x_{k-1}, never at y_{k-1}. Per-step optima
are filled later by the regret module. Both loops read the declared L_k
and B_k in ``_empty_trace`` alone, which checks them before a step.

``run_proximal_gradient`` is a deliberately self-contained Euclidean
baseline, kept free of the generic mirror machinery so the two paths can
be compared iterate by iterate.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .bregman import DistanceGenerator
from .errors import MissingOptimaError, OmpdError, SolverRunError
from .losses import ErrorModel, ProblemStream, row_norms
from .prox import (INNER_TOL_DEFAULT, check_step_size, inexact_mirror_prox,
                   subproblem_solver)
from .runio import TRACE_CSV_HEADER, RunTrace, one_per_path, write_tables


@dataclass(frozen=True)
class SolverConfig:
    step_size: float
    generator: DistanceGenerator
    initial_point: np.ndarray
    inner_tolerance: float = INNER_TOL_DEFAULT


#: steps per block of the loop's buffers and bookkeeping
_BLOCK_ROWS = 512


def _declarations(stream: ProblemStream):
    """(gradient, rules, L, B) if all are declared, else from the steps."""
    declared = (stream.gradient, stream.rule, stream.smoothness,
                stream.reg_lipschitz)
    if all(d is not None for d in declared):
        return (declared[0], itertools.repeat(declared[1]), *declared[2:])
    steps = stream.steps()
    return (lambda i, x: steps[i].smooth_gradient(x),
            (step.prox_handle for step in steps),
            [s.smoothness_constant for s in steps],
            [s.regularizer_lipschitz for s in steps])


def _empty_trace(stream: ProblemStream, config: SolverConfig, L, B,
                 sigma: float) -> RunTrace:
    """The unplayed trace holding each step's declared L_k and B_k.

    Raises ValueError unless L and B hold one entry per step, or naming
    the first step whose L_k is NaN or < 0 or whose B_k is NaN, inf or < 0;
    then applies ``check_step_size`` at max_k L_k and ``sigma``."""
    T, n = stream.horizon, stream.dim
    L, B = np.array(L, dtype=float), np.array(B, dtype=float)
    if L.shape != (T,) or B.shape != (T,):
        raise ValueError(f"need one L_k and one B_k per step of {T}")
    ok = (L >= 0.0) & (B >= 0.0) & (B < np.inf)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise ValueError(f"step {k + 1} declares L_k = {L[k]} and B_k = "
                         f"{B[k]}; need L_k >= 0 and finite B_k >= 0")
    check_step_size(config.step_size, np.max(L), sigma)
    return RunTrace(
        horizon=T, dim=n,
        x0=np.array(config.initial_point, dtype=float),
        iterates=np.zeros((T, n)), grad_error_norms=np.zeros(T),
        eps=np.zeros(T), f_played=np.zeros(T), q_norms=np.zeros(T),
        smoothness=L, reg_lipschitz=B,
        step_seconds=np.zeros(T), step_size=config.step_size,
        domain_kind=stream.domain.kind,
        domain_diameter=stream.domain.diameter)


def _record(trace: RunTrace, stream: ProblemStream, config, lo: int, hi: int,
            grads: np.ndarray, ys: np.ndarray, errors: np.ndarray) -> None:
    """Fill the losses and norms of steps lo+1..hi from one block's buffers.

    Buffer row j holds step lo+1+j; the norms are ``losses.row_norms``,
    the rows' ``np.linalg.norm`` bit for bit.
    """
    if hi == lo:
        return
    gen = config.generator
    xs = trace.iterates
    size = hi - lo
    # grad + (grad w(y_k) - grad w(x_{k-1})) / lam, the loop's order
    prev = (xs[lo - 1:hi - 1] if lo
            else np.concatenate((trace.x0[None], xs[:hi - 1])))
    q = gen.gradient(ys[:size]) - gen.gradient(prev)
    q /= config.step_size
    q += grads[:size]
    trace.q_norms[lo:hi] = row_norms(q)
    trace.grad_error_norms[lo:hi] = row_norms(errors[:size])
    trace.f_played[lo:hi] = stream.total_values(xs[lo:hi], lo)


def run(stream: ProblemStream, config: SolverConfig,
        model: ErrorModel) -> RunTrace:
    """Drive the inexact mirror step over the full stream.

    One loop plays every stream from its ``_declarations``, so a built-in
    stream builds no step. A step's solver (``subproblem_solver``) is built
    only when its prox rule is not the previous step's. Each block of
    ``_BLOCK_ROWS`` steps first takes its error draws from ``model.draws``,
    bit for bit the per-step draws; the loop then runs the recursion only:
    per step one gradient plus its error, and one ``inexact_mirror_prox``
    call with the solver of the step's rule and the step's prox offset. It
    keeps the noisy gradient and the prox point y_k in block buffers;
    ``step_seconds`` times exactly that, not the draws. After each block
    its played losses (``stream.total_values``) and error and q norms are
    filled in array calls, bit for bit the per-step values, so the scratch
    memory does not grow with the horizon.

    Raises ValueError or StepSizeError before any step (``_empty_trace``)
    on a bad declared L_k or B_k at any step, or unless 0 < step_size <=
    2 sigma_omega / max_k L_k. Raises SolverRunError if a subproblem fails
    mid-run, with the fully filled trace of the completed steps attached.
    """
    gradient, rules, L, B = _declarations(stream)
    trace = _empty_trace(stream, config, L, B, config.generator.sigma_omega)
    T, n = stream.horizon, stream.dim
    x = np.array(config.initial_point, dtype=float)
    if x.shape != (n,):
        raise ValueError("initial point dimension does not match the stream")
    rows = min(T, _BLOCK_ROWS)
    grads, ys = np.empty((rows, n)), np.empty((rows, n))
    domain, rule = stream.domain, None
    for lo in range(0, T, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, T)
        errors, offsets, radii = model.draws(lo, hi, n)
        for i, step_rule in zip(range(lo, hi), rules):
            j = i - lo
            if step_rule is not rule:
                rule = step_rule
                solve = subproblem_solver(rule, config.generator, domain,
                                          config.step_size,
                                          config.inner_tolerance)
            t0 = time.perf_counter()
            grad = np.add(gradient(i, x), errors[j], out=grads[j])
            try:
                x, ys[j], trace.eps[i] = inexact_mirror_prox(
                    solve, domain, x, grad, offsets[j], radii[j])
            except OmpdError as exc:
                _record(trace, stream, config, lo, i, grads, ys, errors)
                raise SolverRunError(
                    f"subproblem failed at step {i + 1}: {exc}",
                    trace.truncated(i)) from exc
            trace.iterates[i] = x
            trace.step_seconds[i] = time.perf_counter() - t0
        _record(trace, stream, config, lo, hi, grads, ys, errors)
    return trace


def _baseline_prox(rule, v, scale: float):
    # Inline formulas on purpose: this path is the independent baseline.
    kind = getattr(rule, "kind", "block")
    if kind == "zero":
        return v
    if kind == "l1":
        t = scale * rule.weight
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if kind == "nuclear":
        U, s, Vt = np.linalg.svd(v, full_matrices=False)
        return (U * np.maximum(s - scale * rule.weight, 0.0)) @ Vt
    if kind == "block":
        out = np.empty_like(v)
        offset = 0
        for shape, sub in rule.blocks:
            size = int(np.prod(shape))
            out[offset:offset + size] = _baseline_prox(
                sub, v[offset:offset + size].reshape(shape), scale).ravel()
            offset += size
        return out
    raise ValueError(f"unknown prox rule kind {kind!r}")


def run_proximal_gradient(stream: ProblemStream, config: SolverConfig,
                          model: ErrorModel) -> RunTrace:
    """Independently coded online proximal gradient baseline.

    Euclidean geometry is forced regardless of config.generator; error
    draws come from the same model keys as ``run``, one ``model.draws``
    block of ``_BLOCK_ROWS`` steps at a time, so with the Euclidean
    generator the two trajectories should agree to machine precision.
    Its step-size rule is ``check_step_size`` at sigma_omega = 1.
    """
    steps = stream.steps()
    lam = config.step_size
    trace = _empty_trace(stream, config,
                         [s.smoothness_constant for s in steps],
                         [s.regularizer_lipschitz for s in steps], 1.0)
    domain = stream.domain
    x = np.array(config.initial_point, dtype=float)
    for k, step in enumerate(steps, start=1):
        j = (k - 1) % _BLOCK_ROWS
        if j == 0:
            errors, offsets, radii = model.draws(
                k - 1, min(k - 1 + _BLOCK_ROWS, stream.horizon), stream.dim)
        t0 = time.perf_counter()
        e = errors[j]
        grad = step.smooth_gradient(x) + e
        v = x - lam * grad
        if (domain.name == "simplex"
                and getattr(step.prox_handle, "kind", None) == "l1"):
            y = domain.project(v)  # l1 is constant on the simplex
        else:
            y = _baseline_prox(step.prox_handle, v, lam)
            if domain.kind != "whole_space":
                y = domain.project(y)
        radius = radii[j]
        x_new = domain.project(y + offsets[j]) if radius > 0.0 else y
        i = k - 1
        trace.iterates[i] = x_new
        trace.grad_error_norms[i] = np.linalg.norm(e)
        trace.eps[i] = radius
        trace.f_played[i] = step.total_value(x_new)
        trace.q_norms[i] = np.linalg.norm(grad + (y - x) / lam)
        trace.step_seconds[i] = time.perf_counter() - t0
        x = x_new
    return trace


def write_trace_csv(traces, *paths) -> None:
    """One row per step, 17 significant digits, header included.

    ``traces`` is one trace, or a list of one per path; the files are
    written together (``runio.write_tables``).
    """
    traces = one_per_path(traces, paths)
    if not all(trace.has_optima() for trace in traces):
        raise MissingOptimaError("trace has no optima; run fill_optima first")

    def columns(trace):
        inst = trace.f_played - trace.f_star
        dist = np.linalg.norm(trace.iterates - trace.optima, axis=1)
        return [np.arange(1, trace.horizon + 1), trace.f_played, trace.f_star,
                inst, trace.grad_error_norms, trace.eps, dist, np.cumsum(inst)]

    write_tables(paths, TRACE_CSV_HEADER, [columns(t) for t in traces])
