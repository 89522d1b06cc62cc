"""The online loop driving the inexact mirror step across a stream.

``run`` plays the iteration

    x_k  ~  argmin over the domain of
            h_k(x) + <grad g_k(x_{k-1}) + e_k, x> + V(x, x_{k-1}) / lam

and records everything the regret ledger needs: realized error norms,
realized prox bounds eps_k, played loss values, and the per-step norm of
grad g_k(x_{k-1}) + e_k + grad V(y_k, x_{k-1}) / lam (used by the
bounded-domain constant). The loop itself runs only the recursion; the
losses and norms are computed after each block of steps, in array calls
over the block, so ``step_seconds`` times the recursion alone. The
gradient is always evaluated at the played point x_{k-1}, never at
y_{k-1}. Per-step optima are filled later by the regret module. Both
loops read only the stream's declarations, whose L_k and B_k the stream
checked when it was built.

``run_proximal_gradient`` is a deliberately self-contained Euclidean
baseline, kept free of the generic mirror machinery so the two paths can
be compared iterate by iterate.
"""

from __future__ import annotations

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


def _empty_trace(stream: ProblemStream, config: SolverConfig,
                 sigma: float) -> RunTrace:
    """The unplayed trace holding its own copy of the stream's L_k and
    B_k, once ``check_step_size`` passes at max_k L_k and ``sigma``."""
    T, n = stream.horizon, stream.dim
    check_step_size(config.step_size, np.max(stream.smoothness), sigma)
    return RunTrace(
        horizon=T, dim=n,
        x0=np.array(config.initial_point, dtype=float),
        iterates=np.zeros((T, n)), grad_error_norms=np.zeros(T),
        eps=np.zeros(T), f_played=np.zeros(T), q_norms=np.zeros(T),
        smoothness=stream.smoothness.copy(),
        reg_lipschitz=stream.reg_lipschitz.copy(),
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

    The loop reads the stream's declarations only, and builds the solver
    of its one ``rule`` (``subproblem_solver``) once. Each block of
    ``_BLOCK_ROWS`` steps takes its error draws from ``model.draws``, bit
    for bit the per-step draws; then each step runs the recursion alone,
    which ``step_seconds`` times: one gradient plus its error and one
    ``inexact_mirror_prox`` call, into block buffers. After each block its
    played losses (``stream.total_values``) and error and q norms are
    filled in array calls, bit for bit the per-step values, so the scratch
    memory does not grow with the horizon.

    Raises ValueError or StepSizeError before any step (``_empty_trace``)
    unless 0 < step_size <= 2 sigma_omega / max_k L_k. Raises
    SolverRunError if a subproblem fails mid-run, with the fully filled
    trace of the completed steps attached.
    """
    trace = _empty_trace(stream, config, config.generator.sigma_omega)
    T, n = stream.horizon, stream.dim
    x = np.array(config.initial_point, dtype=float)
    if x.shape != (n,):
        raise ValueError("initial point dimension does not match the stream")
    rows = min(T, _BLOCK_ROWS)
    grads, ys = np.empty((rows, n)), np.empty((rows, n))
    domain, gradient = stream.domain, stream.gradient
    solve = subproblem_solver(stream.rule, config.generator, domain,
                              config.step_size, config.inner_tolerance)
    for lo in range(0, T, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, T)
        errors, offsets, radii = model.draws(lo, hi, n)
        for i in range(lo, hi):
            j = i - lo
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

    Euclidean geometry is forced regardless of config.generator, and the
    prox is its own inline formulas (``_baseline_prox``); error draws come
    from the same model keys as ``run``, one ``model.draws`` block of
    ``_BLOCK_ROWS`` steps at a time, so with the Euclidean generator the
    two trajectories should agree to machine precision. Its step-size rule
    is ``check_step_size`` at sigma_omega = 1.
    """
    lam = config.step_size
    trace = _empty_trace(stream, config, 1.0)
    domain, rule, gradient = stream.domain, stream.rule, stream.gradient
    x = np.array(config.initial_point, dtype=float)
    for i in range(stream.horizon):
        j = i % _BLOCK_ROWS
        if j == 0:
            errors, offsets, radii = model.draws(
                i, min(i + _BLOCK_ROWS, stream.horizon), stream.dim)
        t0 = time.perf_counter()
        e = errors[j]
        grad = gradient(i, x) + e
        v = x - lam * grad
        if domain.name == "simplex" and getattr(rule, "kind", None) == "l1":
            y = domain.project(v)  # l1 is constant on the simplex
        else:
            y = _baseline_prox(rule, v, lam)
            if domain.kind != "whole_space":
                y = domain.project(y)
        radius = radii[j]
        x_new = domain.project(y + offsets[j]) if radius > 0.0 else y
        trace.iterates[i] = x_new
        trace.grad_error_norms[i] = np.linalg.norm(e)
        trace.eps[i] = radius
        trace.q_norms[i] = np.linalg.norm(grad + (y - x) / lam)
        trace.step_seconds[i] = time.perf_counter() - t0
        x = x_new
    trace.f_played[:] = stream.total_values(trace.iterates)
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
