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
are filled later by the regret module.

``run_proximal_gradient`` is a deliberately self-contained Euclidean
baseline, kept free of the generic mirror machinery so the two paths can
be compared iterate by iterate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bregman import DistanceGenerator
from .errors import (MissingOptimaError, OmpdError, SolverRunError,
                     StepSizeError)
from .losses import ErrorModel, ProblemStream
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


def _empty_trace(stream: ProblemStream, config: SolverConfig) -> RunTrace:
    T, n = stream.horizon, stream.dim
    return RunTrace(
        horizon=T, dim=n,
        x0=np.array(config.initial_point, dtype=float),
        iterates=np.zeros((T, n)), grad_error_norms=np.zeros(T),
        eps=np.zeros(T), f_played=np.zeros(T), q_norms=np.zeros(T),
        smoothness=np.zeros(T), reg_lipschitz=np.zeros(T),
        step_seconds=np.zeros(T), step_size=config.step_size,
        domain_kind=stream.domain.kind,
        domain_diameter=stream.domain.diameter)


def _record(trace: RunTrace, stream: ProblemStream, steps, config, lo: int,
            hi: int, grads: np.ndarray, ys: np.ndarray, errors) -> None:
    """Fill the losses and norms of steps lo+1..hi from one block's buffers.

    Buffer row j holds step lo+1+j. A row norm is the sqrt of a stacked
    ``matmul`` dot, which equals the row's ``np.linalg.norm`` bit for bit
    (``norm(axis=1)`` and ``einsum`` do not).
    """
    if hi == lo:
        return

    def row_norms(rows):
        return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])

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
    if errors is not None:
        trace.grad_error_norms[lo:hi] = row_norms(errors[:size])
    trace.f_played[lo:hi] = stream.total_values(xs[lo:hi], steps[lo:hi], lo)


def _solvers(steps, config: SolverConfig, domain) -> list:
    """Each step's ``subproblem_solver``, made once per distinct rule.

    Rules are told apart by identity, which ``steps`` keeps alive.
    """
    made = {}
    solvers = []
    for step in steps:
        rule = step.prox_handle
        solve = made.get(id(rule))
        if solve is None:
            solve = made[id(rule)] = subproblem_solver(
                rule, config.generator, domain, config.step_size,
                config.inner_tolerance)
        solvers.append(solve)
    return solvers


def run(stream: ProblemStream, config: SolverConfig, model: ErrorModel,
        steps=None) -> RunTrace:
    """Drive the inexact mirror step over the full stream.

    ``steps`` is ``stream.steps()``, built here unless the caller passes
    the list it built for several runs on one stream. The form of the
    subproblem solve is chosen before the loop, once for each distinct
    prox rule (``subproblem_solver``). The loop runs the recursion only:
    per step one gradient, the model's gradient draw (none at zero std),
    and one ``inexact_mirror_prox`` call with the solver of the step's
    rule, which also makes the prox draw. It keeps the noisy gradient,
    the draw and the prox point y_k in buffers of ``_BLOCK_ROWS`` steps;
    ``step_seconds`` times exactly that. After each block its played
    losses (``stream.total_values``) and error and q norms are filled in
    array calls, bit for bit the per-step values, so the scratch memory
    does not grow with the horizon.

    Raises ValueError or StepSizeError up front, once per run, unless
    0 < step_size <= 2 sigma_omega / max_k L_k. Raises SolverRunError if
    a subproblem fails mid-run, with the fully filled trace of the
    completed steps attached. The model's draws are seeded for the whole
    horizon once (``ErrorModel.for_horizon``) and equal its per-step
    draws bit for bit; a draw of zero std, which would add nothing, is
    skipped.
    """
    if steps is None:
        steps = stream.steps()
    elif len(steps) != stream.horizon:
        raise ValueError("steps do not cover the stream's horizon")
    check_step_size(config.step_size,
                    max(s.smoothness_constant for s in steps),
                    config.generator.sigma_omega)
    trace = _empty_trace(stream, config)
    trace.smoothness[:] = [s.smoothness_constant for s in steps]
    trace.reg_lipschitz[:] = [s.regularizer_lipschitz for s in steps]
    T, n = stream.horizon, stream.dim
    x = np.array(config.initial_point, dtype=float)
    if x.shape != (n,):
        raise ValueError("initial point dimension does not match the stream")
    model = model.for_horizon(T)
    rows = min(T, _BLOCK_ROWS)
    grads, ys = np.empty((rows, n)), np.empty((rows, n))
    errors = np.empty((rows, n)) if model.gradient_std != 0.0 else None
    domain = stream.domain
    solvers = _solvers(steps, config, domain)
    for lo in range(0, T, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, T)
        for i in range(lo, hi):
            step, solve, j = steps[i], solvers[i], i - lo
            t0 = time.perf_counter()
            if errors is not None:
                e = errors[j] = model.gradient_error(i + 1, n)
                grad = np.add(step.smooth_gradient(x), e, out=grads[j])
            else:  # adding the zero draw turned -0.0 into +0.0; so does this
                grad = np.add(step.smooth_gradient(x), 0.0, out=grads[j])
            try:
                x, ys[j], trace.eps[i] = inexact_mirror_prox(
                    solve, domain, x, grad, model, i + 1)
            except OmpdError as exc:
                _record(trace, stream, steps, config, lo, i, grads, ys, errors)
                raise SolverRunError(
                    f"subproblem failed at step {i + 1}: {exc}",
                    trace.truncated(i)) from exc
            trace.iterates[i] = x
            trace.step_seconds[i] = time.perf_counter() - t0
        _record(trace, stream, steps, config, lo, hi, grads, ys, errors)
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
    draws come from the same model keys as ``run``, so with the Euclidean
    generator the two trajectories should agree to machine precision.
    """
    steps = stream.steps()
    lam = config.step_size
    L = max(s.smoothness_constant for s in steps)
    if lam > 2.0 / L:
        raise StepSizeError(lam, L, 1.0)
    trace = _empty_trace(stream, config)
    domain = stream.domain
    x = np.array(config.initial_point, dtype=float)
    for k, step in enumerate(steps, start=1):
        t0 = time.perf_counter()
        e = model.gradient_error(k, stream.dim)
        grad = step.smooth_gradient(x) + e
        v = x - lam * grad
        if (domain.name == "simplex"
                and getattr(step.prox_handle, "kind", None) == "l1"):
            y = domain.project(v)  # l1 is constant on the simplex
        else:
            y = _baseline_prox(step.prox_handle, v, lam)
            if domain.kind != "whole_space":
                y = domain.project(y)
        offset, radius = model.prox_error(k, stream.dim)
        x_new = domain.project(y + offset) if radius > 0.0 else y
        i = k - 1
        trace.iterates[i] = x_new
        trace.grad_error_norms[i] = np.linalg.norm(e)
        trace.eps[i] = radius
        trace.f_played[i] = step.total_value(x_new)
        trace.q_norms[i] = np.linalg.norm(grad + (y - x) / lam)
        trace.smoothness[i] = step.smoothness_constant
        trace.reg_lipschitz[i] = step.regularizer_lipschitz
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
