"""The online loop driving the inexact mirror step across a stream.

``run`` plays the iteration

    x_k  ~  argmin over the domain of
            h_k(x) + <grad g_k(x_{k-1}) + e_k, x> + V(x, x_{k-1}) / lam

recording everything the regret ledger needs: realized error norms,
realized prox bounds eps_k, played loss values, and the per-step norm of
grad g_k(x_{k-1}) + e_k + grad V(y_k, x_{k-1}) / lam (used by the
bounded-domain constant). The gradient is always evaluated at the played
point x_{k-1}, never at y_{k-1}. Per-step optima are filled later by the
regret module.

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
from .prox import SubproblemSpec, inexact_mirror_prox, INNER_TOL_DEFAULT
from .runio import TRACE_CSV_HEADER, RunTrace, write_table


@dataclass(frozen=True)
class SolverConfig:
    step_size: float
    generator: DistanceGenerator
    initial_point: np.ndarray
    inner_tolerance: float = INNER_TOL_DEFAULT


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


def _check_step_rule(config: SolverConfig, steps) -> None:
    L = max(s.smoothness_constant for s in steps)
    limit = 2.0 * config.generator.sigma_omega / L
    if config.step_size > limit:
        raise StepSizeError(config.step_size, L, config.generator.sigma_omega)


def run(stream: ProblemStream, config: SolverConfig,
        model: ErrorModel) -> RunTrace:
    """Drive the inexact mirror step over the full stream.

    Raises SolverRunError with the partial trace attached if a subproblem
    fails mid-run; raises StepSizeError up front when the step-size rule
    is violated. The model's draws are seeded for the whole horizon once
    (``ErrorModel.for_horizon``) and equal its per-step draws bit for bit;
    a draw of zero std, which would add nothing, is skipped.
    """
    steps = stream.steps()
    _check_step_rule(config, steps)
    trace = _empty_trace(stream, config)
    gen = config.generator
    lam = config.step_size
    x = np.array(config.initial_point, dtype=float)
    if x.shape != (stream.dim,):
        raise ValueError("initial point dimension does not match the stream")
    model = model.for_horizon(stream.horizon)
    draws = model.gradient_std != 0.0
    for k, step in enumerate(steps, start=1):
        t0 = time.perf_counter()
        if draws:
            e = model.gradient_error(k, stream.dim)
            grad = step.smooth_gradient(x) + e
        else:  # adding the zero draw turned -0.0 into +0.0; so does this
            grad = step.smooth_gradient(x) + 0.0
        spec = SubproblemSpec(
            loss=step, gen=gen, anchor=x, noisy_grad=grad, step_size=lam,
            domain=stream.domain, inner_tolerance=config.inner_tolerance)
        try:
            x_new, y, eps_k = inexact_mirror_prox(spec, model, k)
        except OmpdError as exc:
            raise SolverRunError(
                f"subproblem failed at step {k}: {exc}",
                trace.truncated(k - 1)) from exc
        i = k - 1
        trace.iterates[i] = x_new
        if draws:
            trace.grad_error_norms[i] = np.linalg.norm(e)
        trace.eps[i] = eps_k
        trace.f_played[i] = step.total_value(x_new)
        trace.q_norms[i] = np.linalg.norm(
            grad + (gen.gradient(y) - gen.gradient(x)) / lam)
        trace.smoothness[i] = step.smoothness_constant
        trace.reg_lipschitz[i] = step.regularizer_lipschitz
        trace.step_seconds[i] = time.perf_counter() - t0
        x = x_new
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


def write_trace_csv(trace: RunTrace, path) -> None:
    """One row per step, 17 significant digits, header included."""
    if not trace.has_optima():
        raise MissingOptimaError("trace has no optima; run fill_optima first")
    inst = trace.f_played - trace.f_star
    dist = np.linalg.norm(trace.iterates - trace.optima, axis=1)
    write_table(path, TRACE_CSV_HEADER,
                [np.arange(1, trace.horizon + 1), trace.f_played,
                 trace.f_star, inst, trace.grad_error_norms, trace.eps, dist,
                 np.cumsum(inst)])
