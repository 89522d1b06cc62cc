"""Exact and inexact proximal/mirror subproblem solvers.

Each online step minimizes

    Phi(x) = h(x) + <c, x> + V(x, anchor) / step_size      over the domain,

where c is the (possibly noisy) gradient. For the Euclidean generator and
a closed-form prox rule the minimizer is the classical proximal step; for
other generators ``prox_gradient``, the one prox-gradient loop that the
offline oracle ``regret.offline_optimum`` also runs, drives the mapping
norm of Phi below ``inner_tolerance``. The inexactness wrapper then
perturbs the solution by a norm-bounded offset and reports an honest
eps_k for the ledger (offset radius plus the inner residual bound).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import DistanceGenerator, divergence
from .errors import (CompositionError, InnerSolverError, StepSizeError,
                     SvdError)
from .losses import CompositeLossStep, Domain, ErrorModel

INNER_TOL_DEFAULT = 1e-9
INNER_MAX_ITERS = 10_000
#: residual check cadence of prox_gradient and lasso_optima_batch
RESIDUAL_CHECK_EVERY = 10


def soft_threshold(y, lam: float):
    """Entrywise sign(y) * max(|y| - lam, 0); any shape."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def singular_value_threshold(Z, lam: float, svd=np.linalg.svd):
    """Shrink all singular values of Z by lam, flooring at zero.

    ``svd`` is an injected thin-SVD routine; the default is numpy's.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Z = np.asarray(Z, dtype=float)
    try:
        U, s, Vt = svd(Z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(Z.shape) from exc
    return (U * np.maximum(s - lam, 0.0)) @ Vt


@dataclass(frozen=True)
class ProxRule:
    """Exact prox map of one nonsmooth term.

    kind: "l1" (weight eta), "nuclear" (weight), "indicator" (a Domain),
    or "zero". ``apply(v, scale)`` returns the minimizer of
    h(u) + ||u - v||^2 / (2*scale) in the Euclidean geometry.
    """

    kind: str
    weight: float = 0.0
    domain: Domain | None = None

    def apply(self, v, scale: float):
        v = np.asarray(v, dtype=float)
        if self.kind == "zero":
            return v
        if self.kind == "l1":
            return soft_threshold(v, scale * self.weight)
        if self.kind == "nuclear":
            if v.ndim != 2:
                raise ValueError("nuclear prox expects a matrix")
            return singular_value_threshold(v, scale * self.weight)
        if self.kind == "indicator":
            return self.domain.project(v)
        raise ValueError(f"unknown prox rule kind {self.kind!r}")


def l1_rule(weight: float) -> ProxRule:
    return ProxRule(kind="l1", weight=float(weight))


def nuclear_rule(weight: float) -> ProxRule:
    return ProxRule(kind="nuclear", weight=float(weight))


def indicator_rule(domain: Domain) -> ProxRule:
    return ProxRule(kind="indicator", domain=domain)


def zero_rule() -> ProxRule:
    return ProxRule(kind="zero")


@dataclass(frozen=True)
class BlockRule:
    """Block-separable prox over a flat vector.

    ``blocks`` is a sequence of (shape, rule); the flat input is split in
    order, each chunk reshaped, proxed by its rule, and re-flattened.
    """

    blocks: tuple

    def apply(self, v, scale: float):
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        offset = 0
        for shape, rule in self.blocks:
            size = int(np.prod(shape))
            chunk = v[offset:offset + size].reshape(shape)
            out[offset:offset + size] = rule.apply(chunk, scale).ravel()
            offset += size
        if offset != v.size:
            raise ValueError("block shapes do not cover the input")
        return out


def block_rule(blocks) -> BlockRule:
    return BlockRule(blocks=tuple((tuple(shape), rule) for shape, rule in blocks))


def composed_prox(rule, domain: Domain, v, scale: float):
    """Exact minimizer of scale*h + indicator(domain) + half squared distance.

    Only provably exact combinations are served: any rule on the whole
    space; pure projections; l1 with a box (clip after shrink), a ball
    (radial rescale after shrink), or the simplex (l1 is constant there).
    Everything else raises CompositionError rather than silently
    approximating.
    """
    v = np.asarray(v, dtype=float)
    kind = getattr(rule, "kind", "block")
    if domain.kind == "whole_space":
        return rule.apply(v, scale)
    if kind == "zero":
        return domain.project(v)
    if kind == "indicator":
        if rule.domain is domain:
            return domain.project(v)
        raise CompositionError(
            "indicator prox combined with a different bounded domain")
    if kind == "l1":
        if domain.name in ("box", "ball"):
            return domain.project(soft_threshold(v, scale * rule.weight))
        if domain.name == "simplex":
            return domain.project(v)
    raise CompositionError(
        f"no exact composition for prox rule {kind!r} with domain "
        f"{domain.name!r}")


@dataclass(frozen=True)
class SubproblemSpec:
    """One mirror step: anchor, noisy gradient, geometry, and domain."""

    loss: CompositeLossStep
    gen: DistanceGenerator
    anchor: np.ndarray
    noisy_grad: np.ndarray
    step_size: float
    domain: Domain
    inner_tolerance: float = INNER_TOL_DEFAULT
    allow_oversized_step: bool = False

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        limit = 2.0 * self.gen.sigma_omega / self.loss.smoothness_constant
        if self.step_size > limit and not self.allow_oversized_step:
            raise StepSizeError(self.step_size, self.loss.smoothness_constant,
                                self.gen.sigma_omega)


def subproblem_value(spec: SubproblemSpec, x) -> float:
    """Phi(x) for the step; domain membership is the caller's concern."""
    x = np.asarray(x, dtype=float)
    return (float(spec.loss.nonsmooth_value(x))
            + float(np.dot(spec.noisy_grad, x))
            + divergence(spec.gen, x, spec.anchor) / spec.step_size)


def _prox_gradient_point(grad, rule, domain: Domain, x, step: float):
    p = composed_prox(rule, domain, x - step * grad(x), step)
    return p, float(np.linalg.norm(x - p)) / step


def gradient_mapping_norm(step: CompositeLossStep, domain: Domain,
                          x: np.ndarray, scale: float) -> float:
    """Prox-gradient mapping norm of one step at x; ``prox_gradient``'s."""
    return _prox_gradient_point(step.smooth_gradient, step.prox_handle,
                                domain, x, scale)[1]


@np.errstate(over="ignore", invalid="ignore")
def prox_gradient(grad, rule, domain: Domain, x0, step: float, tol: float,
                  max_iters: int):
    """FISTA with gradient restart on g + h over the domain, fixed step.

    ``grad`` is grad g, ``rule`` the prox of h, ``x0`` feasible, ``step``
    1/L for an L-smooth g. Returns (p, residual, converged): the
    prox-gradient point of the last checked iterate and its mapping norm.
    It stops unconverged when the budget runs out or the residual turns
    nonfinite, as it does when the step exceeds 2/L; the overflow on the
    way there is silenced, as the nonfinite residual already reports it.
    """
    x = z = x0
    t = 1.0
    p, residual = x0, np.inf
    for it in range(1, max_iters + 1):
        x_new = composed_prox(rule, domain, z - step * grad(z), step)
        if float(np.dot(z - x_new, x_new - x)) > 0.0:
            t = 1.0  # gradient restart
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x = x_new
        t = t_new
        if it % RESIDUAL_CHECK_EVERY == 0 or it == 1:
            p, residual = _prox_gradient_point(grad, rule, domain, x, step)
            if residual <= tol:
                return p, residual, True
            if not np.isfinite(residual):
                break
    return p, residual, False


def _inner_solve(spec: SubproblemSpec):
    """``prox_gradient`` on Phi; returns (point, position bound).

    The smooth part <c, x> + V(x, anchor)/lam has Lipschitz gradient
    G_omega/lam and strong convexity sigma_omega/lam, so the returned
    prox point y satisfies ||y - argmin|| <= 2*residual*lam/sigma_omega,
    where residual is the prox-gradient mapping norm at acceptance.
    """
    lam = spec.step_size
    gen = spec.gen
    c = spec.noisy_grad
    grad_anchor = gen.gradient(spec.anchor)

    def smooth_grad(x):
        return c + (gen.gradient(x) - grad_anchor) / lam

    # 1/(G_omega/lam), not lam/G_omega: recorded traces rest on its last bit
    y, residual, converged = prox_gradient(
        smooth_grad, spec.loss.prox_handle, spec.domain,
        spec.domain.project(spec.anchor), 1.0 / (gen.g_omega / lam),
        spec.inner_tolerance, INNER_MAX_ITERS)
    if not converged:
        raise InnerSolverError(residual, spec.inner_tolerance,
                               INNER_MAX_ITERS)
    return y, 2.0 * residual * lam / gen.sigma_omega


def _solve_with_bound(spec: SubproblemSpec):
    """Exact minimizer plus an upper bound on its distance to the argmin."""
    lam = spec.step_size
    if spec.gen.name == "euclidean":
        v = spec.anchor - lam * spec.noisy_grad
        return composed_prox(spec.loss.prox_handle, spec.domain, v, lam), 0.0
    if (spec.gen.name == "negative_entropy"
            and getattr(spec.loss.prox_handle, "kind", None) == "zero"):
        w = spec.anchor * np.exp(-lam * spec.noisy_grad)
        if spec.domain.name == "simplex":
            return w / float(np.sum(w)), 0.0  # multiplicative weights
        if spec.domain.kind == "whole_space":
            return w, 0.0  # positive-orthant stationary point
    return _inner_solve(spec)


def exact_mirror_prox(spec: SubproblemSpec) -> np.ndarray:
    """Minimize Phi over the domain; closed form when one exists."""
    y, _ = _solve_with_bound(spec)
    return y


def inexact_mirror_prox(spec: SubproblemSpec, model: ErrorModel, k: int):
    """Solve the step, then perturb within the model's eps_k ball.

    Returns (x_k, y_k, eps_k) with ||x_k - y_k|| <= eps_k guaranteed: the
    offset radius caps the perturbation and projecting back onto the
    domain is nonexpansive around the feasible y_k. eps_k also covers the
    inner solver's own inaccuracy, so it stays a valid bound relative to
    the true argmin.
    """
    y, inner_bound = _solve_with_bound(spec)
    offset, radius = model.prox_error(k, y.size)
    if radius == 0.0:
        x = y
    else:
        x = spec.domain.project(y + offset)
    return x, y, radius + inner_bound
