"""Exact and inexact proximal/mirror subproblem solvers.

Each online step minimizes

    Phi(x) = h(x) + <c, x> + V(x, anchor) / step_size      over the domain,

where c is the (possibly noisy) gradient. For the Euclidean generator and
a closed-form prox rule the minimizer is the classical proximal step; for
other generators ``prox_gradient``, the one prox-gradient loop that the
offline oracle ``regret.offline_optimum`` also runs, drives the mapping
norm of Phi below ``inner_tolerance``. ``subproblem_solver`` makes that
choice once, for a stream's one prox rule. The inexactness wrapper then
perturbs the solution by a norm-bounded offset and reports an honest
eps_k for the ledger (offset radius plus the inner residual bound).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bregman import DistanceGenerator
from .errors import (CompositionError, InnerSolverError, StepSizeError,
                     SvdError)
from .losses import Domain

INNER_TOL_DEFAULT = 1e-9
INNER_MAX_ITERS = 10_000
#: residual check cadence of prox_gradient, the one iterative kernel
RESIDUAL_CHECK_EVERY = 10


def _threshold(lam: float) -> float:
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return lam


def _shrink(y: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def soft_threshold(y, lam: float):
    """Entrywise sign(y) * max(|y| - lam, 0); any shape."""
    _threshold(lam)
    return _shrink(np.asarray(y, dtype=float), lam)


def singular_value_threshold(Z, lam: float):
    """Shrink all singular values of Z by lam, flooring at zero."""
    _threshold(lam)
    Z = np.asarray(Z, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(Z.shape) from exc
    return (U * np.maximum(s - lam, 0.0)) @ Vt


@dataclass(frozen=True)
class ProxRule:
    """Exact prox map of one nonsmooth term.

    kind: "l1" (weight eta), "nuclear" (weight), or "zero". A constraint
    is not a rule: it is the stream's Domain, which ``composed_prox``
    projects onto. ``apply(v, scale)`` returns the minimizer of
    h(u) + ||u - v||^2 / (2*scale) in the Euclidean geometry.
    """

    kind: str
    weight: float = 0.0

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
        raise ValueError(f"unknown prox rule kind {self.kind!r}")


def l1_rule(weight: float) -> ProxRule:
    return ProxRule(kind="l1", weight=float(weight))


def nuclear_rule(weight: float) -> ProxRule:
    return ProxRule(kind="nuclear", weight=float(weight))


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


def prox_map(rule, scale: float):
    """v -> ``rule.apply(v, scale)`` for float arrays v: an l1 rule's
    formula with its threshold checked once, here; else the rule's
    ``apply``."""
    if getattr(rule, "kind", None) == "l1":
        return functools.partial(_shrink, lam=_threshold(scale * rule.weight))
    return lambda v: rule.apply(v, scale)


def composed_prox(rule, domain: Domain, v, scale: float):
    """Exact minimizer of scale*h + indicator(domain) + half squared distance.

    Only provably exact combinations are served: any rule on the whole
    space; pure projections; l1 with a box (clip after shrink), a ball
    (radial rescale after shrink), or the simplex (l1 is constant there).
    On a box whose lower bounds are all >= 0 (``Domain.nonnegative``)
    ||u||_1 = sum(u), so the l1 rule is the shifted clip
    min(max(v - scale*eta, lo), hi): 3 ufuncs instead of clip after
    shrink's 7. box() stores a -0.0 bound as +0.0, so the shifted clip
    meets no tie of signed zeros; clip after shrink meets
    max(-0.0, +0.0), and the two agree bit for bit wherever numpy gives
    +0.0 there (x86 and ARM's FMAX both do). Everything else raises
    CompositionError rather than silently approximating.
    """
    v = np.asarray(v, dtype=float)
    kind = getattr(rule, "kind", "block")
    if domain.kind == "whole_space":
        return rule.apply(v, scale)
    if kind == "zero":
        return domain.project(v)
    if kind == "l1":
        if domain.nonnegative:
            shift = _threshold(scale * rule.weight)
            lo, hi = domain.bounds
            return np.minimum(np.maximum(v - shift, lo), hi)
        if domain.name in ("box", "ball"):
            return domain.project(soft_threshold(v, scale * rule.weight))
        if domain.name == "simplex":
            return domain.project(v)
    raise CompositionError(
        f"no exact composition for prox rule {kind!r} with domain "
        f"{domain.name!r}")


def check_step_size(step_size: float, smoothness: float,
                    sigma_omega: float) -> None:
    """Require 0 < step_size <= 2 sigma_omega / L for the largest L >= 0;
    at L = 0 (a zero or linear smooth part) the limit is +inf.

    A step that is not positive and finite, or an L that is negative,
    raises ValueError, as does NaN in either; a step above the limit
    StepSizeError.
    """
    if not 0.0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got "
                         f"{step_size}")
    if not smoothness >= 0.0:
        raise ValueError(f"L must be nonnegative, got {smoothness}")
    if smoothness > 0.0 and step_size > 2.0 * sigma_omega / smoothness:
        raise StepSizeError(step_size, smoothness, sigma_omega)


def _prox_gradient_point(grad, rule, domain: Domain, x, step: float):
    p = composed_prox(rule, domain, x - step * grad(x), step)
    r = x - p
    return p, math.sqrt(r.dot(r)) / step  # as np.linalg.norm of a vector


@np.errstate(over="ignore", invalid="ignore")
def prox_gradient(grad, rule, domain: Domain, x0, step: float, tol: float,
                  max_iters: int):
    """FISTA with gradient restart on g + h over the domain, fixed step.

    ``grad`` is grad g, ``rule`` the prox of h, ``x0`` feasible, ``step``
    1/L for an L-smooth g. The residual is checked at iteration 1, every
    ``RESIDUAL_CHECK_EVERY`` iterations and at the last one. Returns (p,
    residual, converged, iterations): the prox-gradient point of the last
    checked iterate, its mapping norm, and the number of iterations run.
    It stops unconverged when the budget runs out or the residual turns
    nonfinite, as it does when the step exceeds 2/L; the overflow on the
    way there is silenced, as the nonfinite residual already reports it.
    """
    x = z = x0
    t = 1.0
    p, residual, it = x0, np.inf, 0
    for it in range(1, max_iters + 1):
        x_new = composed_prox(rule, domain, z - step * grad(z), step)
        dx = x_new - x
        if (z - x_new).dot(dx) > 0.0:
            t = 1.0  # gradient restart
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * dx
        x = x_new
        t = t_new
        if it % RESIDUAL_CHECK_EVERY == 0 or it in (1, max_iters):
            p, residual = _prox_gradient_point(grad, rule, domain, x, step)
            if residual <= tol:
                return p, residual, True, it
            if not math.isfinite(residual):
                break
    return p, residual, False, it


def _inner_solve(rule, gen: DistanceGenerator, domain: Domain, lam: float,
                 tol: float, anchor, c):
    """``prox_gradient`` on Phi; returns (point, position bound).

    The smooth part <c, x> + V(x, anchor)/lam has Lipschitz gradient
    G_omega/lam and strong convexity sigma_omega/lam, so the returned
    prox point y satisfies ||y - argmin|| <= 2*residual*lam/sigma_omega,
    where residual is the prox-gradient mapping norm at acceptance.
    """
    grad_anchor = gen.gradient(anchor)

    def smooth_grad(x):
        return c + (gen.gradient(x) - grad_anchor) / lam

    # 1/(G_omega/lam), not lam/G_omega: recorded traces rest on its last bit
    y, residual, converged, iterations = prox_gradient(
        smooth_grad, rule, domain, domain.project(anchor),
        1.0 / (gen.g_omega / lam), tol, INNER_MAX_ITERS)
    if not converged:
        raise InnerSolverError(residual, tol, iterations)
    return y, 2.0 * residual * lam / gen.sigma_omega


def subproblem_solver(rule, gen: DistanceGenerator, domain: Domain,
                      step_size: float,
                      inner_tolerance: float = INNER_TOL_DEFAULT):
    """The solver of every step whose nonsmooth term has prox ``rule``.

    Returns solve(anchor, noisy_grad) -> (y, bound): the minimizer of Phi over
    the domain and an upper bound on its distance to the argmin. The form is
    chosen here, once: the Euclidean proximal step (``prox_map`` on the whole
    space, else ``composed_prox``; bound 0), the entropy closed forms for a
    zero rule (multiplicative weights on the simplex, the positive-orthant
    stationary point on the whole space, bound 0), or ``_inner_solve``.
    """
    lam = step_size
    if gen.name == "euclidean":
        prox = (prox_map(rule, lam) if domain.kind == "whole_space"
                else lambda v: composed_prox(rule, domain, v, lam))
        return lambda anchor, c: (prox(anchor - lam * c), 0.0)
    if (gen.name == "negative_entropy"
            and getattr(rule, "kind", None) == "zero"):
        if domain.name == "simplex":
            def solve(anchor, c):  # multiplicative weights
                w = anchor * np.exp(-lam * c)
                return w / float(np.sum(w)), 0.0
            return solve
        if domain.kind == "whole_space":
            def solve(anchor, c):  # positive-orthant stationary point
                return anchor * np.exp(-lam * c), 0.0
            return solve
    return functools.partial(_inner_solve, rule, gen, domain, lam,
                             inner_tolerance)


def inexact_mirror_prox(solve, domain: Domain, anchor, noisy_grad, offset,
                        radius: float):
    """Solve one step with ``solve``, then perturb by the step's draw.

    ``solve`` is a ``subproblem_solver`` map for the step's prox rule;
    ``offset`` and ``radius`` are the step's prox offset and its bound
    (``ErrorModel.draws``; the offset is not read when the radius is 0).
    Returns (x_k, y_k, eps_k) with ||x_k - y_k|| <= eps_k guaranteed: the
    offset radius caps the perturbation and projecting back onto the
    domain is nonexpansive around the feasible y_k. eps_k also covers the
    inner solver's own inaccuracy, so it stays a valid bound relative to
    the true argmin.
    """
    y, inner_bound = solve(anchor, noisy_grad)
    if radius == 0.0:
        return y, y, inner_bound
    return domain.project(y + offset), y, radius + inner_bound
