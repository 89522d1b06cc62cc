"""Time-varying composite loss streams, domains, and injected oracle errors.

A stream hands out one ``CompositeLossStep`` per time index: a smooth part
with declared gradient Lipschitz constant, a Lipschitz regularizer, and a
handle to its exact prox rule. ``ErrorModel`` produces the gradient and
prox error sequences; draws are keyed on (seed XOR purpose tag, step
index) so any single draw can be replayed bit-identically without
consuming shared RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: per-purpose seed tags, combined with the model seed by XOR
GRAD_ERROR_TAG = 0x67726164  # "grad"
PROX_ERROR_TAG = 0x70726F78  # "prox"


@dataclass(frozen=True)
class Domain:
    """Either the whole space or a bounded convex set with a projection.

    ``diameter`` is the Euclidean diameter for bounded domains and None
    otherwise. ``name`` identifies the built-in family ("whole_space",
    "box", "ball", "simplex"); prox/projection composition rules key on it.
    """

    kind: str  # "whole_space" | "bounded"
    project: Callable[[np.ndarray], np.ndarray]
    diameter: Optional[float] = None
    name: str = "custom"

    @property
    def is_bounded(self) -> bool:
        return self.kind == "bounded"


def whole_space() -> Domain:
    return Domain(kind="whole_space", project=lambda x: np.asarray(x, float),
                  diameter=None, name="whole_space")


def ball(diameter: float, dim: int) -> Domain:
    """Origin-centred Euclidean ball of the given diameter in R^dim."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    radius = 0.5 * diameter

    def project(x):
        x = np.asarray(x, float)
        nrm = float(np.linalg.norm(x))
        if nrm <= radius:
            return x
        return x * (radius / nrm)

    return Domain(kind="bounded", project=project, diameter=float(diameter),
                  name="ball")


def box(lo, hi, dim: Optional[int] = None) -> Domain:
    """Axis-aligned box; scalar bounds broadcast to ``dim`` coordinates."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 0:
        if dim is None:
            raise ValueError("dim required for scalar box bounds")
        lo = np.full(dim, float(lo))
        hi = np.full(dim, float(hi))
    if np.any(hi <= lo):
        raise ValueError("box bounds must satisfy lo < hi")
    diameter = float(np.linalg.norm(hi - lo))

    def project(x):
        return np.minimum(np.maximum(np.asarray(x, float), lo), hi)

    return Domain(kind="bounded", project=project, diameter=diameter, name="box")


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the probability simplex, sort based.
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def simplex(dim: int) -> Domain:
    """Probability simplex; Euclidean diameter sqrt(2)."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return Domain(kind="bounded", project=_project_simplex,
                  diameter=float(np.sqrt(2.0)), name="simplex")


@dataclass(frozen=True)
class CompositeLossStep:
    """One time slice of the stream: smooth part + regularizer.

    ``smoothness_constant`` bounds the curvature of the smooth part and
    ``regularizer_lipschitz`` the Lipschitz constant of the nonsmooth part;
    both are declared metadata, checked by :func:`validate_constants`.
    ``prox_handle`` resolves to an exact prox rule (see the prox module).
    """

    smooth_value: Callable[[np.ndarray], float]
    smooth_gradient: Callable[[np.ndarray], np.ndarray]
    nonsmooth_value: Callable[[np.ndarray], float]
    smoothness_constant: float
    regularizer_lipschitz: float
    prox_handle: object
    dim: int

    def total_value(self, x) -> float:
        return float(self.smooth_value(x)) + float(self.nonsmooth_value(x))


@dataclass(frozen=True)
class ProblemStream:
    """A horizon of composite steps over a common domain."""

    horizon: int
    step_at: Callable[[int], CompositeLossStep]
    domain: Domain
    dim: int

    def steps(self):
        return [self.step_at(k) for k in range(1, self.horizon + 1)]


@dataclass(frozen=True)
class ErrorModel:
    """Deterministic per-step gradient and prox error draws.

    Gradient errors are coordinate-wise Gaussian with ``gradient_std``.
    Prox offsets point uniformly on the sphere with radius
    min(|N(0, prox_std^2)|, eps_cap); the radius is also the realized bound
    reported to the ledger, so the offset norm never exceeds it. With a
    fixed seed the full sequence is bit-reproducible draw by draw
    (PCG64 + ziggurat Gaussians, keyed on (seed XOR tag, k)).
    """

    gradient_std: float = 0.0
    prox_std: float = 0.0
    eps_cap: Optional[float] = None
    seed: int = 0

    def gradient_error(self, k: int, dim: int) -> np.ndarray:
        if self.gradient_std == 0.0:
            return np.zeros(dim)
        rng = np.random.default_rng((self.seed ^ GRAD_ERROR_TAG, k))
        return rng.normal(0.0, self.gradient_std, size=dim)

    def prox_error(self, k: int, dim: int):
        """Return (offset vector, realized bound eps_k)."""
        if self.prox_std == 0.0:
            return np.zeros(dim), 0.0
        rng = np.random.default_rng((self.seed ^ PROX_ERROR_TAG, k))
        radius = abs(rng.normal(0.0, self.prox_std))
        if self.eps_cap is not None:
            radius = min(radius, self.eps_cap)
        direction = rng.normal(size=dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0 or radius == 0.0:
            return np.zeros(dim), 0.0
        return direction * (radius / nrm), float(radius)


def zero_error_model(seed: int = 0) -> ErrorModel:
    return ErrorModel(gradient_std=0.0, prox_std=0.0, seed=seed)


def noisy_gradient(step: CompositeLossStep, model: ErrorModel, k: int,
                   x: np.ndarray) -> np.ndarray:
    """Exact gradient plus the model's step-k error draw."""
    return step.smooth_gradient(x) + model.gradient_error(k, step.dim)


@dataclass(frozen=True)
class ConstantsReport:
    """Worst-case sampled violation margins; nonpositive margins pass."""

    descent_margin: float
    regularizer_lipschitz_margin: float
    smooth_convexity_margin: float
    nonsmooth_convexity_margin: float
    samples: int

    def passed(self, tol: float = 1e-8) -> bool:
        return max(self.descent_margin, self.regularizer_lipschitz_margin,
                   self.smooth_convexity_margin,
                   self.nonsmooth_convexity_margin) <= tol


def validate_constants(step: CompositeLossStep, samples: int = 200,
                       seed: int = 0) -> ConstantsReport:
    """Sample-check the declared constants and convexity of one step.

    Draws standard Gaussian point pairs and reports the largest
    violation of: the descent lemma for the smooth part, the Lipschitz
    bound for the regularizer, and midpoint convexity for both parts.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    L = step.smoothness_constant
    B = step.regularizer_lipschitz
    worst = [-np.inf] * 4
    for _ in range(samples):
        x = rng.normal(size=step.dim)
        y = rng.normal(size=step.dim)
        gx = float(step.smooth_value(x))
        gy = float(step.smooth_value(y))
        grad_x = step.smooth_gradient(x)
        hx = float(step.nonsmooth_value(x))
        hy = float(step.nonsmooth_value(y))
        d = y - x
        dist = float(np.linalg.norm(d))
        worst[0] = max(worst[0],
                       gy - (gx + float(np.dot(grad_x, d)) + 0.5 * L * dist ** 2))
        worst[1] = max(worst[1], abs(hx - hy) - B * dist)
        mid = 0.5 * (x + y)
        worst[2] = max(worst[2], float(step.smooth_value(mid)) - 0.5 * (gx + gy))
        worst[3] = max(worst[3], float(step.nonsmooth_value(mid)) - 0.5 * (hx + hy))
    return ConstantsReport(descent_margin=worst[0],
                           regularizer_lipschitz_margin=worst[1],
                           smooth_convexity_margin=worst[2],
                           nonsmooth_convexity_margin=worst[3],
                           samples=samples)
