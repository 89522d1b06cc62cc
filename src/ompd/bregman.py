"""Distance-generating functions and the Bregman divergences they induce.

The divergence of a generator ``w`` is

    V(x, y) = w(x) - w(y) - <grad w(y), x - y>,

nonnegative, and zero iff x == y for strictly convex generators. A
generator carries its strong-convexity modulus ``sigma_omega`` and
gradient Lipschitz constant ``g_omega`` as declared metadata, verified by
sampling in the test suite rather than derived symbolically, and the
closed form of its divergence. Residual evaluators for the three-point
and Pythagorean identities are exposed as operations because the regret
accounting downstream leans on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

#: default step for finite-difference validation of divergence gradients
FD_STEP = 1e-6
#: ``negative_entropy_generator`` clamps coordinates at this value
ENTROPY_FLOOR = 1e-9


@dataclass(frozen=True)
class DistanceGenerator:
    """A strongly convex distance-measuring function with metadata.

    ``pair_divergence`` is the closed form of V(x, y) that ``divergence``
    evaluates, better conditioned than the three-term definition (e.g.
    the Euclidean divergence is exactly half the squared distance instead
    of a difference of squares); ``value`` keeps the definition checkable.
    ``gradient`` must act row by row on a (T, n) stack: ``solver.run``
    applies it to all steps at once.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    sigma_omega: float
    g_omega: float
    name: str
    pair_divergence: Callable[[np.ndarray, np.ndarray], float]

    def __post_init__(self):
        if self.sigma_omega <= 0:
            raise ValueError("sigma_omega must be positive")
        if self.g_omega < self.sigma_omega:
            raise ValueError("g_omega must be at least sigma_omega")


def euclidean_generator() -> DistanceGenerator:
    """Half squared norm; divergence is half the squared distance."""
    return DistanceGenerator(
        value=lambda x: 0.5 * float(np.dot(x, x)),
        gradient=lambda x: np.asarray(x, dtype=float),
        sigma_omega=1.0,
        g_omega=1.0,
        name="euclidean",
        pair_divergence=lambda x, y: 0.5 * float(np.dot(x - y, x - y)),
    )


def negative_entropy_generator(lo: float = 0.1,
                               hi: float = 1.0) -> DistanceGenerator:
    """Smoothed negative entropy on the strictly positive orthant.

    Plain negative entropy has unbounded gradient curvature near the
    boundary, so coordinates are clamped at ``ENTROPY_FLOOR`` before
    evaluation and the declared constants are the exact ones for the box
    [lo, hi]^n: strong convexity 1/hi and gradient Lipschitz constant 1/lo.
    Sampling based verification must draw points from that box.
    """
    floor = ENTROPY_FLOOR  # a local: the gradient runs once per step
    if not (floor < lo < hi):
        raise ValueError(f"need {floor} < lo < hi")

    def value(x):
        xs = np.maximum(np.asarray(x, dtype=float), floor)
        return float(np.sum(xs * np.log(xs)))

    def gradient(x):  # np.maximum takes lists and (T, n) stacks alike
        return np.log(np.maximum(x, floor)) + 1.0

    def pair_divergence(x, y):
        xs = np.maximum(np.asarray(x, dtype=float), floor)
        ys = np.maximum(np.asarray(y, dtype=float), floor)
        return float(np.sum(xs * np.log(xs / ys) - xs + ys))

    return DistanceGenerator(
        value=value,
        gradient=gradient,
        sigma_omega=1.0 / hi,
        g_omega=1.0 / lo,
        name="negative_entropy",
        pair_divergence=pair_divergence,
    )


def _as_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(x.shape, y.shape)
    return x, y


def divergence(gen: DistanceGenerator, x, y) -> float:
    """V(x, y) by ``gen.pair_divergence``; nonnegative unless NaN.

    Rounding below zero is clamped to 0; a NaN input stays NaN, so it
    cannot pass for a zero divergence.
    """
    v = gen.pair_divergence(*_as_pair(x, y))
    return 0.0 if v <= 0.0 else v


def divergence_gradient(gen: DistanceGenerator, x, y) -> np.ndarray:
    """Derivative of V(., y) at x, i.e. grad w(x) - grad w(y)."""
    x, y = _as_pair(x, y)
    return gen.gradient(x) - gen.gradient(y)


def check_three_point(gen: DistanceGenerator, x, y, z) -> float:
    """Residual of grad V(y,x) = grad V(y,z) + grad V(z,x).

    Exactly zero in exact arithmetic for every generator; the returned
    norm is at rounding level for well-scaled inputs.
    """
    x, y = _as_pair(x, y)
    _, z = _as_pair(x, z)
    lhs = divergence_gradient(gen, y, x)
    rhs = divergence_gradient(gen, y, z) + divergence_gradient(gen, z, x)
    return float(np.linalg.norm(lhs - rhs))


def check_pythagorean(gen: DistanceGenerator, x, y, z) -> float:
    """Residual of <z - y, grad V(y,x)> = V(z,x) - V(z,y) - V(y,x)."""
    x, y = _as_pair(x, y)
    _, z = _as_pair(x, z)
    lhs = float(np.dot(z - y, divergence_gradient(gen, y, x)))
    rhs = divergence(gen, z, x) - divergence(gen, z, y) - divergence(gen, y, x)
    return abs(lhs - rhs)
