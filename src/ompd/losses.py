"""Time-varying composite loss streams, domains, and injected oracle errors.

A ``ProblemStream`` declares f_k = g_k + h_k as the library reads it: the
indexed gradient of g_k, one prox rule of all h_k, the (T,) arrays of L_k
and B_k, and a batch evaluator of f_k; a stream given by its steps
(``CompositeLossStep``) has them filled from those. The stream is the one
place that checks its L_k and B_k. A ``Domain``'s
regime ``kind`` follows from its diameter. ``ErrorModel`` produces the
gradient and prox error sequences; draws are keyed on (seed XOR purpose
tag, step index) so any single draw can be replayed bit-identically
without consuming shared RNG state. ``ErrorModel.draws`` seeds a block of
steps in one vectorised pass; every draw equals the one of
``np.random.default_rng((seed XOR tag, k))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: per-purpose seed tags, combined with the model seed by XOR
GRAD_ERROR_TAG = 0x67726164  # "grad"
PROX_ERROR_TAG = 0x70726F78  # "prox"


@dataclass(frozen=True)
class Domain:
    """Either the whole space or a bounded convex set with a projection.

    ``diameter`` is the Euclidean diameter of a bounded domain, None for
    the whole space; ``kind`` is set from it, here, so a bounded domain
    always has one. ``name`` identifies the built-in family ("whole_space",
    "box", "ball", "simplex"); prox/projection composition rules key on it.
    A box also records its read-only ``bounds`` (lo, hi), None for other
    domains. ``nonnegative`` follows from them: it is set once, here, to
    whether every lower bound is >= 0 (there ||x||_1 = sum(x)). Neither
    takes part in equality.
    """

    kind: str = field(init=False)  # "whole_space" | "bounded"
    project: Callable[[np.ndarray], np.ndarray]
    diameter: Optional[float] = None
    name: str = "custom"
    bounds: Optional[tuple] = field(default=None, compare=False)
    nonnegative: bool = field(init=False, compare=False)

    def __post_init__(self):
        # stored, not a property: composed_prox reads kind on every call
        object.__setattr__(self, "kind", "bounded" if self.diameter
                           is not None else "whole_space")
        object.__setattr__(self, "nonnegative", self.bounds is not None
                           and bool(np.all(self.bounds[0] >= 0.0)))


def whole_space() -> Domain:
    return Domain(project=lambda x: np.asarray(x, float), name="whole_space")


def ball(diameter: float) -> Domain:
    """Origin-centred Euclidean ball of the given diameter."""
    if not 0 < diameter < math.inf:
        raise ValueError(f"diameter must be positive and finite, got "
                         f"{diameter}")
    radius = 0.5 * diameter

    def project(x):
        x = np.asarray(x, float)
        nrm = float(np.linalg.norm(x))
        if nrm <= radius:
            return x
        return x * (radius / nrm)

    return Domain(project=project, diameter=float(diameter), name="ball")


def box(lo, hi, dim: Optional[int] = None) -> Domain:
    """Axis-aligned box; scalar bounds broadcast to ``dim`` coordinates."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 0:
        if dim is None:
            raise ValueError("dim required for scalar box bounds")
        lo = np.full(dim, float(lo))
        hi = np.full(dim, float(hi))
    for name, bound in (("lo", lo), ("hi", hi)):
        if not np.all(np.isfinite(bound)):
            raise ValueError(f"box bound {name} must be finite")
    if np.any(hi <= lo):
        raise ValueError("box bounds must satisfy lo < hi")
    with np.errstate(over="ignore"):  # refused below, not warned of
        diameter = float(np.linalg.norm(hi - lo))
    if not math.isfinite(diameter):
        raise ValueError(f"box diameter must be finite, got {diameter}")
    lo, hi = lo + 0.0, hi.copy()  # the box owns its bounds; -0.0 -> +0.0
    lo.flags.writeable = hi.flags.writeable = False

    def project(x):  # the ufuncs take lists and float arrays alike
        return np.minimum(np.maximum(x, lo), hi)

    return Domain(project=project, diameter=diameter, name="box",
                  bounds=(lo, hi))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the simplex, sort based; NaN for nonfinite v
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        return np.full(v.shape, np.nan)
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
    return Domain(project=_project_simplex, diameter=float(np.sqrt(2.0)),
                  name="simplex")


@dataclass(frozen=True, slots=True)
class CompositeLossStep:
    """One time slice of the stream: smooth part + regularizer.

    ``smoothness_constant`` bounds the curvature of the smooth part and
    ``regularizer_lipschitz`` the Lipschitz constant of the nonsmooth part;
    both are declared metadata. A stream given by its steps fills its L_k
    and B_k arrays from them, and ``ProblemStream`` checks the arrays.
    ``ompd verify`` checks recorded values against a rebuilt stream's;
    :func:`validate_constants` is a sampled check that the tests use.
    ``prox_handle`` resolves to an exact prox rule (see the prox module).
    A stream given by its steps builds one per gradient, so steps are
    slotted; a built-in stream's steps bind shared evaluators to an index.
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
    """A horizon of composite steps over a common domain.

    The library reads its declarations only: ``gradient`` (i, x) -> step
    i+1's smooth gradient at x, the one prox ``rule`` of all steps, (T,)
    arrays ``smoothness`` and ``reg_lipschitz`` of L_k and B_k, and
    ``batch_values`` (xs, start) -> the (t,) values f_k(xs[k-1-start]) of
    steps start+1..start+t. One left None is filled from ``step_at(k)``,
    bit for bit, keeping no step: the gradient builds step i+1 per call,
    ``batch_values`` calls each ``total_value``, and one pass reads L_k,
    B_k and the rule, refusing steps whose rules differ (ValueError naming
    the first). Declared or filled, L_k and B_k are then held as float
    arrays and checked, here only: a ValueError names the horizon unless
    both have shape (T,), else the first step whose L_k or B_k is not
    finite and >= 0. A ``dataclasses.replace`` copy keeps what was filled
    and is checked again.
    """

    horizon: int
    step_at: Callable[[int], CompositeLossStep]
    domain: Domain
    dim: int
    batch_values: Optional[Callable[[np.ndarray, int], np.ndarray]] = None
    gradient: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    rule: object = None
    smoothness: Optional[np.ndarray] = None
    reg_lipschitz: Optional[np.ndarray] = None

    def __post_init__(self):
        step_at = self.step_at
        fill = {"gradient": lambda i, x: step_at(i + 1).smooth_gradient(x),
                "batch_values": lambda xs, start: np.array(
                    [step_at(start + 1 + j).total_value(x)
                     for j, x in enumerate(xs)], dtype=float)}
        if any(getattr(self, name) is None
               for name in ("rule", "smoothness", "reg_lipschitz")):
            steps = map(step_at, range(1, self.horizon + 1))
            L, B, rules = zip(*((s.smoothness_constant,
                                 s.regularizer_lipschitz, s.prox_handle)
                                for s in steps))
            k = next((k for k, r in enumerate(rules) if r != rules[0]), 0)
            if self.rule is None and k:
                raise ValueError(f"step {k + 1} holds prox rule {rules[k]!r}"
                                 f", not step 1's {rules[0]!r}")
            fill.update(rule=rules[0], smoothness=L, reg_lipschitz=B)
        for name, value in fill.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        T = self.horizon
        L, B = (np.asarray(getattr(self, name), dtype=float)
                for name in ("smoothness", "reg_lipschitz"))
        if L.shape != (T,) or B.shape != (T,):
            raise ValueError(f"need one L_k and one B_k per step of {T}")
        ok = (0.0 <= L) & (L < np.inf) & (0.0 <= B) & (B < np.inf)  # NaN: no
        if not np.all(ok):
            k = int(np.argmin(ok))
            raise ValueError(f"need finite L_k and B_k >= 0; step {k + 1} "
                             f"declares L_k = {L[k]} and B_k = {B[k]}")
        object.__setattr__(self, "smoothness", L)
        object.__setattr__(self, "reg_lipschitz", B)

    def total_values(self, xs, start: int = 0) -> np.ndarray:
        """f_k(xs[k-1-start]) for k = start+1..start+len(xs), one per row of
        ``xs`` (``batch_values``)."""
        return self.batch_values(np.asarray(xs, dtype=float), start)


# numpy's SeedSequence hash (``mix_entropy`` and ``generate_state`` in
# numpy/random/bit_generator.pyx) and PCG64's seeding are fixed algorithms
# under numpy's stream-compatibility policy (NEP 19), so they can be
# recomputed here bit for bit.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """numpy's ``hashmix``, whose multiplier advances on every call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_states(key: int, lo: int, hi: int) -> np.ndarray:
    """Row j is ``SeedSequence((key, lo+1+j)).generate_state(4, np.uint64)``.

    The entropy of (key, k) is the little-endian uint32 words of ``key``
    followed by the one word of k, so all k = lo+1..hi hash in one pass
    of uint32 array arithmetic (which wraps, as numpy's C code does).
    """
    rows = hi - lo
    entropy = [np.full(rows, (key >> shift) & _MASK32, dtype=np.uint32)
               for shift in range(0, max(key.bit_length(), 1), 32)]
    entropy.append(np.arange(lo + 1, hi + 1, dtype=np.uint32))
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    state = np.empty((rows, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(state.shape[1]):
        state[:, i] = hashmix(pool[i % _POOL_SIZE])
    return state.astype("<u4").view("<u8").astype(np.uint64)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as the sqrt of a stacked ``matmul`` dot:
    equal to the row's ``np.linalg.norm`` bit for bit (``norm(axis=1)``
    and ``einsum`` are not)."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _standard_normals(key: int, lo: int, hi: int, width: int) -> np.ndarray:
    """Row j: the first ``width`` standard normals of
    ``np.random.default_rng((key, lo+1+j))``, from one reseeded PCG64."""
    z = np.empty((hi - lo, width))
    rng = np.random.Generator(np.random.PCG64(0))
    for row, (s0, s1, i0, i1) in zip(z, _seed_states(key, lo, hi).tolist()):
        # PCG64's srandom: inc = 2*seq + 1, then an LCG step from 0, the
        # initial state added, and one more step
        inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        state = ((((s0 << 64) | s1) + inc) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=row)
    return z


@dataclass(frozen=True)
class ErrorModel:
    """Deterministic per-step gradient and prox error draws.

    Gradient errors are coordinate-wise Gaussian with ``gradient_std``.
    Prox offsets point uniformly on the sphere with radius
    min(|N(0, prox_std^2)|, eps_cap); the radius is also the realized bound
    reported to the ledger, so the offset norm never exceeds it. Step k's
    draws are those of ``np.random.default_rng((seed XOR tag, k))``
    (PCG64 + ziggurat Gaussians), so each is bit-reproducible on its own,
    whatever the window it is drawn in. ``draws`` makes them for a block
    of steps; the stds must be finite and >= 0, and ``eps_cap`` >= 0.
    """

    gradient_std: float = 0.0
    prox_std: float = 0.0
    eps_cap: Optional[float] = None
    seed: int = 0  # an integer >= 0, as numpy's SeedSequence takes

    def __post_init__(self):
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("gradient_std", "prox_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)}")
        if self.eps_cap is not None and not self.eps_cap >= 0.0:
            raise ValueError(f"eps_cap must be >= 0, got {self.eps_cap}")

    def draws(self, lo: int, hi: int, dim: int):
        """(errors, offsets, radii) of steps lo+1..hi, one row per step:
        gradient errors, prox offsets and the offsets' bounds eps_k, all
        zero at zero std. Scaled as ``normal(0, std)`` rounds (0 +
        std * z), every row is its step's own draw bit for bit."""
        errors, offsets = np.zeros((hi - lo, dim)), np.zeros((hi - lo, dim))
        radii = np.zeros(hi - lo)
        if self.gradient_std != 0.0:
            z = _standard_normals(self.seed ^ GRAD_ERROR_TAG, lo, hi, dim)
            errors = self.gradient_std * z + 0.0
        if self.prox_std != 0.0:
            z = _standard_normals(self.seed ^ PROX_ERROR_TAG, lo, hi, dim + 1)
            radii = np.abs(self.prox_std * z[:, 0] + 0.0)
            if self.eps_cap is not None:
                radii = np.minimum(radii, self.eps_cap)
            offsets = z[:, 1:] + 0.0
            norms = row_norms(offsets)
            zero = (norms == 0.0) | (radii == 0.0)
            offsets *= (radii / np.where(zero, 1.0, norms))[:, None]
            offsets[zero] = radii[zero] = 0.0
        return errors, offsets, radii

    def gradient_error(self, k: int, dim: int) -> np.ndarray:
        """Step k's gradient error, a row of ``draws``."""
        return self.draws(k - 1, k, dim)[0][0]

    def prox_error(self, k: int, dim: int):
        """Return step k's (offset vector, realized bound eps_k)."""
        _, offsets, radii = self.draws(k - 1, k, dim)
        return offsets[0], float(radii[0])


def zero_error_model(seed: int = 0) -> ErrorModel:
    return ErrorModel(gradient_std=0.0, prox_std=0.0, seed=seed)


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
