"""Exception types shared across the package."""


class OmpdError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(OmpdError):
    def __init__(self, expected, got):
        super().__init__(f"dimension mismatch: expected {expected}, got {got}")
        self.expected = expected
        self.got = got


class StepSizeError(OmpdError):
    """Step size violates the stability rule step <= 2*sigma_omega/L."""

    def __init__(self, step_size, smoothness, sigma_omega):
        limit = 2.0 * sigma_omega / smoothness
        super().__init__(
            f"step size {step_size:g} exceeds 2*sigma_omega/L = {limit:g} "
            f"(L = {smoothness:g}, sigma_omega = {sigma_omega:g})"
        )
        self.step_size = step_size
        self.smoothness = smoothness
        self.sigma_omega = sigma_omega
        self.limit = limit


class CompositionError(OmpdError):
    """No provably exact rule for combining this prox map with this domain."""


class SvdError(OmpdError):
    def __init__(self, shape):
        super().__init__(f"singular value decomposition failed for shape {shape}")
        self.shape = tuple(shape)


class InnerSolverError(OmpdError):
    def __init__(self, residual, tolerance, iterations):
        super().__init__(
            f"inner solver stopped at residual {residual:.3e} > tolerance "
            f"{tolerance:.3e} within {iterations} iterations"
        )
        self.residual = residual
        self.tolerance = tolerance
        self.iterations = iterations


class OptimumError(OmpdError):
    def __init__(self, residual, tolerance, iterations):
        super().__init__(
            f"offline optimum search stopped at residual {residual:.3e} > "
            f"tolerance {tolerance:.3e} within {iterations} iterations"
        )
        self.residual = residual
        self.tolerance = tolerance
        self.iterations = iterations


class RegimeMismatchError(OmpdError):
    """Requested bound regime does not match the trace's domain kind."""


class MissingOptimaError(OmpdError):
    """Trace has no per-step optima; call fill_optima first."""


class SolverRunError(OmpdError):
    """A run aborted mid-stream; the partial trace is attached."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace
