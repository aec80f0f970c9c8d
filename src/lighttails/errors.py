"""Exception hierarchy shared across the package."""


class LightTailsError(Exception):
    """Base class for all lighttails errors."""


class DomainError(LightTailsError):
    """Evaluation point outside the tail representation's domain."""


class SmoothnessError(LightTailsError):
    """A derivative of higher order than the model supports was requested."""

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"operation requires hazard smoothness of order {required}, "
            f"model declares order {available}"
        )


class DegenerateWeightError(LightTailsError):
    """A zero scale was passed where a nonzero one is required."""


class UnsupportedSignError(LightTailsError):
    """Negative scale used with a distribution that has no lower tail."""


class OutOfScopeError(LightTailsError):
    """Model metadata violates the hypotheses of every supported regime."""


class RegimeConditionError(LightTailsError):
    """A numerically checkable regime hypothesis failed on the diagnostic grid."""


class QuadratureToleranceError(LightTailsError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature achieved error bound {achieved:.3e}, requested {requested:.3e}"
        )


class ConfigError(LightTailsError):
    """Experiment configuration failed validation."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(message if not path else f"{message} (at {path})")
