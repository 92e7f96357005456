"""Exception types shared across the package."""


class LevyGrowthError(Exception):
    """Base class for all package errors."""


class DomainError(LevyGrowthError):
    """Laplace-transform argument outside the distribution's finite domain."""


class KumulantDomainError(DomainError):
    """An exponential moment does not exist for the requested weights."""


class UnboundedRegion(LevyGrowthError):
    """Region has infinite control measure."""


class RegionOutsideGrid(LevyGrowthError):
    """Integration region extends beyond the realized grid window."""


class WrongBasisKind(LevyGrowthError):
    """Operation requires a specific basis kind (e.g. Poisson point view)."""


class NonFiniteValue(LevyGrowthError):
    """A simulated or computed value is NaN or infinite."""


class NonMonotoneRadius(LevyGrowthError):
    """Radial history is not non-decreasing in time; embedding undefined."""


class AssumptionViolation(LevyGrowthError):
    """Simplifying assumption (separability, full-angle ambit, ...) not met."""


class NegativeTargetCoefficient(LevyGrowthError):
    """Target covariance coefficients must be nonnegative."""


class AliasError(LevyGrowthError):
    """Requested harmonic order exceeds what the angular grid resolves."""


class SingularCovariance(LevyGrowthError):
    """Covariance matrix is singular or not positive definite."""


class InsufficientData(LevyGrowthError):
    """Dataset too small for the requested estimator."""


class NonConvergence(LevyGrowthError):
    """An optimizer or quadrature hit its cap, or the problem is underdetermined."""


class InfeasibleBounds(LevyGrowthError):
    """Parameter bounds are empty or inconsistent."""


class MalformedFile(LevyGrowthError):
    """Input file cannot be parsed into the expected schema."""


class NonUniformGrid(LevyGrowthError):
    """Ingested angles do not form a single uniform grid over the circle."""


class NonPositiveRadius(LevyGrowthError):
    """Radii must be strictly positive for exponential-model fitting."""


class UnknownId(LevyGrowthError):
    """Unknown preset identifier."""


class ConfigError(LevyGrowthError):
    """Run configuration failed schema validation."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
