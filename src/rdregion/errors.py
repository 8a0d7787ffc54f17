"""Exception types shared across the package."""


class RdError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(RdError):
    """Matrix input is not finite, not square, or not symmetric."""


class DimMismatch(RdError):
    """Operands have incompatible dimensions."""


class DegenerateInput(RdError):
    """Input is degenerate for the requested operation (e.g. a zero vector)."""


class SingularInput(RdError):
    """Matrix is singular where an inverse is required."""


class InvalidAuxRate(RdError):
    """Auxiliary rate vector has negative or non-finite entries."""


class EmptySubset(RdError):
    """Subset bitmask selects no encoders."""


class InvalidTheta(RdError):
    """Outer-bound scale parameter must be positive."""


class SubsetExplosion(RdError):
    """Too many encoders to enumerate all subsets."""


class NotSupermodular(RdError):
    """Bound table failed the co-polymatroid audit."""


class InfeasibleBudget(RdError):
    """Budget below the water-filling floor. Carries the deficit."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class InfeasibleDistortion(RdError):
    """Distortion target is unreachable for the problem."""


class InvalidWeights(RdError):
    """Weight vector entries must be >= 1."""


class InvalidCorrelation(RdError):
    """Correlation coefficient must satisfy 0 <= rho < 1."""


class SingularSplit(RdError):
    """Noise split is incompatible with the observation covariance."""


class InvalidInput(RdError):
    """Malformed problem file or request."""
