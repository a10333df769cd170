"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter problems exit with 2,
I/O problems with 3, and numerical failures (a scale matrix that is not
positive definite, a singular triangular factor) with 4.
"""


class TriwishError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TriwishError):
    """Operands have incompatible shapes."""


class NumericalFailure(TriwishError):
    """A numerical procedure failed: a matrix that is not positive definite
    or is singular (the two subclasses below), a draw that over- or
    underflowed, or a result that lost all precision (e.g. a
    finite-difference Jacobian that is singular to working precision)."""


class NotPositiveDefinite(NumericalFailure):
    """Cholesky factorization hit a non-positive or non-finite pivot.

    ``pivot`` is the 1-based index of the failing pivot when known.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SingularMatrix(NumericalFailure):
    """A triangular matrix with a zero diagonal entry cannot be inverted."""


class InvalidDegreesOfFreedom(TriwishError):
    """Degrees of freedom outside the valid range (chi needs k > 0, the
    nonsingular matrix distributions need n > m - 1)."""


class InvalidParameter(TriwishError):
    """A scalar or structural parameter is out of its valid range."""


class TooFewSamples(TriwishError):
    """Not enough draws for the requested statistic."""


class MeanUndefined(TriwishError):
    """The requested distribution moment does not exist (n <= m + 1)."""
