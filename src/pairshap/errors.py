"""Exception hierarchy.

Two branches matter to callers: InputError covers malformed or out-of-range
inputs (CLI exit code 2), NumericError covers failures detected during
computation (CLI exit code 3).
"""


class PairShapError(Exception):
    """Base class for every error raised by this package."""


class InputError(PairShapError):
    """A caller-supplied value is malformed or outside the supported range."""


class NumericError(PairShapError):
    """A computation failed or produced values that cannot be trusted."""


class SchemaError(InputError):
    """A configuration document does not match the expected structure."""


class DimensionError(InputError):
    """Array shapes or index counts are inconsistent."""


class DomainError(InputError):
    """A value is outside its permitted domain (e.g. q < 2, n < 1)."""


class SizeGuard(InputError):
    """The request exceeds a hard enumeration cap and would not finish."""


class PartitionError(InputError):
    """Index groups do not form a partition of the players."""


class NonFiniteError(NumericError):
    """A value function produced NaN or infinity."""


class SingularMatrix(NumericError):
    """A linear solve met a pivot too small to trust.

    `slices` holds the indices of the singular slices of a stacked solve;
    a single matrix is slice 0.
    """

    def __init__(self, message: str, slices):
        super().__init__(message)
        self.slices = slices


class NoConvergence(NumericError):
    """An iterative routine exhausted its iteration budget."""


class RankDeficient(NumericError):
    """A sampled design never reached full column rank."""
