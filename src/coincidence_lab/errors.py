"""Exception taxonomy shared by all modules.

Every error raised by the library is a subclass of :class:`CoincidenceLabError`,
so callers can catch the whole family with one clause.  Where a builtin
exception type fits (overflow, bad values) the class also inherits from it.
"""


class CoincidenceLabError(Exception):
    """Base class for all errors raised by coincidence-lab."""


class RankMismatch(CoincidenceLabError, ValueError):
    """Exterior-algebra operands live in different ambient ranks."""


class IntegerOverflow(CoincidenceLabError, OverflowError):
    """An exact integer result left the signed 64-bit range."""


class GroupMismatch(CoincidenceLabError, ValueError):
    """Group elements from different groups were combined."""


class ArityMismatch(CoincidenceLabError, ValueError):
    """A tuple argument has the wrong number of entries."""


class DimensionMismatch(CoincidenceLabError, ValueError):
    """Matrix or model dimensions are incompatible."""


class IndexOutOfRange(CoincidenceLabError, IndexError):
    """A map index is outside the valid 1-based range."""


class NonTransverse(CoincidenceLabError, ValueError):
    """The stacked difference system is singular; the coincidence set is not finite."""


class EnumerationLimit(IntegerOverflow):
    """The coincidence set is finite but too large to enumerate point by point."""

    def __init__(self, message: str, det: int):
        super().__init__(message)
        self.det = det  # the determinant refused on, so that no caller recomputes it


class UnknownIdentifier(CoincidenceLabError, KeyError):
    """A fact refers to a map or space identifier that was never declared."""


class SchemaError(CoincidenceLabError, ValueError):
    """A scenario document does not match the expected schema."""
