"""Exception types shared across the package.

Guard refusals (``GuardRefusal`` subclasses) are recoverable "this would be
too expensive" conditions; the CLI maps them to a dedicated exit code.
Everything else is a plain contract violation.
"""


class PermlabError(ValueError):
    """Base class for all package-specific errors."""


class NotABijection(PermlabError):
    """A value sequence is not a permutation of 0..n-1."""


class PositionOutOfRange(PermlabError):
    """A position index is outside 0..n-1."""


class RankOutOfRange(PermlabError):
    """A lexicographic rank is outside 0..n!-1."""


class ROutOfRange(PermlabError):
    """A fixed-point count r is outside 0..n."""


class KOutOfRange(PermlabError):
    """A shift-class count k is outside 0..n."""


class NTooSmall(PermlabError):
    """The order n is below the smallest value the quantity is defined for."""


class IndexOutOfRange(PermlabError):
    """A class/position/element index is out of range for a partition."""


class MalformedPartition(PermlabError):
    """A partition document is not a JSON object with integer n, m, assignment."""


class ShiftZero(PermlabError):
    """A nonzero shift is required."""


class EqualIndices(PermlabError):
    """Two shift classes that must differ are equal."""


class ParameterOutOfRange(PermlabError):
    """A numeric parameter is outside its documented domain."""


class HypothesisViolated(PermlabError):
    """The stated precondition of a statistical estimate does not hold."""


class NotLatin(PermlabError):
    """A square matrix is not a latin square."""


class UnknownStrategy(PermlabError):
    """A strategy name does not resolve to a known strategy."""


class GuardRefusal(PermlabError):
    """Base class for refusals of work that exceeds an explicit guard."""


class TooLargeForEnumeration(GuardRefusal):
    """n exceeds the exhaustive-enumeration guard (override with a larger guard)."""


class BudgetExceeded(GuardRefusal):
    """A search exceeded its node budget (override with a larger budget)."""


class OutOfMemory(GuardRefusal):
    """The work needs more memory than this process may use."""
