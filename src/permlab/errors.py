"""Exception types shared across the package.

``cli.main`` maps a ``GuardRefusal`` to exit 3, a one-line ``refused:``
message, and every other ``PermlabError`` to exit 2, a one-line ``error:``
message. Only ``TooLargeForEnumeration`` offers a larger ``--guard``. A class
is kept only where some caller tells it apart from its parent: a new one
needs such a caller, or it is its parent with the same message.
"""


class PermlabError(ValueError):
    """Base class for all package-specific errors (exit 2)."""


class ParameterOutOfRange(PermlabError):
    """A numeric parameter is outside its documented domain (exit 2)."""


class NotABijection(PermlabError):
    """A value sequence is not a permutation of 0..n-1 (exit 2)."""


class MalformedPartition(PermlabError):
    """A partition document is not a JSON object with integer n, m,
    assignment (exit 2)."""


class NotLatin(PermlabError):
    """A square matrix is not a latin square (exit 2)."""


class UnknownStrategy(PermlabError):
    """A strategy name does not resolve to a known strategy (exit 2)."""


class GuardRefusal(PermlabError):
    """Work that exceeds an explicit guard or budget (exit 3)."""


class TooLargeForEnumeration(GuardRefusal):
    """n exceeds the exhaustive-enumeration guard; a larger ``--guard``
    lifts it (exit 3)."""


class OutOfMemory(GuardRefusal):
    """The work needs more memory than this process may use (exit 3)."""
