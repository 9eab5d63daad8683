"""Exception types shared across the package, and ``ints``, its one rule
for reading an integer from outside, which every module imports from here.

``cli.main`` maps a ``GuardRefusal`` to exit 3, a one-line ``refused:``
message, and every other ``PermlabError`` to exit 2, a one-line ``error:``
message. Only ``TooLargeForEnumeration`` offers a larger ``--guard``. A class
is kept only where some caller tells it apart from its parent: a new one
needs such a caller, or it is its parent with the same message.
"""

import operator
from typing import Iterable


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


def ints(values: Iterable, error: type[PermlabError],
         what: str = "") -> tuple[int, ...]:
    """``values`` as ints, by the package's one rule for an outside integer:
    a Python or numpy integer is read; a bool, float, string or None is
    refused with ``error``: ``what`` (``values`` by default) holds a
    non-integer. ``Permutation`` alone tests for an exact ``int``."""
    try:
        items = tuple(values)
        if bool not in set(map(type, items)):   # a bool is an int, no entry
            return tuple(map(operator.index, items))
    except TypeError:
        pass
    raise error(f"{what or repr(values)} holds a non-integer")
