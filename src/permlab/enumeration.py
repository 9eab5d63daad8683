"""Exhaustive sweeps over the symmetric group.

``row_blocks`` is the one exhaustive source: all n! permutations in lex
order as int8 blocks of at most 7! rows, so a sweep holds one block whatever
n is. Past its guard an order is refused before any row is built, so that a
typo cannot ask for 12! of anything: ``SWEEP_GUARD`` guards the commands'
sweeps and ``ENUMERATION_GUARD`` library sweeps. Callers pass a larger guard
deliberately.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import permutations
from math import factorial
from typing import TYPE_CHECKING, Iterator

from .errors import OutOfMemory, ParameterOutOfRange, TooLargeForEnumeration

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_GUARD = 10  # library sweeps
SWEEP_GUARD = 8      # exact, simulate/dist --exhaustive, field, dedup
_TAIL = 7            # a block is the 7! permutations of the last 7 positions
MEMINFO = "/proc/meminfo"   # Linux; its MemAvailable line is in KiB

_matrix_cache: dict[int, np.ndarray] = {}


def guard_value(guard: int | None) -> int:
    """``guard`` read by ``perms.ints``, or ``ENUMERATION_GUARD`` if None; a
    negative guard is refused as a usage error."""
    from .perms import ints   # lazy: --version loads this module, not perms
    (g,) = ints((ENUMERATION_GUARD if guard is None else guard,),
                ParameterOutOfRange, "guard")
    if g < 0:
        raise ParameterOutOfRange(f"guard must be non-negative, got {g}")
    return g


def factorial_past(n: int, cap: int) -> int:
    """n!, or a smaller factorial past ``cap``: it compares with ``cap`` as
    n! does, without building a huge n!."""
    f = k = 1
    while k < n and f <= cap:
        k += 1
        f *= k
    return f


def check_guard(n: int, guard: int | None, what: str) -> None:
    """Refuse ``what`` at n past the guard, ``ENUMERATION_GUARD`` if None."""
    g = guard_value(guard)
    if n > g:
        raise TooLargeForEnumeration(
            f"{what} at n={n} is past the guard n <= {g}")


def memory_bytes() -> int:
    """The most memory this process may use: the memory the kernel reports
    available (``MemAvailable`` in :data:`MEMINFO`), or the machine's
    physical memory where that is not reported, capped by the soft
    address-space limit. Control-group limits are not read."""
    import resource
    total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            total = next((int(line.split()[1]) << 10 for line in fh
                          if line.startswith("MemAvailable:")), total)
    except (OSError, ValueError, IndexError):   # no file, or not as expected
        pass
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return total if soft == resource.RLIM_INFINITY else min(total, soft)


def check_memory(need: int, what: str) -> None:
    """Refuse ``what`` before it allocates when its ``need`` bytes exceed
    :func:`memory_bytes`."""
    have = memory_bytes()
    if need > have:
        raise OutOfMemory(
            f"{what} needs {need} bytes; this process may use {have}")


@cache
def _lex(c: int) -> np.ndarray:
    """The c! permutations of 0..c-1 as a lex-ordered int8 matrix."""
    import numpy as np
    return np.array(list(permutations(range(c))), dtype=np.int8)


def row_blocks(n: int, guard: int | None = None) -> Iterator[np.ndarray]:
    """All permutations of 0..n-1 in lex order, as int8 blocks of at most 7!
    rows: each lex prefix of the first n - 7 positions, followed by the
    remaining values in lex order. Refused at the call, before any row is
    built, past the guard."""
    from .perms import ints
    (n,) = ints((n,), ParameterOutOfRange, "n")
    check_guard(n, guard, "an exhaustive sweep")
    if not 1 <= n <= 127:   # values fit int8
        raise ParameterOutOfRange(
            f"an exhaustive sweep needs 1 <= n <= 127, got n={n}")
    import numpy as np
    tail = _lex(min(n, _TAIL))
    head = n - tail.shape[1]
    # cell (r, i) of a block is values[at[r, i]]: the prefix, then the rest
    at = np.empty((len(tail), n), dtype=np.intp)
    at[:, :head] = np.arange(head)
    at[:, head:] = head + tail
    rest = set(range(n)).difference
    return (np.array(prefix + tuple(sorted(rest(prefix))), dtype=np.int8)[at]
            for prefix in permutations(range(n), head))


def perm_matrix(n: int, guard: int | None = None) -> np.ndarray:
    """All of :func:`row_blocks` as one read-only (n!, n) int8 matrix; row r
    is the rank-r permutation. Cached per n, and refused before it is
    allocated when its n!·n bytes exceed :func:`memory_bytes`."""
    blocks = row_blocks(n, guard)
    cached = _matrix_cache.get(n)
    if cached is not None:
        return cached
    check_memory(factorial(n) * n, f"perm_matrix of all {n}! permutations")
    import numpy as np
    m = np.empty((factorial(n), n), dtype=np.int8)
    for i, block in enumerate(blocks):     # blocks are all one size
        m[i * len(block):(i + 1) * len(block)] = block
    m.setflags(write=False)
    _matrix_cache[n] = m
    return m


def displacement_matrix(n: int, guard: int | None = None) -> np.ndarray:
    """Per-row displacement vectors ``(i - sigma(i)) mod n`` (int16)."""
    import numpy as np
    p = perm_matrix(n, guard)
    idx = np.arange(n, dtype=np.int16)
    return (idx[None, :] - p.astype(np.int16)) % np.int16(n)
