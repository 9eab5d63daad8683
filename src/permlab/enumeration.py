"""Shared machinery for exhaustive sweeps over the symmetric group.

Full sweeps are guarded: n! rows are materialized only up to an explicit
guard (default 10, about 3.6M rows) and refused beyond it so that a typo
cannot ask for 12! of anything. Callers pass a larger guard deliberately.
A guard raised past what the machine holds is refused too, before anything
is allocated.
"""

from __future__ import annotations

import os
from math import factorial
from typing import TYPE_CHECKING, Iterator

from .errors import OutOfMemory, ParameterOutOfRange, TooLargeForEnumeration

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GUARD = 10
ROWS_PER_BLOCK = 8192

_matrix_cache: dict[int, np.ndarray] = {}


def check_guard(n: int, guard: int | None, what: str) -> None:
    g = DEFAULT_GUARD if guard is None else guard
    if n > g:
        raise TooLargeForEnumeration(
            f"{what} enumerates all {n}! permutations; guard is {g} "
            f"(pass a larger guard explicitly to override)")


def memory_bytes() -> int:
    """The most memory this process may use: the machine's physical memory,
    or the soft address-space limit if that is lower."""
    import resource
    total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return total if soft == resource.RLIM_INFINITY else min(total, soft)


def perm_matrix(n: int, guard: int | None = None) -> np.ndarray:
    """All permutations of 0..n-1 as an (n!, n) int8 matrix in lex order.

    Built recursively column-block by column-block; cached per n. Rows are
    read-only views; row r is the rank-r permutation. Refused, before any
    allocation, when the matrices of orders up to n not yet cached would
    not fit in :func:`memory_bytes`.
    """
    check_guard(n, guard, "perm_matrix")
    if n < 1:
        raise ParameterOutOfRange(f"permutations need n >= 1, got n={n}")
    cached = _matrix_cache.get(n)
    if cached is not None:
        return cached
    need = sum(factorial(k) * k for k in range(1, n + 1)
               if k not in _matrix_cache)
    have = memory_bytes()
    if need > have:
        raise OutOfMemory(
            f"perm_matrix needs {need} bytes for all {n}! permutations; "
            f"this process may use {have}")
    import numpy as np
    if n == 1:
        m = np.zeros((1, 1), dtype=np.int8)
    else:
        sub = perm_matrix(n - 1, guard)
        block = factorial(n - 1)
        m = np.empty((factorial(n), n), dtype=np.int8)
        values = np.arange(n, dtype=np.int8)
        for a in range(n):
            rest = np.concatenate([values[:a], values[a + 1:]])
            rows = slice(a * block, (a + 1) * block)
            m[rows, 0] = a
            m[rows, 1:] = rest[sub]
    m.setflags(write=False)
    _matrix_cache[n] = m
    return m


def row_blocks(n: int, guard: int | None = None) -> Iterator[np.ndarray]:
    """:func:`perm_matrix` in consecutive slices of ``ROWS_PER_BLOCK`` rows,
    so a sweep's temporaries stay small enough to sit in cache."""
    p = perm_matrix(n, guard)
    return (p[a:a + ROWS_PER_BLOCK] for a in range(0, len(p), ROWS_PER_BLOCK))


def displacement_matrix(n: int, guard: int | None = None) -> np.ndarray:
    """Per-row displacement vectors ``(i - sigma(i)) mod n`` (int16)."""
    import numpy as np
    p = perm_matrix(n, guard)
    idx = np.arange(n, dtype=np.int16)
    return (idx[None, :] - p.astype(np.int16)) % np.int16(n)
