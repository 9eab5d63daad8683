"""Shared machinery for exhaustive sweeps over the symmetric group.

Full sweeps are guarded: n! rows are materialized only up to an explicit
guard (default 10, about 3.6M rows) and refused beyond it so that a typo
cannot ask for 12! of anything. Callers pass a larger guard deliberately.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

import numpy as np

from .errors import ParameterOutOfRange, TooLargeForEnumeration

DEFAULT_GUARD = 10
ROWS_PER_BLOCK = 8192

_matrix_cache: dict[int, np.ndarray] = {}


def check_guard(n: int, guard: int | None, what: str) -> None:
    g = DEFAULT_GUARD if guard is None else guard
    if n > g:
        raise TooLargeForEnumeration(
            f"{what} enumerates all {n}! permutations; guard is {g} "
            f"(pass a larger guard explicitly to override)")


def perm_matrix(n: int, guard: int | None = None) -> np.ndarray:
    """All permutations of 0..n-1 as an (n!, n) int8 matrix in lex order.

    Built recursively column-block by column-block; cached per n. Rows are
    read-only views; row r is the rank-r permutation.
    """
    check_guard(n, guard, "perm_matrix")
    if n < 1:
        raise ParameterOutOfRange(f"permutations need n >= 1, got n={n}")
    cached = _matrix_cache.get(n)
    if cached is not None:
        return cached
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
    p = perm_matrix(n, guard)
    idx = np.arange(n, dtype=np.int16)
    return (idx[None, :] - p.astype(np.int16)) % np.int16(n)
