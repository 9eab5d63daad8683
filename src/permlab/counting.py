"""Exact counting: factorials, derangements, rencontres numbers, shift pmf.

Everything here is integer or rational arithmetic, the crowding threshold
included: floats never enter a decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import enumeration
from .errors import ParameterOutOfRange


def derangements(n: int) -> int:
    """Number of permutations of 0..n-1 with no fixed point.

    D_n = sum over i of (-1)^i n!/i!, the Horner steps x -> j*x + (-1)^j
    for j = 1..n applied to D_0 = 1, composed pairwise in a product tree so
    that the big multiplications are few and balanced.
    """
    if n < 0:
        raise ParameterOutOfRange(f"order n must be non-negative, got {n}")
    p, q = _horner_steps(1, n + 1)
    return p + q


def _horner_steps(a: int, b: int) -> tuple[int, int]:
    """(p, q) such that x -> p*x + q is x -> j*x + (-1)^j for j = a..b-1,
    applied in that order."""
    if b - a <= 32:
        p, q = 1, 0
        for j in range(a, b):
            p, q = p * j, q * j + (-1 if j & 1 else 1)
        return p, q
    m = (a + b) // 2
    p1, q1 = _horner_steps(a, m)
    p2, q2 = _horner_steps(m, b)
    return p1 * p2, p2 * q1 + q2


def rencontres(n: int, r: int) -> int:
    """Number of permutations of 0..n-1 with exactly r fixed points."""
    if not 0 <= r <= n:
        raise ParameterOutOfRange(f"r={r} not in 0..{n}")
    return comb(n, r) * derangements(n - r)


def shift_count_pmf(n: int, k: int) -> Fraction:
    """Exact probability that a given shift class of a uniform permutation
    has size k; the same for every class, and equal to D_{n,k}/n!."""
    if not 0 <= k <= n:
        raise ParameterOutOfRange(f"k={k} not in 0..{n}")
    return Fraction(derangements(n - k), factorial(k) * factorial(n - k))


def _row_bytes(n: int) -> int:
    """Bytes to allow for a pmf row and its document. Each of the row's
    2(n+1) numerators and denominators is at most n! < 2^(n*b), b the bit
    length of n; the document's decimal copies of them peak at about a byte
    per bit of that bound, and twice that is allowed."""
    return 4 * (n + 1) * n * n.bit_length()


def shift_pmf(n: int) -> list[Fraction]:
    """``shift_count_pmf(n, k)`` for k = 0..n, from one pass of the
    derangement recurrence and one running factorial.

    P(k) = D_{n-k}/(k!(n-k)!), which is C(n,k)D_{n-k}/n! with smaller
    operands for the reduction. Refused before the work when a bound on the
    row's bytes exceeds what this process may use.
    """
    if n < 0:
        raise ParameterOutOfRange(f"order n must be non-negative, got {n}")
    enumeration.check_memory(_row_bytes(n), f"the exact pmf at n={n}")
    d = [1, 0]                          # D_0, D_1
    for m in range(2, n + 1):
        d.append((m - 1) * (d[-1] + d[-2]))
    f = [1]                             # 0!, 1!, ..., n!
    for m in range(1, n + 1):
        f.append(f[-1] * m)
    return [Fraction(d[n - k], f[k] * f[n - k]) for k in range(n + 1)]


def typical_max_shift(n: int) -> int:
    """Largest k with 2e*k! <= n.

    A uniform permutation has some shift class of at least this size with
    probability better than guesswork; it pins the scale of the most common
    displacement. Defined for n >= 6 (so the answer is at least 1).

    e*k! = a_k + r_k, where a_k = sum over i <= k of k!/i! is an integer
    (a_1 = 2, a_k = k*a_{k-1} + 1) and r_k, the sum over i > k, lies in
    (0, 1/k). For k >= 2 that puts 2e*k! strictly between 2a_k and 2a_k + 1,
    so 2e*k! <= n exactly when 2a_k < n. For k = 1, 2e < 6 <= n always
    holds, so the loop starts there untested.
    """
    if n < 6:
        raise ParameterOutOfRange(f"typical_max_shift needs n >= 6, got {n}")
    k, a = 1, 2
    while 2 * (a := (k + 1) * a + 1) < n:
        k += 1
    return k
