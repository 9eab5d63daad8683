"""Exact counting: factorials, derangements, rencontres numbers, shift pmf.

Everything here is integer or rational arithmetic, the crowding threshold
included: floats never enter a decision. The pmf's printed ratios come
from the same recurrence on integer Decimals, their reducing factors from
residues mod primes p <= n: no big int becomes text, no big gcd runs.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     localcontext)
from fractions import Fraction
from math import comb, factorial

from . import enumeration
from .errors import ParameterOutOfRange
from .perms import ints


def derangements(n: int) -> int:
    """Number of permutations of 0..n-1 with no fixed point.

    D_n = sum over i of (-1)^i n!/i!, the Horner steps x -> j*x + (-1)^j
    for j = 1..n applied to D_0 = 1, composed pairwise in a product tree so
    that the big multiplications are few and balanced.
    """
    (n,) = ints((n,), ParameterOutOfRange, "n")
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
    n, r = ints((n, r), ParameterOutOfRange, "n or r")
    if not 0 <= r <= n:
        raise ParameterOutOfRange(f"r={r} not in 0..{n}")
    return comb(n, r) * derangements(n - r)


def shift_count_pmf(n: int, k: int) -> Fraction:
    """Exact probability that a given shift class of a uniform permutation
    has size k; the same for every class, and equal to D_{n,k}/n!."""
    n, k = ints((n, k), ParameterOutOfRange, "n or k")
    if not 0 <= k <= n:
        raise ParameterOutOfRange(f"k={k} not in 0..{n}")
    return Fraction(derangements(n - k), factorial(k) * factorial(n - k))


def _row_bytes(n: int) -> int:
    """Bytes to allow for a pmf row and its document. Each of the row's
    2(n+1) numerators and denominators is at most n! < 2^(n*b), b the bit
    length of n; the document's decimal copies of them peak at about a byte
    per bit of that bound, and twice that is allowed; the Decimal terms they
    are written from are freed before that peak."""
    return 4 * (n + 1) * n * n.bit_length()


def _recurrence(n: int, one):
    """D_0..D_n and 0!..n! as multiples of ``one``: the int 1, or a Decimal
    1 under an exact context. D_m = (m-1)(D_{m-1} + D_{m-2}) and
    m! = (m-1)!*m take only small factors, so both types run the same steps."""
    d = [one, 0 * one]                  # D_0, D_1
    for m in range(2, n + 1):
        d.append((m - 1) * (d[-1] + d[-2]))
    f = [one]
    for m in range(1, n + 1):
        f.append(f[-1] * m)
    return d, f


def _order(n) -> int:
    """``n`` read as a pmf order, refused when negative, and before any
    arithmetic when ``_row_bytes(n)`` exceeds what this process may use."""
    (n,) = ints((n,), ParameterOutOfRange, "n")
    if n < 0:
        raise ParameterOutOfRange(f"order n must be non-negative, got {n}")
    enumeration.check_memory(_row_bytes(n), f"the exact pmf at n={n}")
    return n


def shift_pmf(n: int) -> list[Fraction]:
    """``shift_count_pmf(n, k)`` for k = 0..n, from one pass of the
    derangement recurrence and one running factorial.

    P(k) = D_{n-k}/(k!(n-k)!): C(n,k)D_{n-k}/n! with smaller operands for
    the gcd that reduces it, most of the cost. Refused as ``_order`` is.
    """
    n = _order(n)
    d, f = _recurrence(n, 1)
    dens = [f[k] * f[n - k] for k in range(n // 2 + 1)]   # rows k, n-k share
    return [Fraction(d[n - k], dens[min(k, n - k)]) for k in range(n + 1)]


def _legendre(m: int, p: int) -> int:
    """The power of the prime p in m!, by Legendre's formula."""
    return m and m // p + _legendre(m // p, p)


def _reducers(n: int, d: list[int]) -> list[int]:
    """gcd(D_m, (n-m)! m!) for m = 0..n, from D = D_0..D_n, with no big gcd.

    Its primes p are at most n, each to the power v_p(D_m) capped at
    v_p((n-m)!) + v_p(m!), a cap that is 0 unless m >= p or m <= n - p.
    Mod p, the terms (-1)^(m-t) m!/(m-t)! of D_m vanish for t >= p and are
    +-those of D_r for t < p, r = m mod p, so D_m = +-D_r. One pass of the
    recurrence mod p over r <= min(p-1, n-p) thus finds every m with
    p | D_m and a cap, and D_m mod p^2, p^3, ... gives the power. D_1 = 0
    reaches every cap: its gcd is (n-1)!, and its row prints as 0/1.
    """
    g, sieve = [1] * (n + 1), bytearray([1]) * (n + 1)
    for p in range(2, n + 1):
        if not sieve[p]:                    # Eratosthenes
            continue
        sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
        a, b, zeros = 1, 0, [1]             # D_0, D_1 mod p; p | D_1
        for r in range(2, min(p, n - p + 1)):
            a, b = b, (r - 1) * (a + b) % p
            if not b:
                zeros.append(r)
        for r in zeros:
            for m in range(r, n + 1, p):
                cap = _legendre(m, p) + _legendre(n - m, p)
                e = min(cap, 1)                 # p | D_m
                while e < cap and not d[m] % p ** (e + 1):
                    e += 1
                g[m] *= p ** e
    return g


def shift_pmf_ratios(n: int) -> list[tuple[str, float]]:
    """``shift_pmf(n)`` as each term's ``reporting.ratio_text`` and float,
    with no big gcd and no Fraction; refused as ``shift_pmf`` is.

    Row k is D_m/(k! m!), m = n - k, reduced by ``_reducers``' g; its
    float is the int quotient, rounded once as the reduced pair's is. The
    text comes from a second pass on integer Decimals under an exact
    context (an inexact step raises): Decimal digits print in linear time,
    a big int's in about quadratic time. Rows k and n-k share k! m!.
    """
    n = _order(n)
    d, f = _recurrence(n, 1)
    gs = _reducers(n, d)
    values = [0.0] * (n + 1)
    for k in range(n // 2 + 1):
        den = f[k] * f[n - k]
        values[k], values[n - k] = d[n - k] / den, d[k] / den
    del d, f
    texts: list[str] = [""] * (n + 1)
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact])
    with localcontext(exact):
        d, f = _recurrence(n, Decimal(1))
        for k in range(n // 2 + 1):
            j = n - k
            den = f[k] * f[j]
            texts[k] = _ratio_digits(gs[j], d[j], den)
            if j != k:
                texts[j] = _ratio_digits(gs[k], d[k], den)
            d[j] = d[k] = f[k] = f[j] = None
    return list(zip(texts, values))


def _ratio_digits(g: int, p: Decimal, den: Decimal) -> str:
    """``ratio_text`` of p/den, which g reduces; in Decimal."""
    return f"{p / g}/{den / g}"


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
    (n,) = ints((n,), ParameterOutOfRange, "n")
    if n < 6:
        raise ParameterOutOfRange(f"typical_max_shift needs n >= 6, got {n}")
    k, a = 1, 2
    while 2 * (a := (k + 1) * a + 1) < n:
        k += 1
    return k
