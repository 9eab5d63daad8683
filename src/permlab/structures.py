"""Displacement-pattern counts and the statistics behind joint shift sizes.

For a nonzero shift s, these tools count permutations by where they keep
points in place (sigma(i) = i) and where they push points s ahead
(sigma(j) = (j + s) mod n):

* ``count_required_displacements`` -- all of I fixed, all of J pushed (free
  elsewhere); a closed-form factorial count;
* ``count_exact_displacements``  -- fixed exactly on I, pushed exactly on J;
* ``count_optional_displacements`` -- all of I fixed, all of J pushed, and
  every position in K either fixed or pushed.

The fixed and pushed cells of a shift form closed chains along the cycles
of x -> x + s (the menage board; Touchard 1934, Kaplansky 1943). ``_board``
takes the rook polynomial of any of its cells as one int, a field per
coefficient, by sums and shifts alone; both counts and the joint shift table
read its exact coefficients.

A pair (I, J) is *compatible* for s when I, J, I-s, J+s are pairwise
disjoint; K is *feasible* when it also avoids itself shifted and all four of
those sets. Both are independent sets on the same cycles, counted exactly
from their runs of free positions, or sampled on ``rng.lane_blocks``.
``covariance_estimate`` measures how nearly independent two shift-class
sizes are. No count enumerates or takes a guard: each refuses before the
work only when a bound on its bytes exceeds what this process may use.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import starmap
from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from . import counting
from .enumeration import check_memory
from .errors import ParameterOutOfRange, ints
from .perms import LANES_PER_BLOCK, Checked, block_dtype


class IndexSet(Checked, NamedTuple("IndexSet", [
        ("n", int), ("elements", tuple[int, ...])])):
    """A set of positions inside the cyclic index space 0..n-1; its length
    is its number of elements."""

    __slots__ = ()

    def __new__(cls, n: int, elements: tuple[int, ...]):
        n, *elements = ints((n, *elements), ParameterOutOfRange,
                            "the index set")
        if len(set(elements)) != len(elements) or any(
                not 0 <= e < n for e in elements):
            raise ParameterOutOfRange(
                f"{tuple(elements)!r} is not a set of indices in 0..{n - 1}")
        return super().__new__(cls, n, tuple(sorted(elements)))

    @classmethod
    def of(cls, n: int, elements: Iterable) -> "IndexSet":
        return cls(n, tuple(elements))

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _moved(S: Iterable[int], l: int, n: int) -> frozenset[int]:
    """The shifted set S + l: each position of S moved by l modulo n."""
    return frozenset((e + l) % n for e in S)


def _require_nonzero_shift(n: int, s: int) -> int:
    n, s = ints((n, s), ParameterOutOfRange, "n or s")
    if n < 1:
        raise ParameterOutOfRange(f"order n must be positive, got {n}")
    s %= n
    if s == 0:
        raise ParameterOutOfRange("shift s must be nonzero modulo n")
    return s


def _require_sets(s: int, *sets: IndexSet) -> tuple[int, int]:
    """The one order n of ``sets``, and ``s`` mod n, which must be nonzero."""
    ns = {S.n for S in sets}
    if len(ns) != 1:
        raise ParameterOutOfRange(f"mixed ambient orders {sorted(ns)}")
    n = ns.pop()
    return n, _require_nonzero_shift(n, s)


def _blocked(i: frozenset[int], j: frozenset[int], s: int,
             n: int) -> set[int] | None:
    """i u j u (i-s) u (j+s) when those four are pairwise disjoint, else
    None; the positions and ``s`` are already checked."""
    union: set[int] = set()
    for part in (i, j, _moved(i, -s, n), _moved(j, s, n)):
        if union & part:
            return None
        union |= part
    return union


def is_compatible(I: IndexSet, J: IndexSet, s: int) -> bool:
    """True iff I, J, I-s, J+s are pairwise disjoint."""
    n, s = _require_sets(s, I, J)
    return _blocked(I.as_set(), J.as_set(), s, n) is not None


def is_feasible(K: IndexSet, I: IndexSet, J: IndexSet, s: int) -> bool:
    """True iff (I, J) is compatible for s, K avoids K+s, and K avoids
    I, J, I-s and J+s."""
    n, s = _require_sets(s, K, I, J)
    blocked, k = _blocked(I.as_set(), J.as_set(), s, n), K.as_set()
    return blocked is not None and not (k & _moved(k, s, n) or k & blocked)


def count_required_displacements(I: IndexSet, J: IndexSet, s: int) -> int:
    """Permutations fixing all of I and pushing all of J by s: zero when
    I meets J or J + s, otherwise (n - |I u J|)!."""
    n, s = _require_sets(s, I, J)
    # n! < 2^(n b), b the bit length of n, and its document: n b / 8 bytes
    check_memory(n * n.bit_length() + (1 << 17),   # 8x over; peaks 6.4-6.7x
                 f"the required displacement count at n={n}")
    if _clash(I.as_set(), J.as_set(), n, s):
        return 0
    return factorial(n - len(I.as_set() | J.as_set()))


def _clash(fixed: frozenset[int], pushed: frozenset[int], n: int,
           s: int) -> bool:
    """True when no permutation fixes all of ``fixed`` and pushes all of
    ``pushed`` by s: a position would be both, or a value taken twice."""
    return bool(fixed & pushed or fixed & _moved(pushed, s, n))


def _exactly(at_least: Sequence[int]) -> list[int]:
    """From N_p, the sum over permutations of C(hits, p), the number of
    permutations with exactly a hits, for every a: the coefficients of
    N(x - 1), N(x) = sum_p N_p x^p, by repeated differences. Entries past
    the last nonzero N_p stay zero, so the differences stop there."""
    exact = list(at_least)
    top = max((p for p, c in enumerate(exact) if c), default=0)
    for a in range(top):
        for p in range(top - 1, a - 1, -1):
            exact[p] -= exact[p + 1]
    return exact


def _cycles(n: int, s: int) -> list[list[int]]:
    """The gcd(n, s) cycles of x -> x + s, each from its least position."""
    g = math.gcd(n, s)
    return [[(c + i * s) % n for i in range(n // g)] for c in range(g)]


def _runs(usable: Sequence[bool]) -> list[int] | None:
    """The lengths of the runs of usable positions around a cycle, or None
    when the whole cycle is usable; the first may be 0."""
    parts = bytes(usable).split(b"\0")   # the last run wraps into the first
    return None if len(parts) == 1 else [len(parts[0]) + len(parts[-1]),
                                         *filter(None, map(len, parts[1:-1]))]


def _board(n: int, s: int, cell: Callable[[int, bool], int | None]) -> list[int]:
    """Coefficients of the rook polynomial of the fixed cells (y, y) and
    pushed cells (y, y + s) to which ``cell(y, pushed)`` gives a power of x.

    The polynomial is one int with each coefficient, below 4^n, in its own
    field of n // 4 + 1 bytes, so polynomials add as ints and a rook on a
    cell is a shift by its power. Each cycle of x -> x + s holds a closed
    chain of cells, each sharing a line with both neighbours: a placement
    leaves the first cell empty, or holds it and not its neighbours.
    """
    width = n // 4 + 1

    def chain(cells: Sequence[int | None], rooks: int) -> int:
        empty, held = rooks, 0   # by the last cell's state
        for power in cells:
            empty, held = empty + held, (0 if power is None
                                         else empty << 8 * width * power)
        return empty + held

    rooks = 1
    for cycle in _cycles(n, s):
        cells = [cell(y, pushed) for y in cycle for pushed in (False, True)]
        held = 0 if cells[0] is None else chain(
            cells[2:-1], rooks << 8 * width * cells[0])
        rooks = chain(cells[1:], rooks) + held
    data = rooks.to_bytes((rooks.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)]


def _board_bytes(n: int) -> int:
    """Bytes for a board of one kind of cell: n + 1 rook numbers below 4^n
    and 128 bytes each, eight times over (1.7-3.7x the peak, n = 300-3000)."""
    return 8 * (n + 1) * (n // 4 + 128) + 4096


def _table_bytes(n: int) -> int:
    """Bytes for the joint table: (n + 1)^2 entries below n! < 2^(n b), b the
    bit length of n, and 128 bytes each, four times over (3.4-3.6x the peak)."""
    return 4 * (n + 1) ** 2 * (n * n.bit_length() // 8 + 128)


def count_exact_displacements(I: IndexSet, J: IndexSet, s: int) -> int:
    """Permutations fixed exactly on I and pushed by s exactly on J.

    With I and J pinned, the m other positions must avoid their fixed and
    their pushed cells in the columns the pins leave. With r_k the rook
    numbers of those cells, the count is sum_k (-1)^k r_k (m - k)!.
    """
    n, s = _require_sets(s, I, J)
    check_memory(_board_bytes(n), f"the exact displacement count at n={n}")
    i, j = I.as_set(), J.as_set()
    if _clash(i, j, n, s):
        return 0
    rows, cols = i | j, i | _moved(j, s, n)
    rooks = _board(n, s, lambda y, pushed: None if y in rows or
                   (y + s * pushed) % n in cols else 1)
    m = n - len(rows)
    return sum((-1) ** k * c * factorial(m - k) for k, c in enumerate(rooks))


def count_optional_displacements(K: IndexSet, I: IndexSet, J: IndexSet,
                                 s: int) -> int:
    """Permutations fixing I, pushing J, and fixing-or-pushing every k in K.

    Each placement of a rook in every row of K outside I u J, on its fixed
    or pushed cell in a column the pins leave, has (n - |I u J u K|)!
    completions; a feasible K has no two cells in a line: 2^|K| placements.
    """
    n, s = _require_sets(s, K, I, J)
    check_memory(_board_bytes(n), f"the optional displacement count at n={n}")
    i, j, k = I.as_set(), J.as_set(), K.as_set()
    if _clash(i, j, n, s):
        return 0
    rows, cols = k - i - j, i | _moved(j, s, n)
    rooks = _board(n, s, lambda y, pushed: 1 if y in rows and
                   (y + s * pushed) % n not in cols else None)
    placed = rooks[len(rows)] if len(rows) < len(rooks) else 0
    return placed * factorial(n - len(i | j | k))


class ProbabilityReport(NamedTuple):
    """Exact or sampled probability together with its reference bound."""

    kind: str
    params: dict
    probability: float
    closed_form_bound: Fraction
    exact: Fraction | None = None       # set in exact mode
    std_err: float | None = None        # set in sampled mode
    trials: int | None = None


def _count_bytes(n: int, k: int) -> int:
    """Bytes for a count of k-sets: k + 1 coefficients below 2^n and 128 bytes
    each, four times over, and 512 a position (traced peaks stay below 230)."""
    return 4 * (k + 1) * (n // 8 + 128) + 512 * n


def _spread_sets(n: int, s: int, k: int, blocked: set[int]) -> int:
    """The k-sets K outside ``blocked`` with K and K + s disjoint, from the
    runs of free positions on the cycles of x -> x + s: C(m - j + 1, j)
    j-sets on a run of m, L/(L - j) C(L - j, j) on a whole free cycle of L
    (Kaplansky 1943), and the x^k coefficient of their product."""
    factors: Counter[tuple[int, ...]] = Counter()
    for cycle in _cycles(n, s):
        runs, L = _runs([x not in blocked for x in cycle]), len(cycle)
        if runs is None:
            factors[tuple(L * comb(L - j, j) // (L - j)
                          for j in range(min(k, L // 2) + 1))] += 1
        else:
            factors.update(tuple(comb(m - j + 1, j)
                                 for j in range(min(k, (m + 1) // 2) + 1))
                           for m in runs)
    # a product of two powers costs about the square of their length, so
    # only the most common factor, if common enough, is raised at once; the
    # rest multiply in one at a time
    polys: list[Sequence[int]] = []
    for factor, e in factors.most_common():
        polys += ([_power(factor, e, k)] if not polys and e >= 8
                  else [factor] * e)
    sets = [1]
    for poly in polys:
        product = [0] * min(k + 1, len(sets) + len(poly) - 1)
        for i, a in enumerate(sets):
            for j, b in enumerate(poly[:len(product) - i]):
                product[i + j] += a * b
        sets = product
    return sets[k] if k < len(sets) else 0


def _power(a: Sequence[int], e: int, k: int) -> list[int]:
    """The coefficients of a(x)^e up to x^k, for a(0) = 1, by J. C. P.
    Miller's recurrence j b_j = sum_i ((e + 1) i - j) a_i b_{j-i}: b_j is an
    integer, so each division is exact."""
    d = len(a) - 1
    ia = [i * c for i, c in enumerate(a)]
    b = [1]
    for j in range(1, min(k, e * d) + 1):
        back = b[j - min(j, d):j][::-1]   # b_{j-1}, b_{j-2}, ..., b_{j-i}
        b.append(((e + 1) * sum(map(mul, ia[1:], back))
                  - j * sum(map(mul, a[1:], back))) // j)
    return b


def _sample_lanes(pool: int, trials: int) -> int:
    """Lanes of an ``_estimate`` block: at most 2^22 entries of the pool,
    so fewer lanes for a long pool."""
    return max(1, min(LANES_PER_BLOCK, trials, (1 << 22) // (pool + 1)))


def _sample_bytes(n: int, pool: int, size: int, trials: int) -> int:
    """Bytes for ``_estimate``: 200 a position, 8 a pool and 64 a drawn entry."""
    lanes = _sample_lanes(pool, trials)
    return 200 * n + 8 * lanes * (pool + 8 * size) + (1 << 16)


def _is_exact(mode: str, trials: int) -> bool:
    """Whether ``mode`` is exact; sampled mode needs positive ``trials``."""
    if mode not in ("exact", "sampled"):
        raise ParameterOutOfRange(f"mode must be exact or sampled, not {mode!r}")
    if mode == "sampled" and trials < 1:
        raise ParameterOutOfRange("trials must be positive")
    return mode == "exact"


def _estimate(kind: str, params: dict, bound: Fraction, trials: int,
              seed: int, size: int, split: int, excluded: Sequence[int] = (),
              blocked: Sequence[int] = ()) -> ProbabilityReport:
    """How often a partial shuffle's first ``size`` entries x of 0..n-1 less
    ``excluded`` hit: x, x[:split] - s and x[split:] + s distinct mod n, none
    of x ``blocked``. Lane i of a ``rng.lane_blocks`` block runs trial a + i;
    a block holds at most 2^22 entries, with fewer lanes for a long pool."""
    import numpy as np
    from .rng import lane_blocks
    n, s = params["n"], params["s"]
    pool = np.delete(np.arange(n, dtype=block_dtype(n)), excluded)
    lanes = _sample_lanes(len(pool), trials)
    buf, hits = np.empty((lanes, len(pool)), dtype=pool.dtype), 0
    for _, rng in lane_blocks(seed, 0, trials, lanes):
        drawn, rows = buf[:rng.lanes], np.arange(rng.lanes)
        drawn[:] = pool
        for j in range(size):
            pick = j + rng.randbelow(len(pool) - j)
            drawn[rows, j], drawn[rows, pick] = drawn[rows, pick], drawn[rows, j]
        x = drawn[:, :size].astype(np.int64)
        cells = np.sort(np.hstack((x, (x[:, :split] - s) % n, (x[:, split:] + s) % n)))
        hits += int(np.count_nonzero((np.diff(cells) != 0).all(1)
                                     & ~np.isin(x, blocked).any(1)))
    est = hits / trials
    se = math.sqrt(est * (1 - est) / trials)
    return ProbabilityReport(kind, {**params, "seed": seed}, est, bound,
                             std_err=se, trials=trials)


def compatible_pair_stats(n: int, t: int, s: int, mode: str = "exact",
                          trials: int = 100_000,
                          seed: int = 0) -> ProbabilityReport:
    """Probability that uniformly chosen disjoint I, J of size t are
    compatible for shift s, with the lower bound max(0, 1 - 4t/(n-2t))^(2t)
    attached (unclamped, the base is negative when 6t > n and overshoots)."""
    n, t, trials, seed = ints((n, t, trials, seed), ParameterOutOfRange,
                              "n, t, trials or seed")
    if t < 1 or 2 * t >= n:
        raise ParameterOutOfRange(f"need 1 <= t and 2t < n, got t={t}, n={n}")
    s = _require_nonzero_shift(n, s)
    exact = _is_exact(mode, trials)
    check_memory(_count_bytes(n, 2 * t) if exact
                 else _sample_bytes(n, n, 2 * t, trials),
                 f"the compatible pair {'count' if exact else 'sample'} at n={n}")
    bound = Fraction(max(0, n - 6 * t), n - 2 * t) ** (2 * t)
    params = {"n": n, "t": t, "s": s, "mode": mode}
    if exact:   # the 2t disjoint pairs {x, x + s} of I and J, split in two
        p = Fraction(comb(2 * t, t) * _spread_sets(n, s, 2 * t, set()),
                     comb(n, t) * comb(n - t, t))
        return ProbabilityReport("compatible_pair", params, float(p), bound, p)
    return _estimate("compatible_pair", params, bound, trials, seed,
                     2 * t, t)   # I - s and J + s


def canonical_compatible_pair(n: int, t: int, s: int) -> tuple[IndexSet, IndexSet]:
    """The lexicographically first compatible (I, J) with |I| = |J| = t.

    Each a in I takes the positions {a - s, a} and each b in J the positions
    {b, b + s}, and (I, J) is compatible exactly when these 2t pairs are
    disjoint. Both are pairs {x, x + s} along the cycles of x -> x + s, where
    a run of m usable pairs in a row holds at most (m + 1) // 2 disjoint
    ones and a whole cycle of length L at most L // 2. One ascending pass
    picks I, then J, each element the least after which the free positions
    hold the rest of the 2t pairs: anywhere at an I step, above it at a J step.

    No choice is taken back: some candidate always fits next. At a J step
    the least of the room above does. Once step k picks e in I, label t-k-1
    of the 2t-k-1 free pairs left I (a = x + s), the rest J (b = x): that
    completes a compatible (I*, J*). An extra a' < e in I* would have been
    picked in place of the first choice above it, whose step tried a' first
    with the rest of (I*, J*) fitting beside it. So all extra a' exceed e,
    and the least fits next. The room check before the search is step 0.
    """
    n, t = ints((n, t), ParameterOutOfRange, "n or t")
    if t < 0:
        raise ParameterOutOfRange(f"pair size t must be non-negative, got {t}")
    s = _require_nonzero_shift(n, s)
    cycles = _cycles(n, s)

    def room(above: int, taken: set[int]) -> int:
        """The most disjoint free pairs {x, x + s} with x above ``above``."""
        total = 0
        for cycle in cycles:
            runs = _runs([x > above and x not in taken
                          and (x + s) % n not in taken for x in cycle])
            total += (len(cycle) // 2 if runs is None
                      else sum((m + 1) // 2 for m in runs))
        return total

    if room(-1, set()) < 2 * t:
        raise ParameterOutOfRange(
            f"no compatible pair of size {t} exists for n={n}, s={s}")

    def pair(k: int, e: int) -> set[int]:
        """The positions taken by e as element k of the search."""
        x = e - s if k < t else e
        return {x % n, (x + s) % n}

    chosen, taken = [], set()   # the elements of I, then J; their positions
    for k in range(2 * t):
        e = next(c for c in range(0 if k in (0, t) else e + 1, n)
                 if not pair(k, c) & taken
                 and room(-1 if k < t else c, taken | pair(k, c))
                 >= 2 * t - k - 1)
        chosen.append(e)
        taken |= pair(k, e)
    return IndexSet(n, tuple(chosen[:t])), IndexSet(n, tuple(chosen[t:]))


def feasible_set_stats(n: int, t: int, k: int, s: int, mode: str = "exact",
                       trials: int = 100_000,
                       seed: int = 0) -> ProbabilityReport:
    """Probability that a uniform K of size k outside the canonical compatible
    (I, J) is feasible, with (1 - (2t+k)/(n-2t-k))^k attached: a lower bound
    where some K is feasible, it may be positive where none is (k=4, n=9, s=3)."""
    n, t, k, trials, seed = ints((n, t, k, trials, seed), ParameterOutOfRange,
                                 "n, t, k, trials or seed")
    if k < 0 or 2 * k > n - 4 * t:
        raise ParameterOutOfRange(f"need 2k <= n - 4t, got k={k}, t={t}, n={n}")
    exact = _is_exact(mode, trials)   # refused before the pair search
    check_memory(_count_bytes(n, k) if exact
                 else _sample_bytes(n, n - 2 * t, k, trials),
                 f"the feasible set {'count' if exact else 'sample'} at n={n}")
    s = _require_nonzero_shift(n, s)
    I, J = canonical_compatible_pair(n, t, s)   # checks t and its room
    blocked = _blocked(I.as_set(), J.as_set(), s, n)
    bound = (1 - Fraction(2 * t + k, n - 2 * t - k)) ** k
    params = {"n": n, "t": t, "k": k, "s": s, "mode": mode,
              "I": list(I.elements), "J": list(J.elements)}
    if exact:
        p = Fraction(_spread_sets(n, s, k, blocked), comb(n - 2 * t, k))
        return ProbabilityReport("feasible_set", params, float(p), bound, p)
    return _estimate("feasible_set", params, bound, trials, seed, k, 0,
                     I.elements + J.elements, sorted(blocked))   # K + s


def _require_classes(n: int, i: int, j: int,
                     t: int = 0) -> tuple[int, int, int, int]:
    """n, i, j and t as ints, refused unless i != j are classes of order n
    and 0 <= t <= n."""
    n, i, j, t = ints((n, i, j, t), ParameterOutOfRange, "n, i, j or t")
    if i == j:
        raise ParameterOutOfRange("shift classes i and j must differ")
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterOutOfRange(f"classes ({i}, {j}) not in 0..{n - 1}")
    if not 0 <= t <= n:
        raise ParameterOutOfRange(f"t={t} not in 0..{n}")
    return n, i, j, t


def joint_shift_table(n: int, i: int,
                      j: int) -> dict[tuple[int, int], Fraction]:
    """Exact joint distribution of the sizes of shift classes i and j.

    Class l holds the cells (x, x - l); moving every column on by i makes
    classes i and j the fixed and pushed cells of s = i - j. Permutations
    through a placement of p rooks in class i and q in class j number
    R_{p,q} (n - p - q)!, and binomial inversion in p, then q, leaves those
    with exactly a and b.
    """
    n, i, j, _ = _require_classes(n, i, j)
    check_memory(_table_bytes(n), f"the joint shift table at n={n}")
    rooks = _board(n, (i - j) % n, lambda y, pushed: 1 if pushed else n + 1)
    at_least = [[0] * (n + 1) for _ in range(n + 1)]
    for key, c in enumerate(rooks):
        if c:   # a zero field may sit past p + q = n
            p, q = divmod(key, n + 1)
            at_least[p][q] = c * factorial(n - p - q)
    by_b = [_exactly(column) for column in zip(*map(_exactly, at_least))]
    total = factorial(n)
    return {(a, b): Fraction(by_b[b][a], total)
            for a in range(n + 1) for b in range(n + 1) if by_b[b][a]}


def joint_shift_pmf(n: int, i: int, j: int, t: int) -> Fraction:
    """Exact probability that shift classes i and j both have size t."""
    n, i, j, t = _require_classes(n, i, j, t)
    return joint_shift_table(n, i, j).get((t, t), Fraction(0))


class IndicatorStat(NamedTuple):
    """Moments of the indicators [size of class i = t], [size of class j = t]."""

    n: int
    t: int
    i: int
    j: int
    mode: str
    trials: int | None
    e_zi: float
    e_zj: float
    e_zz: float
    cov: float
    se_zi: float
    se_zj: float
    se_cov: float
    exact_marginal: Fraction   # shift_count_pmf(n, t), the common marginal


def covariance_estimate(n: int, t: int, i: int, j: int,
                        trials: int = 100_000, seed: int = 0,
                        mode: str = "sampled") -> IndicatorStat:
    """Covariance of the two indicator variables, sampled or exact.

    Sampled mode draws ``trials`` seeded permutations (trial index keyed, so
    results do not depend on batching) and reports standard errors; exact
    mode reads :func:`joint_shift_table` and reports zero standard errors.
    """
    n, t, i, j, trials, seed = ints((n, t, i, j, trials, seed),
                                    ParameterOutOfRange,
                                    "n, t, i, j, trials or seed")
    if _is_exact(mode, trials):
        e_zz = joint_shift_pmf(n, i, j, t)   # checks i, j, t; refuses past memory
        marginal = counting.shift_count_pmf(n, t)
        cov = e_zz - marginal * marginal
        return IndicatorStat(n, t, i, j, "exact", None,
                             float(marginal), float(marginal), float(e_zz),
                             float(cov), 0.0, 0.0, 0.0, marginal)
    _require_classes(n, i, j, t)
    from .perms import shift_reduce
    from .rng import seeded_blocks
    blocks = seeded_blocks(seed, n, 0, trials)   # refuses past memory at once
    marginal = counting.shift_count_pmf(n, t)
    # per block, the rows with class i, class j, and both of size t
    counts = sum(starmap(lambda block, _: shift_reduce(block, lambda c: (
        c[:, [i, j, i]] == t) & (c[:, [i, j, j]] == t)).sum(axis=0), blocks))
    p_i, p_j, p_ij = (counts / trials).tolist()
    cov = p_ij - p_i * p_j
    se_i = math.sqrt(p_i * (1 - p_i) / trials)
    se_j = math.sqrt(p_j * (1 - p_j) / trials)
    # delta method, treating the three estimators as uncorrelated
    var_cov = (p_ij * (1 - p_ij)
               + p_j * p_j * p_i * (1 - p_i)
               + p_i * p_i * p_j * (1 - p_j)) / trials
    se_cov = math.sqrt(var_cov)
    return IndicatorStat(n, t, i, j, "sampled", trials, p_i, p_j, p_ij,
                         cov, se_i, se_j, se_cov, marginal)
