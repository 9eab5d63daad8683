"""Displacement-pattern counts and the statistics behind joint shift sizes.

For a nonzero shift s, these tools count permutations by where they keep
points in place (sigma(i) = i) and where they push points s ahead
(sigma(j) = (j + s) mod n):

* ``count_required_displacements`` -- all of I fixed, all of J pushed (free
  elsewhere); a closed-form factorial count;
* ``count_exact_displacements``  -- fixed exactly on I, pushed exactly on J;
* ``count_optional_displacements`` -- all of I fixed, all of J pushed, and
  every position in K either fixed or pushed.

The fixed and pushed cells of a shift form closed chains (the menage board;
Touchard 1934, Kaplansky 1943). ``_board`` takes the rook polynomial of any
of its cells as one int, a field per coefficient, by sums and shifts alone;
both counts and the joint shift table read its exact coefficients. They
enumerate nothing and take no guard: each refuses before the work only when
a bound on its bytes exceeds what this process may use.

A pair (I, J) is *compatible* for s when I, J, I-s, J+s are pairwise
disjoint; K is *feasible* when it also avoids itself shifted and all four of
those sets. The sampled estimators report how common compatibility and
feasibility are, and ``covariance_estimate`` measures how nearly independent
the sizes of two shift classes are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from . import counting
from .enumeration import check_memory, factorial_past, guard_value
from .errors import ParameterOutOfRange, TooLargeForEnumeration
from .perms import ints


@dataclass(frozen=True)
class IndexSet:
    """A set of positions inside the cyclic index space 0..n-1."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        n, *elements = ints((self.n, *self.elements), ParameterOutOfRange,
                            "the index set")
        if len(set(elements)) != len(elements) or any(
                not 0 <= e < n for e in elements):
            raise ParameterOutOfRange(
                f"{tuple(elements)!r} is not a set of indices in 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(sorted(elements)))

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


def _fits(k: frozenset[int], blocked: set[int], s: int, n: int) -> bool:
    """K avoids K + s and the positions ``blocked`` by a compatible pair."""
    return not (k & _moved(k, s, n) or k & blocked)


def is_compatible(I: IndexSet, J: IndexSet, s: int) -> bool:
    """True iff I, J, I-s, J+s are pairwise disjoint."""
    n, s = _require_sets(s, I, J)
    return _blocked(I.as_set(), J.as_set(), s, n) is not None


def is_feasible(K: IndexSet, I: IndexSet, J: IndexSet, s: int) -> bool:
    """True iff (I, J) is compatible for s, K avoids K+s, and K avoids
    I, J, I-s and J+s."""
    n, s = _require_sets(s, K, I, J)
    blocked = _blocked(I.as_set(), J.as_set(), s, n)
    return blocked is not None and _fits(K.as_set(), blocked, s, n)


def count_required_displacements(I: IndexSet, J: IndexSet, s: int) -> int:
    """Permutations fixing all of I and pushing all of J by s: zero when
    I meets J or J + s, otherwise (n - |I u J|)!."""
    n, s = _require_sets(s, I, J)
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

    g = math.gcd(n, s)
    rooks = 1
    for x in range(g):
        cells = [cell((x + k * s) % n, pushed)
                 for k in range(n // g) for pushed in (False, True)]
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


@dataclass(frozen=True)
class ProbabilityReport:
    """Exact or sampled probability together with its reference bound."""

    kind: str
    params: dict
    probability: float
    exact: Fraction | None        # set in exact mode
    std_err: float | None         # set in sampled mode
    trials: int | None
    closed_form_bound: Fraction


def _check_outcomes(kind: str, count: int, guard: int | None) -> None:
    """Refuse exact ``kind`` past (guard)! outcomes, before building any."""
    g = guard_value(guard)
    if count > factorial_past(g, count):
        raise TooLargeForEnumeration(
            f"exact {kind} enumerates more than {g}! outcomes")


def _is_exact(mode: str, trials: int) -> bool:
    """Whether ``mode`` is exact; sampled mode needs positive ``trials``."""
    if mode not in ("exact", "sampled"):
        raise ParameterOutOfRange(f"mode must be exact or sampled, not {mode!r}")
    if mode == "sampled" and trials < 1:
        raise ParameterOutOfRange("trials must be positive")
    return mode == "exact"


def _estimate(kind: str, params: dict, bound: Fraction, exact: bool,
              trials: int, seed: int, outcomes: Iterable[Sequence[int]],
              count: int, pool: Sequence[int], size: int,
              hit: Callable[[Sequence[int]], bool]) -> ProbabilityReport:
    """How often ``hit`` holds: over all ``count`` ``outcomes`` when
    ``exact``, else over ``trials`` draws of ``size`` entries from ``pool``,
    trial i drawn by a partial Fisher-Yates shuffle on
    ``derive_seed(seed, i)``."""
    if exact:
        p = Fraction(sum(map(hit, outcomes)), count)
        return ProbabilityReport(kind, params, float(p), p, None, None, bound)
    from .rng import Rng, derive_seed
    hits = 0
    for trial in range(trials):
        rng = Rng(derive_seed(seed, trial))
        drawn = list(pool)
        for i in range(size):
            j = i + rng.randbelow(len(drawn) - i)
            drawn[i], drawn[j] = drawn[j], drawn[i]
        hits += hit(drawn[:size])
    est = hits / trials
    se = math.sqrt(est * (1 - est) / trials)
    return ProbabilityReport(kind, {**params, "seed": seed}, est, None, se,
                             trials, bound)


def compatible_pair_stats(n: int, t: int, s: int, mode: str = "exact",
                          trials: int = 100_000, seed: int = 0,
                          guard: int | None = None) -> ProbabilityReport:
    """Probability that uniformly chosen disjoint I, J of size t are
    compatible for shift s, with the closed-form lower bound
    (1 - 4t/(n-2t))^(2t) attached for comparison."""
    if t < 1 or 2 * t >= n:
        raise ParameterOutOfRange(f"need 1 <= t and 2t < n, got t={t}, n={n}")
    s = _require_nonzero_shift(n, s)
    bound = (1 - Fraction(4 * t, n - 2 * t)) ** (2 * t)
    params = {"n": n, "t": t, "s": s, "mode": mode}
    count = comb(n, t) * comb(n - t, t)
    exact = _is_exact(mode, trials)
    if exact:
        _check_outcomes("compatible_pair", count, guard)
    pairs = (I + J for I in combinations(range(n), t)
             for J in combinations([x for x in range(n) if x not in I], t))
    return _estimate("compatible_pair", params, bound, exact, trials, seed,
                     pairs, count, range(n), 2 * t,
                     lambda x: _blocked(frozenset(x[:t]), frozenset(x[t:]),
                                        s, n) is not None)


def _require_pair_room(n: int, t: int, s: int) -> int:
    """``s`` mod n, once a compatible pair of size t is known to exist: with
    nothing taken, each of the gcd(n, s) cycles of x -> x + s holds half its
    length in disjoint pairs {x, x + s}, and the pair needs 2t of them."""
    if t < 0:
        raise ParameterOutOfRange(f"pair size t must be non-negative, got {t}")
    s = _require_nonzero_shift(n, s)
    g = math.gcd(n, s)
    if g * (n // g // 2) < 2 * t:
        raise ParameterOutOfRange(
            f"no compatible pair of size {t} exists for n={n}, s={s}")
    return s


def canonical_compatible_pair(n: int, t: int, s: int) -> tuple[IndexSet, IndexSet]:
    """The lexicographically first compatible (I, J) with |I| = |J| = t.

    Each a in I takes the positions {a - s, a} and each b in J the positions
    {b, b + s}, and (I, J) is compatible exactly when these 2t pairs are
    disjoint. Both are pairs {x, x + s} along the cycles of x -> x + s, where
    a run of m usable pairs in a row holds at most (m + 1) // 2 disjoint
    ones and a whole cycle of length L at most L // 2. The search picks the
    elements of I, then those of J, in ascending order, and drops a prefix
    as soon as the free positions cannot hold what it still needs: the rest
    of its own set, above its last element, and the rest of all 2t pairs,
    anywhere. That test is exact for J, so only I ever backtracks.
    """
    s = _require_pair_room(n, t, s)
    g = math.gcd(n, s)
    cycles = [[(c + i * s) % n for i in range(n // g)] for c in range(g)]
    taken: set[int] = set()

    def room(above: int, top: int) -> int:
        """The most disjoint free pairs {x, x + s} with (x + top) mod n
        above ``above``."""
        total = 0
        for cycle in cycles:
            ok = [(x + top) % n > above and x not in taken
                  and (x + s) % n not in taken for x in cycle]
            if all(ok):
                total += len(cycle) // 2
                continue
            cut, run = ok.index(False), 0
            for usable in ok[cut + 1:] + ok[:cut + 1]:
                if usable:
                    run += 1
                else:
                    total, run = total + (run + 1) // 2, 0
        return total

    def pair(k: int, e: int) -> set[int]:
        """The positions taken by e as element k of the search."""
        x = e - s if k < t else e
        return {x % n, (x + s) % n}

    chosen: list[int] = []   # the elements of I, then those of J
    e = 0                    # the next candidate for element len(chosen)
    while len(chosen) < 2 * t:
        k = len(chosen)
        if e == n:           # none fits here: move the last element on
            e = chosen.pop()
            taken.difference_update(pair(k - 1, e))
            e += 1
            continue
        cells = pair(k, e)
        if not cells & taken:
            taken.update(cells)
            top, end = (s, t) if k < t else (0, 2 * t)
            if room(-1, 0) >= 2 * t - k - 1 and room(e, top) >= end - k - 1:
                chosen.append(e)
                e = 0 if k + 1 == t else e + 1
                continue
            taken.difference_update(cells)
        e += 1
    return IndexSet(n, tuple(chosen[:t])), IndexSet(n, tuple(chosen[t:]))


def feasible_set_stats(n: int, t: int, k: int, s: int, mode: str = "exact",
                       trials: int = 100_000, seed: int = 0,
                       guard: int | None = None) -> ProbabilityReport:
    """Probability that a uniform K of size k inside the complement of the
    canonical compatible (I, J) is feasible, with the closed-form lower
    bound (1 - (2t+k)/(n-2t-k))^k attached."""
    if k < 0 or 2 * k > n - 4 * t:
        raise ParameterOutOfRange(f"need 2k <= n - 4t, got k={k}, t={t}, n={n}")
    exact = _is_exact(mode, trials)
    if exact:   # before the pair search: any pair leaves n - 2t
        _check_outcomes("feasible_set", comb(n - 2 * t, k), guard)
    I, J = canonical_compatible_pair(n, t, s)   # checks t, s and their room
    s %= n
    complement = sorted(set(range(n)) - I.as_set() - J.as_set())
    blocked = _blocked(I.as_set(), J.as_set(), s, n)
    bound = (1 - Fraction(2 * t + k, n - 2 * t - k)) ** k
    params = {"n": n, "t": t, "k": k, "s": s, "mode": mode,
              "I": list(I.elements), "J": list(J.elements)}
    return _estimate("feasible_set", params, bound, exact, trials, seed,
                     combinations(complement, k), comb(len(complement), k),
                     complement, k,
                     lambda K: _fits(frozenset(K), blocked, s, n))


def _require_classes(n: int, i: int, j: int) -> None:
    if i == j:
        raise ParameterOutOfRange("shift classes i and j must differ")
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterOutOfRange(f"classes ({i}, {j}) not in 0..{n - 1}")


def joint_shift_table(n: int, i: int,
                      j: int) -> dict[tuple[int, int], Fraction]:
    """Exact joint distribution of the sizes of shift classes i and j.

    Class l holds the cells (x, x - l); moving every column on by i makes
    classes i and j the fixed and pushed cells of s = i - j. Permutations
    through a placement of p rooks in class i and q in class j number
    R_{p,q} (n - p - q)!, and binomial inversion in p, then q, leaves those
    with exactly a and b.
    """
    _require_classes(n, i, j)
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
    if not 0 <= t <= n:
        raise ParameterOutOfRange(f"t={t} not in 0..{n}")
    return joint_shift_table(n, i, j).get((t, t), Fraction(0))


@dataclass(frozen=True)
class IndicatorStat:
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
    if _is_exact(mode, trials):
        e_zz = joint_shift_pmf(n, i, j, t)   # checks i, j, t; refuses past memory
        marginal = counting.shift_count_pmf(n, t)
        cov = e_zz - marginal * marginal
        return IndicatorStat(n, t, i, j, "exact", None,
                             float(marginal), float(marginal), float(e_zz),
                             float(cov), 0.0, 0.0, 0.0, marginal)
    _require_classes(n, i, j)
    if not 0 <= t <= n:
        raise ParameterOutOfRange(f"t={t} not in 0..{n}")
    from .perms import shift_reduce
    from .rng import seeded_blocks
    blocks = seeded_blocks(seed, n, 0, trials)   # refuses past memory at once
    marginal = counting.shift_count_pmf(n, t)
    cnt_i = cnt_j = cnt_ij = 0
    for perms, _ in blocks:
        sizes = shift_reduce(perms, lambda c: c[:, [i, j]])
        zi = sizes[:, 0] == t
        zj = sizes[:, 1] == t
        cnt_i += int(zi.sum())
        cnt_j += int(zj.sum())
        cnt_ij += int((zi & zj).sum())
    p_i, p_j, p_ij = cnt_i / trials, cnt_j / trials, cnt_ij / trials
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
