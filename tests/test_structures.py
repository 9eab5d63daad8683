"""Displacement-pattern counts vs. enumeration, and the statistical estimators."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

import numpy as np

from permlab import enumeration, structures
from permlab.counting import shift_count_pmf
from permlab.enumeration import perm_matrix, row_blocks
from permlab.errors import OutOfMemory, ParameterOutOfRange
from permlab.perms import shift_counts
from permlab.reporting import dumps
from permlab.rng import Rng, derive_seed
from permlab.structures import (IndexSet, ProbabilityReport, _blocked,
                                _moved, canonical_compatible_pair,
                                compatible_pair_stats,
                                count_exact_displacements,
                                count_optional_displacements,
                                count_required_displacements,
                                covariance_estimate, feasible_set_stats,
                                is_compatible, is_feasible, joint_shift_pmf,
                                joint_shift_table)


def iset(n, *elems):
    return IndexSet.of(n, elems)


def brute_required(n, I, J, s):
    """Oracle: permutations fixing all of I and pushing all of J by s."""
    hits = 0
    for img in itertools.permutations(range(n)):
        if all(img[i] == i for i in I) and all(img[j] == (j + s) % n for j in J):
            hits += 1
    return hits


def brute_exact(n, I, J, s):
    """Oracle: fixed exactly on I, pushed exactly on J."""
    hits = 0
    I, J = set(I), set(J)
    for img in itertools.permutations(range(n)):
        fixed = {i for i in range(n) if img[i] == i}
        pushed = {j for j in range(n) if img[j] == (j + s) % n}
        if fixed == I and pushed == J:
            hits += 1
    return hits


def brute_optional(n, K, I, J, s):
    """Oracle: I fixed, J pushed, K fixed-or-pushed."""
    hits = 0
    for img in itertools.permutations(range(n)):
        if not all(img[i] == i for i in I):
            continue
        if not all(img[j] == (j + s) % n for j in J):
            continue
        if all(img[k] in (k, (k + s) % n) for k in K):
            hits += 1
    return hits


def mask_exact(n, I, J, s):
    """Reference: fixed exactly on I and pushed exactly on J, by boolean
    masks over the whole permutation matrix."""
    p = perm_matrix(n)
    idx = np.arange(n, dtype=np.int8)
    fixed = p == idx[None, :]
    pushed = p == ((idx + s) % n)[None, :]
    want_fixed = np.zeros(n, dtype=bool)
    want_fixed[list(I)] = True
    want_pushed = np.zeros(n, dtype=bool)
    want_pushed[list(J)] = True
    rows = ((fixed == want_fixed[None, :]).all(axis=1)
            & (pushed == want_pushed[None, :]).all(axis=1))
    return int(rows.sum())


def mask_optional(n, K, I, J, s):
    """Reference: I fixed, J pushed, K fixed-or-pushed, by boolean masks over
    the whole permutation matrix."""
    p = perm_matrix(n)
    rows = np.ones(len(p), dtype=bool)
    for i in I:
        rows &= p[:, i] == i
    for j in J:
        rows &= p[:, j] == (j + s) % n
    for k in K:
        rows &= (p[:, k] == k) | (p[:, k] == (k + s) % n)
    return int(rows.sum())


def sweep_rows(n, allowed):
    """Reference: permutations holding, at every position i, a value v with
    ``allowed[i, v]``, by a sweep over the row blocks of all n!
    permutations; positions whose row of ``allowed`` is all true are not
    read."""
    cols = np.flatnonzero(~allowed.all(axis=1))
    total = 0
    for block in row_blocks(n):
        ok = np.ones(len(block), dtype=bool)
        for i in cols:
            ok &= allowed[i].take(block[:, i])
        total += int(np.count_nonzero(ok))
    return total


def sweep_exact(n, I, J, s):
    """Reference: fixed exactly on I and pushed exactly on J, by a sweep."""
    fixed = np.eye(n, dtype=bool)          # [i, v]: v fixes i
    pushed = np.roll(fixed, s, axis=1)     # [i, v]: v pushes i by s
    # row i allows the values that fix i iff i is in I, push it iff in J
    in_i = np.isin(np.arange(n), I)[:, None]
    in_j = np.isin(np.arange(n), J)[:, None]
    return sweep_rows(n, (fixed == in_i) & (pushed == in_j))


def sweep_optional(n, K, I, J, s):
    """Reference: I fixed, J pushed, K fixed-or-pushed, by a sweep; pins on
    one position intersect, so a clash leaves it no value."""
    fixed = np.eye(n, dtype=bool)
    pushed = np.roll(fixed, s, axis=1)
    allowed = np.ones((n, n), dtype=bool)
    for S, values in ((I, fixed), (J, pushed), (K, fixed | pushed)):
        allowed[list(S)] &= values[list(S)]
    return sweep_rows(n, allowed)


def split_optional(n, K, I, J, s):
    """Reference: I fixed, J pushed, K fixed-or-pushed, as a sum over the
    2^|K| splits of K into fixed and pushed positions. A split pins each
    position to one value; it counts (n - pinned)! permutations when no
    position is pinned to two values and no value is taken twice."""
    hits = 0
    for pushed in itertools.product((False, True), repeat=len(K)):
        pins = [(i, i) for i in I] + [(j, (j + s) % n) for j in J]
        pins += [(k, (k + s) % n if p else k) for k, p in zip(K, pushed)]
        value = dict(pins)
        if len(value) == len(set(pins)) == len(set(value.values())):
            hits += factorial(n - len(value))
    return hits


def sweep_joint_counts(n):
    """Reference: ``counts(i, j)`` maps (a, b) to the permutations whose
    shift classes i and j have sizes a and b, from one sweep of the shift
    histograms of all n! permutations."""
    hist = np.concatenate([shift_counts(block) for block in row_blocks(n)])

    def counts(i, j):
        keys = np.bincount(hist[:, i] * (n + 1) + hist[:, j],
                           minlength=(n + 1) * (n + 1))
        return {divmod(key, n + 1): int(c)
                for key, c in enumerate(keys) if c}
    return counts


# The Counter builder that ``structures._board`` replaced, kept as its
# oracle: a rook polynomial maps (p, q) to the placements of p rooks on cells
# of one kind and q on cells of the other, no two in a line.
def counter_times(a, b):
    out = Counter()
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            out[p1 + p2, q1 + q2] += c1 * c2
    return out


def counter_open_chain(cells):
    """Rook polynomial of an open chain of cells, each sharing a line with
    the next and no other; None marks a removed cell."""
    empty, held = Counter({(0, 0): 1}), Counter()   # by the last cell's state
    for cell in cells:
        empty, held = empty + held, (Counter() if cell is None
                                     else counter_times(empty, Counter([cell])))
    return empty + held


def counter_board(n, s, cell):
    """Rook polynomial of the fixed cells (y, y) and pushed cells (y, y + s)
    to which ``cell(y, pushed)`` gives a monomial (p, q), as a product over
    the closed chains of x -> x + s."""
    g = math.gcd(n, s)
    rooks = Counter({(0, 0): 1})
    for x in range(g):
        chain = [cell((x + k * s) % n, pushed)
                 for k in range(n // g) for pushed in (False, True)]
        closed = counter_open_chain(chain[1:])
        if chain[0] is not None:
            closed += counter_times(counter_open_chain(chain[2:-1]),
                                    Counter([chain[0]]))
        rooks = counter_times(rooks, closed)
    return rooks


def comb_exactly(at_least):
    """Binomial inversion: sum_p (-1)^(p-a) C(p, a) N_p for every a."""
    return [sum((-1) ** (p - a) * comb(p, a) * at_least[p]
                for p in range(a, len(at_least)))
            for a in range(len(at_least))]


def small_sets(n):
    """Every subset of 0..n-1 with at most two elements."""
    return [c for size in range(3) for c in itertools.combinations(range(n), size)]


class TestIndexSet:
    def test_sorted_unique(self):
        assert iset(6, 4, 1).elements == (1, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            iset(4, 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterOutOfRange):
            IndexSet(5, (1, 1))

    def test_shift_identity(self):
        assert _moved(iset(5, 0, 1).elements, 0, 5) == {0, 1}

    def test_shift_wraps(self):
        assert _moved(iset(8, 7).elements, 1, 8) == {0}

    def test_shift_values(self):
        assert IndexSet.of(5, _moved(iset(5, 0, 2).elements, 3, 5)).elements \
            == (0, 3)


class TestCompatibility:
    def test_simple_compatible(self):
        assert is_compatible(iset(8, 0), iset(8, 2), 1)

    def test_wraparound_clash(self):
        # J + 1 = {0} meets I
        assert not is_compatible(iset(8, 0), iset(8, 7), 1)

    def test_zero_shift_rejected(self):
        for s in (0, 8):
            with pytest.raises(ParameterOutOfRange,
                               match="^shift s must be nonzero modulo n$"):
                is_compatible(iset(8, 0), iset(8, 2), s)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            is_compatible(iset(8, 0), iset(9, 2), 1)


class TestFeasibility:
    def test_empty_k_with_compatible_pair(self):
        assert is_feasible(iset(10, *()), iset(10, 0), iset(10, 2), 1)

    def test_self_overlap_infeasible(self):
        assert not is_feasible(iset(8, 1, 5), iset(8, 0), iset(8, 2), 4)

    def test_clean_case(self):
        assert is_feasible(iset(10, 5, 7), iset(10, 0), iset(10, 2), 1)

    def test_incompatible_pair_infeasible(self):
        assert not is_feasible(iset(8, 5), iset(8, 0), iset(8, 7), 1)


class TestRequiredCount:
    def test_two_singletons(self):
        # n=6, s=2: fix 0 in place, push 1 to 3; 4! free arrangements
        assert count_required_displacements(iset(6, 0), iset(6, 1), 2) == 24
        assert brute_required(6, [0], [1], 2) == 24

    def test_clash_gives_zero(self):
        # I meets J+s
        assert count_required_displacements(iset(6, 3), iset(6, 1), 2) == 0

    def test_empty_sets_free(self):
        assert count_required_displacements(iset(5, *()), iset(5, *()), 1) == 120

    def test_matches_enumeration_grid(self):
        for n in range(3, 7):
            universe = list(range(n))
            small = [()] + [(a,) for a in universe] + \
                list(itertools.combinations(universe, 2))
            for s in range(1, n):
                for I in small:
                    for J in small:
                        got = count_required_displacements(
                            iset(n, *I), iset(n, *J), s)
                        assert got == brute_required(n, I, J, s)


class TestExactCount:
    def test_no_constraints_counts_double_derangements(self):
        got = count_exact_displacements(iset(4, *()), iset(4, *()), 1)
        assert got == brute_exact(4, (), (), 1)

    def test_overlapping_sets_zero(self):
        assert count_exact_displacements(iset(6, 2), iset(6, 2), 1) == 0

    def test_matches_enumeration(self):
        for n in (4, 5):
            for s in (1, n - 1):
                for I in [(), (0,), (2,)]:
                    for J in [(), (1,), (3,)]:
                        got = count_exact_displacements(
                            iset(n, *I), iset(n, *J), s)
                        assert got == brute_exact(n, I, J, s)

    def test_nonempty_for_compatible_pairs(self):
        # a compatible pair leaves room for a completion with no extra
        # matches -- except at n=4, where the two leftover positions are
        # forced into a clash (see test below)
        for n in (3, 5, 6, 7):
            for s in range(1, n):
                for I in itertools.combinations(range(n), 1):
                    for J in itertools.combinations(range(n), 1):
                        Is, Js = iset(n, *I), iset(n, *J)
                        if is_compatible(Is, Js, s):
                            assert count_exact_displacements(Is, Js, s) >= 1

    def test_n4_compatible_but_empty_boundary(self):
        # regression for the one small order where compatibility does not
        # imply a nonempty exact class: both completions of the two free
        # positions create an extra fixed or pushed point
        Is, Js = iset(4, 0), iset(4, 1)
        assert is_compatible(Is, Js, 1)
        assert count_exact_displacements(Is, Js, 1) == 0

    def test_ratio_near_e_squared(self):
        # exact-on-compatible-singletons over (n-2)! settles near 1/e^2
        n = 10
        got = count_exact_displacements(iset(n, 0), iset(n, 2), 1)
        ratio = got / factorial(n - 2)
        target = math.e ** -2
        assert 0.7 * target <= ratio <= 1.3 * target

    def test_guard(self):
        # no order guard: the count answers past n = 10 and refuses only
        # past memory
        assert count_exact_displacements(iset(11), iset(11), 1) == 4890741
        n = 10 ** 6
        with pytest.raises(OutOfMemory, match=(
                f"^the exact displacement count at n={n} needs "
                f"{structures._board_bytes(n)} bytes; this process may use ")):
            count_exact_displacements(iset(n, 0), iset(n, 2), 1)


class TestOptionalCount:
    def test_empty_k_reduces_to_required(self):
        I, J = iset(10, 0), iset(10, 2)
        assert count_optional_displacements(iset(10, *()), I, J, 1) == \
            count_required_displacements(I, J, 1)

    def test_feasible_closed_form(self):
        got = count_optional_displacements(iset(10, 5, 7), iset(10, 0),
                                           iset(10, 2), 1)
        assert got == 4 * factorial(6) == 2880

    def test_feasible_matches_enumeration(self):
        for n in (6, 7):
            for s in (1, 2):
                for K in [(), (4,), (4, 5) if n == 7 else (4,)]:
                    Ks, Is, Js = iset(n, *K), iset(n, 0), iset(n, 2)
                    got = count_optional_displacements(Ks, Is, Js, s)
                    assert got == brute_optional(n, K, [0], [2], s)

    def test_infeasible_below_closed_form(self):
        # K meeting K+s collapses choices; enumeration falls strictly short
        n, s = 8, 4
        K, I, J = iset(n, 1, 5), iset(n, 0), iset(n, 2)
        assert not is_feasible(K, I, J, s)
        got = count_optional_displacements(K, I, J, s)
        closed = (1 << len(K)) * factorial(n - 4)
        assert got == brute_optional(n, (1, 5), (0,), (2,), s)
        assert got < closed


class TestSweepAgainstMasks:
    """The counts against the whole-matrix mask sweeps, for every s and
    every I, J, K of at most two positions, n <= 6."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exact_and_required(self, n):
        for s in range(1, n):
            for I, J in itertools.product(small_sets(n), repeat=2):
                Is, Js = iset(n, *I), iset(n, *J)
                assert count_exact_displacements(Is, Js, s) == \
                    mask_exact(n, I, J, s), (n, s, I, J)
                assert count_optional_displacements(iset(n), Is, Js, s) == \
                    count_required_displacements(Is, Js, s), (n, s, I, J)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_optional(self, n):
        for s in range(1, n):
            for K, I, J in itertools.product(small_sets(n), repeat=3):
                got = count_optional_displacements(
                    iset(n, *K), iset(n, *I), iset(n, *J), s)
                assert got == mask_optional(n, K, I, J, s), (n, s, K, I, J)

    def test_clashing_pins_give_zero(self):
        # a position both fixed and pushed, or two positions held to one
        # value (1 fixed where 0 is pushed; 5 pushed onto 0 and 1 fixed,
        # leaving 0 neither value)
        n, s = 6, 1
        assert count_exact_displacements(iset(n, 0), iset(n, 0), s) == 0
        for I, J, K in [((0,), (0,), (0, 3)), ((1,), (0,), (1,)),
                        ((1,), (5,), (0,))]:
            assert count_optional_displacements(
                iset(n, *K), iset(n, *I), iset(n, *J), s) == 0, (I, J, K)


class TestFormulasAgainstSweeps:
    """The rook-polynomial counts against the row-block sweeps they
    replaced, for every s and every I, J of at most two positions."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exact(self, n):
        for s in range(1, n):
            for I, J in itertools.product(small_sets(n), repeat=2):
                assert count_exact_displacements(iset(n, *I), iset(n, *J), s) \
                    == sweep_exact(n, I, J, s), (n, s, I, J)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_optional_split(self, n):
        # K of at most two positions; only an infeasible K is split
        for s in range(1, n):
            for K, I, J in itertools.product(small_sets(n), repeat=3):
                Ks, Is, Js = iset(n, *K), iset(n, *I), iset(n, *J)
                if is_feasible(Ks, Is, Js, s):
                    continue
                assert count_optional_displacements(Ks, Is, Js, s) == \
                    sweep_optional(n, K, I, J, s), (n, s, K, I, J)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_joint_table(self, n):
        counts = sweep_joint_counts(n)
        for i, j in itertools.permutations(range(n), 2):
            want = {ab: Fraction(c, factorial(n))
                    for ab, c in counts(i, j).items()}
            assert joint_shift_table(n, i, j) == want, (n, i, j)

    def test_menage_numbers(self):
        # no point fixed and none pushed by 1: the menage numbers U_n
        # (OEIS A000179)
        menage = [1, 2, 13, 80, 579, 4738, 43387, 439792, 4890741, 59216642]
        assert [count_exact_displacements(iset(n), iset(n), 1)
                for n in range(3, 13)] == menage

    def test_joint_marginals_at_n30(self):
        n = 30
        table = joint_shift_table(n, 0, 1)
        for size in range(n + 1):
            for axis in (0, 1):
                marginal = sum(p for ab, p in table.items()
                               if ab[axis] == size)
                assert marginal == shift_count_pmf(n, size), (size, axis)

    def test_guards_stay(self):
        # the order guard of the sweeps is gone; memory refuses instead
        n = 10 ** 6
        with pytest.raises(OutOfMemory, match=(
                f"^the joint shift table at n={n} needs "
                f"{structures._table_bytes(n)} bytes; ")):
            joint_shift_table(n, 0, 1)
        with pytest.raises(OutOfMemory, match=(
                f"^the optional displacement count at n={n} needs "
                f"{structures._board_bytes(n)} bytes; ")):
            count_optional_displacements(iset(n, 1, 3), iset(n, 0),
                                         iset(n, 5), 2)
        assert sum(joint_shift_table(11, 0, 1).values()) == 1
        assert count_optional_displacements(iset(11, 1, 3), iset(11, 0),
                                            iset(11, 5), 2) == \
            split_optional(11, (1, 3), (0,), (5,), 2)
        # a feasible K: 2^|K| times the free rest
        assert count_optional_displacements(iset(11, 3), iset(11, 0),
                                            iset(11, 5), 2) == \
            2 * factorial(8)


class TestOptionalBoard:
    """The optional count against the split sum where the guarded split
    sweep never ran, and against the masks for every K at n <= 6."""

    def test_infeasible_k_past_the_old_guard(self):
        rng = random.Random(14)
        checked = nonzero = 0
        while checked < 300:
            n = rng.randint(12, 16)
            s = rng.randrange(1, n)
            I, J = (tuple(rng.sample(range(n), rng.randint(0, 2)))
                    for _ in range(2))
            K = tuple(rng.sample(range(n), rng.randint(1, 10)))
            Ks, Is, Js = iset(n, *K), iset(n, *I), iset(n, *J)
            if is_feasible(Ks, Is, Js, s):
                continue
            want = split_optional(n, K, I, J, s)
            assert count_optional_displacements(Ks, Is, Js, s) == want, \
                (n, s, K, I, J)
            checked += 1
            nonzero += want > 0
        assert nonzero > 100   # not only clashes

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_k_against_masks(self, n):
        pairs = [((), ()), ((0,), ()), ((), (n - 1,)), ((0,), (2 % n,))]
        for s in range(1, n):
            for I, J in pairs:
                for size in range(n + 1):
                    for K in itertools.combinations(range(n), size):
                        got = count_optional_displacements(
                            iset(n, *K), iset(n, *I), iset(n, *J), s)
                        assert got == mask_optional(n, K, I, J, s), \
                            (n, s, K, I, J)


def kept_cells(n, s, I, J, K=None):
    """``keep(y, pushed)`` for the cells that the exact count (K None) or
    the optional count reads, as those counts choose them."""
    fixed, pushed_ = set(I), set(J)
    cols = fixed | {(j + s) % n for j in pushed_}
    if K is None:
        return lambda y, pushed: not (y in fixed | pushed_
                                      or (y + s * pushed) % n in cols)
    rows = set(K) - fixed - pushed_
    return lambda y, pushed: y in rows and (y + s * pushed) % n not in cols


class TestPackedBoard:
    """``structures._board`` and ``_exactly`` against the Counter builder
    and the binomial inversion they replaced."""

    def test_exact_and_optional_boards(self):
        rng = random.Random(16)
        for _ in range(400):
            n = rng.randint(2, 14)
            s = rng.randrange(1, n)
            I, J, K = (rng.sample(range(n), rng.randint(0, min(n, 4)))
                       for _ in range(3))
            for keep in (kept_cells(n, s, I, J), kept_cells(n, s, I, J, K)):
                got = structures._board(
                    n, s, lambda y, pushed: 1 if keep(y, pushed) else None)
                want = counter_board(
                    n, s, lambda y, pushed: (1, 0) if keep(y, pushed) else None)
                assert {k: c for k, c in enumerate(got) if c} == \
                    {p: c for (p, _), c in want.items()}, (n, s, I, J, K)

    @pytest.mark.parametrize("n", [*range(2, 25), 31, 35, 39])
    def test_joint_boards(self, n):
        # n = 4k + 3 leaves each coefficient its narrowest field, 2n + 2
        # bits; past n = 24, shifts with gcd(n, s) = 1, 3, 5, 7 or 13
        for s in range(1, n) if n < 25 else (1, 3, 5, 7, 13):
            got = structures._board(n, s,
                                    lambda y, pushed: 1 if pushed else n + 1)
            want = counter_board(n, s,
                                 lambda y, pushed: (0, 1) if pushed else (1, 0))
            assert {divmod(k, n + 1): c for k, c in enumerate(got) if c} == \
                dict(want), (n, s)

    def test_exactly(self):
        rng = random.Random(16)
        for size in range(12):
            for _ in range(20):
                at_least = [rng.randint(-10 ** 30, 10 ** 30)
                            for _ in range(size)]
                assert structures._exactly(at_least) == \
                    comb_exactly(at_least), at_least

    @pytest.mark.parametrize("n", [12, 18])
    def test_joint_law_depends_on_the_gcd_only(self, n):
        # the gcd(n, d) closed chains fold into one board: the tables of
        # classes 0 and d agree exactly when gcd(n, d) does
        tables = {d: joint_shift_table(n, 0, d) for d in range(1, n)}
        for d, e in itertools.product(tables, repeat=2):
            assert (tables[d] == tables[e]) == \
                (math.gcd(n, d) == math.gcd(n, e)), (n, d, e)


class TestBoardMemory:
    """Each count refuses before the work when its bound exceeds the memory
    this process may use, and the bound covers the traced peak."""

    COUNTS = {
        "phi": (structures._board_bytes, "the exact displacement count",
                lambda n: count_exact_displacements(iset(n), iset(n), 1)),
        "pset": (structures._board_bytes, "the optional displacement count",
                 lambda n: count_optional_displacements(
                     iset(n, *range(n)), iset(n), iset(n), 1)),
        "joint": (structures._table_bytes, "the joint shift table",
                  lambda n: joint_shift_table(n, 0, 1)),
        # n // 2 cycles of two positions; a tight pair, whose sets dominate
        "compatible": (lambda n: structures._count_bytes(n, 2),
                       "the compatible pair count",
                       lambda n: compatible_pair_stats(n, 1, n // 2)),
        "feasible": (lambda n: structures._count_bytes(n, 0),
                     "the feasible set count",
                     lambda n: feasible_set_stats(n, n // 4, 0, 1)),
        # n! and its document
        "phistar": (lambda n: n * n.bit_length() + (1 << 17),
                    "the required displacement count",
                    lambda n: dumps({"count": count_required_displacements(
                        iset(n), iset(n), 1)})),
        # 3000 trials in blocks of as many lanes as 2^22 entries hold, each
        # lane drawing most of its pool
        "compatible-sampled": (
            lambda n: structures._sample_bytes(n, n, 2 * ((n - 1) // 2), 3000),
            "the compatible pair sample",
            lambda n: compatible_pair_stats(n, (n - 1) // 2, 1, "sampled",
                                            3000)),
        "feasible-sampled": (
            lambda n: structures._sample_bytes(n, n - 2, (n - 4) // 2, 3000),
            "the feasible set sample",
            lambda n: feasible_set_stats(n, 1, (n - 4) // 2, 1, "sampled",
                                         3000)),
    }

    @pytest.mark.parametrize("kind", COUNTS)
    def test_refused_one_byte_short(self, monkeypatch, kind):
        bound, what, run = self.COUNTS[kind]
        n = 20
        monkeypatch.setattr(enumeration, "memory_bytes", lambda: bound(n))
        assert run(n)   # an exact fit runs
        monkeypatch.setattr(enumeration, "memory_bytes", lambda: bound(n) - 1)
        with pytest.raises(OutOfMemory, match=(
                f"^{what} at n={n} needs {bound(n)} bytes; "
                f"this process may use {bound(n) - 1}$")):
            run(n)

    @pytest.mark.parametrize("kind, sizes", [
        ("phi", (30, 100)), ("pset", (30, 100)), ("joint", (10, 30)),
        ("compatible", (30, 1000)), ("feasible", (80, 312)),
        ("phistar", (3000, 30000)), ("compatible-sampled", (30, 300, 2100)),
        ("feasible-sampled", (30, 300, 2000))])
    def test_bound_covers_the_traced_peak(self, kind, sizes):
        bound, _, run = self.COUNTS[kind]
        run(4)   # imports are not the work
        for n in sizes:
            tracemalloc.start()
            try:
                run(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound(n), (n, peak)

    def test_sample_bound_covers_the_pair_search(self):
        # a long pool in one lane: the pair search's cycles and the pool
        # array, built once from 0..n-1, take the bytes
        feasible_set_stats(100, 1, 1, 1, "sampled", 3)   # imports
        for n in (1000, 30000):
            tracemalloc.start()
            try:
                feasible_set_stats(n, 1, 1, 1, "sampled", 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= structures._sample_bytes(n, n - 2, 1, 3), (n, peak)

    def test_sample_pool_is_one_array(self):
        # 5.0 MB traced at n = 10^5; a pool made from a Python set and list
        # of the n positions takes 11.6 MB
        feasible_set_stats(100, 1, 1, 1, "sampled", 3)   # imports
        tracemalloc.start()
        try:
            feasible_set_stats(10 ** 5, 1, 1, 1, "sampled", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak


class TestCompatiblePairStats:
    def test_exact_small(self):
        report = compatible_pair_stats(5, 2, 1, mode="exact")
        hits = total = 0
        for I in itertools.combinations(range(5), 2):
            for J in itertools.combinations([x for x in range(5) if x not in I], 2):
                total += 1
                hits += is_compatible(iset(5, *I), iset(5, *J), 1)
        assert report.exact == Fraction(hits, total)

    def test_exact_above_bound(self):
        # every accepted input with n <= 40; the base 1 - 4t/(n - 2t) is
        # clamped at 0, since its even power overshoots where 6t > n
        cases = 0
        for n in range(3, 41):
            for t in range(1, (n + 1) // 2):
                for s in range(1, n):
                    report = compatible_pair_stats(n, t, s, mode="exact")
                    assert report.exact >= report.closed_form_bound, (n, t, s)
                    assert (report.closed_form_bound == 0) == (6 * t >= n)
                    cases += 1
        assert cases == 10_070

    def test_sampled_two_seeds_agree(self):
        a = compatible_pair_stats(52, 2, 1, mode="sampled", trials=20_000, seed=1)
        b = compatible_pair_stats(52, 2, 1, mode="sampled", trials=20_000, seed=2)
        gap = abs(a.probability - b.probability)
        assert gap <= 3 * math.hypot(a.std_err, b.std_err)

    def test_sampled_above_bound(self):
        r = compatible_pair_stats(100, 1, 1, mode="sampled", trials=20_000, seed=0)
        assert r.probability + 3 * r.std_err >= float(r.closed_form_bound)
        assert r.probability > 0.9

    def test_rejects_big_t(self):
        with pytest.raises(ParameterOutOfRange):
            compatible_pair_stats(6, 3, 1)

    def test_unknown_mode_refused(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^mode must be exact or sampled, not 'x'$"):
            compatible_pair_stats(8, 1, 1, mode="x")


def scan_compatible_pair(n, t, s):
    """Oracle: the lex-first compatible pair by a scan over all t-sets."""
    s %= n
    for I in itertools.combinations(range(n), t):
        iset_ = IndexSet.of(n, I)
        if iset_.as_set() & {(e - s) % n for e in I}:
            continue
        rest = [x for x in range(n) if x not in I]
        for J in itertools.combinations(rest, t):
            jset = IndexSet.of(n, J)
            if is_compatible(iset_, jset, s):
                return iset_, jset
    raise ParameterOutOfRange(
        f"no compatible pair of size {t} exists for n={n}, s={s}")


def two_test_compatible_pair(n, t, s):
    """Reference: the pair search with two room tests a step, the rest of all
    2t pairs anywhere and the rest of the step's own set above its last
    element, its pairs labelled x + s for I and x for J, and a take-back
    where no candidate fits."""
    s %= n
    cycles = structures._cycles(n, s)
    taken = set()

    def room(above, top):
        total = 0
        for cycle in cycles:
            runs = structures._runs([(x + top) % n > above and x not in taken
                                     and (x + s) % n not in taken
                                     for x in cycle])
            total += (len(cycle) // 2 if runs is None
                      else sum((m + 1) // 2 for m in runs))
        return total

    if room(-1, 0) < 2 * t:
        raise ParameterOutOfRange(
            f"no compatible pair of size {t} exists for n={n}, s={s}")

    def pair(k, e):
        x = e - s if k < t else e
        return {x % n, (x + s) % n}

    chosen, e = [], 0
    while len(chosen) < 2 * t:
        k = len(chosen)
        if e == n:
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except ParameterOutOfRange as exc:
        return "refused", str(exc)


class TestCanonicalPair:
    def test_matches_scan(self):
        refused = 0
        for n in range(1, 13):
            for t in range(4):
                for s in range(1, n):
                    want = outcome(scan_compatible_pair, n, t, s)
                    assert outcome(canonical_compatible_pair, n, t, s) == want, \
                        (n, t, s)
                    refused += want[0] == "refused"
        assert 0 < refused < 264   # both branches are compared

    def test_matches_the_two_test_search(self):
        # one room test a step picks the same pair, or refuses alike, as the
        # search that also tested the rest of the step's own set
        cases = refused = 0
        for n in range(1, 41):
            for s in range(1, n):
                for t in range(n // 2 + 1):
                    want = outcome(two_test_compatible_pair, n, t, s)
                    assert outcome(canonical_compatible_pair, n, t, s) == want, \
                        (n, t, s)
                    cases += 1
                    refused += want[0] == "refused"
        assert cases == 11_250 and 0 < refused < cases

    @pytest.mark.parametrize("n,t,s", [(40, 6, 1), (28, 7, 3), (25, 6, 7),
                                       (96, 24, 1), (126, 31, 3), (250, 62, 7),
                                       (1000, 250, 7)])
    def test_large_and_tight(self, n, t, s):
        # 4t = n or close to it: the pairs must tile whole cycles, and the
        # one pass still picks what the search with a take-back picks
        I, J = canonical_compatible_pair(n, t, s)
        assert len(I) == len(J) == t
        assert is_compatible(I, J, s)
        assert (I, J) == two_test_compatible_pair(n, t, s)

    @pytest.mark.parametrize("n,t,s", [(21, 5, 9), (24, 6, 8), (999, 249, 333)])
    def test_no_pair_on_odd_cycles(self, n, t, s):
        # gcd(n, s) cycles of odd length L hold gcd * (L - 1) / 2 < 2t pairs
        with pytest.raises(ParameterOutOfRange,
                           match=f"^no compatible pair of size {t} exists "
                                 f"for n={n}, s={s}$"):
            canonical_compatible_pair(n, t, s)


def enumerated_compatible(n, t, s):
    """Oracle: the share of the C(n, t) C(n - t, t) disjoint (I, J) that are
    compatible, by listing them all."""
    hits = total = 0
    for I in itertools.combinations(range(n), t):
        rest = [x for x in range(n) if x not in I]
        for J in itertools.combinations(rest, t):
            total += 1
            hits += _blocked(frozenset(I), frozenset(J), s, n) is not None
    return Fraction(hits, total)


def fits(K, blocked, s, n):
    """Oracle: K avoids K + s and the positions ``blocked`` by a pair."""
    return not (K & _moved(K, s, n) or K & blocked)


def scalar_estimate(kind, params, bound, trials, seed, pool, size, hit):
    """Oracle: the sampled report as the scalar loop made it, one partial
    Fisher-Yates draw of ``size`` entries from ``pool`` per trial, trial i
    on ``Rng(derive_seed(seed, i))``, and ``hit`` tested on each draw."""
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
    return ProbabilityReport(kind, {**params, "seed": seed}, est, bound,
                             std_err=se, trials=trials)


def scalar_compatible(n, t, s, trials, seed):
    return scalar_estimate(
        "compatible_pair", {"n": n, "t": t, "s": s, "mode": "sampled"},
        Fraction(max(0, n - 6 * t), n - 2 * t) ** (2 * t), trials, seed,
        range(n), 2 * t,
        lambda x: _blocked(frozenset(x[:t]), frozenset(x[t:]), s, n) is not None)


def scalar_feasible(n, t, k, s, trials, seed):
    I, J = canonical_compatible_pair(n, t, s)
    blocked = _blocked(I.as_set(), J.as_set(), s, n)
    return scalar_estimate(
        "feasible_set", {"n": n, "t": t, "k": k, "s": s, "mode": "sampled",
                         "I": list(I.elements), "J": list(J.elements)},
        (1 - Fraction(2 * t + k, n - 2 * t - k)) ** k, trials, seed,
        sorted(set(range(n)) - I.as_set() - J.as_set()), k,
        lambda K: fits(frozenset(K), blocked, s, n))


def enumerated_feasible(n, t, k, s):
    """Oracle: the share of the C(n - 2t, k) sets K outside the canonical
    (I, J) that are feasible, by listing them all."""
    I, J = canonical_compatible_pair(n, t, s)
    blocked = _blocked(I.as_set(), J.as_set(), s, n)
    rest = sorted(set(range(n)) - I.as_set() - J.as_set())
    sets = list(itertools.combinations(rest, k))
    return Fraction(sum(fits(frozenset(K), blocked, s, n) for K in sets),
                    len(sets))


class TestCountsAgainstEnumeration:
    """The counts on the cycles of x -> x + s equal the listed outcomes for
    every n = 3..11 and every s, t and k the functions accept."""

    def test_every_small_case(self):
        cases = 0
        for n in range(3, 12):
            for s in range(1, n):
                for t in range(1, (n + 1) // 2):   # 1 <= t, 2t < n
                    assert compatible_pair_stats(n, t, s).exact == \
                        enumerated_compatible(n, t, s), (n, t, s)
                    cases += 1
                for t in range(n // 4 + 1):
                    for k in range((n - 4 * t) // 2 + 1):   # 2k <= n - 4t
                        try:
                            want = enumerated_feasible(n, t, k, s)
                        except ParameterOutOfRange:   # no compatible pair
                            continue
                        assert feasible_set_stats(n, t, k, s).exact == want, \
                            (n, t, k, s)
                        cases += 1
        assert cases == 639   # 180 compatible, 459 feasible (t = 0 included)

    def test_many_equal_cycles(self, monkeypatch):
        # eight or more equal factors, so the count raises one to its
        # multiplicity by the power recurrence
        powers = []
        power = structures._power

        def spy(a, e, k):
            powers.append(e)
            return power(a, e, k)

        monkeypatch.setattr(structures, "_power", spy)
        for n, t, s in [(16, 2, 8), (18, 1, 9), (24, 2, 8)]:
            assert compatible_pair_stats(n, t, s).exact == \
                enumerated_compatible(n, t, s), (n, t, s)
        for n, t, k, s in [(16, 0, 4, 8), (20, 1, 3, 10), (18, 0, 5, 9)]:
            assert feasible_set_stats(n, t, k, s).exact == \
                enumerated_feasible(n, t, k, s), (n, t, k, s)
        assert powers == [8, 9, 8, 8, 8, 9]

    def test_power_recurrence_on_thousands_of_cycles(self):
        # 2,000 two-position cycles: (1 + 2x)^2000, x^1998 and x^2000
        assert compatible_pair_stats(4000, 999, 2000).exact == Fraction(
            comb(1998, 999) * comb(2000, 1998) * 2 ** 1998,
            comb(4000, 999) * comb(3001, 999))
        assert feasible_set_stats(4000, 0, 2000, 2000).exact == Fraction(
            2 ** 2000, comb(4000, 2000))


class TestSampledAgainstScalar:
    """The estimators draw on BatchRng lanes, block by block; every report
    equals the scalar loop's, trial for trial."""

    @pytest.mark.parametrize("trials", [1, 37, 2049])   # 2049 crosses a block
    def test_compatible(self, trials):
        for n, t, s in [(3, 1, 1), (7, 1, 3), (12, 2, 5), (12, 5, 6),
                        (30, 4, 7), (30, 7, 29)]:
            seed = 1000 * n + t
            assert compatible_pair_stats(n, t, s, "sampled", trials, seed) \
                == scalar_compatible(n, t, s, trials, seed), (n, t, s)

    @pytest.mark.parametrize("trials", [1, 37, 2049])
    def test_feasible(self, trials):
        # k = 0, a K that never fits (three 3-cycles hold at most 3), and a
        # K that fills its room
        for n, t, k, s in [(12, 1, 0, 1), (12, 1, 2, 1), (9, 0, 4, 3),
                           (30, 2, 11, 7), (30, 0, 15, 2)]:
            seed = 1000 * n + k
            assert feasible_set_stats(n, t, k, s, "sampled", trials, seed) \
                == scalar_feasible(n, t, k, s, trials, seed), (n, t, k, s)

    def test_long_pools_use_fewer_lanes(self):
        # a pool of 5000 or 3000 entries leaves 838 or 1398 lanes a block,
        # and the trials still cross block edges on their own streams
        assert compatible_pair_stats(5000, 2, 7, "sampled", 1000, 3) == \
            scalar_compatible(5000, 2, 7, 1000, 3)
        assert feasible_set_stats(3000, 2, 5, 11, "sampled", 2000, 5) == \
            scalar_feasible(3000, 2, 5, 11, 2000, 5)

    def test_long_pool_memory_is_bounded(self):
        # 3000 trials of a 200,000-entry pool: a block holds at most 2^22
        # entries (16 MB of uint32 here), where 2048 lanes would be 1.6 GB
        tracemalloc.start()
        try:
            report = compatible_pair_stats(200_000, 2, 1, "sampled", 3000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 3000
        assert peak < 2 ** 25


class TestFeasibleSetStats:
    def test_k_zero_probability_one(self):
        r = feasible_set_stats(20, 2, 0, 1, mode="exact")
        assert r.exact == 1

    def test_exact_small(self):
        r = feasible_set_stats(12, 1, 2, 1, mode="exact")
        I, J = canonical_compatible_pair(12, 1, 1)
        complement = sorted(set(range(12)) - I.as_set() - J.as_set())
        hits = total = 0
        for K in itertools.combinations(complement, 2):
            total += 1
            hits += is_feasible(iset(12, *K), I, J, 1)
        assert r.exact == Fraction(hits, total)
        assert r.exact >= r.closed_form_bound

    def test_sampled_above_bound(self):
        r = feasible_set_stats(100, 2, 3, 1, mode="sampled", trials=20_000, seed=3)
        assert r.probability + 3 * r.std_err >= float(r.closed_form_bound)

    def test_hypothesis_guard(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^need 2k <= n - 4t, got k=2, t=2, n=10$"):
            feasible_set_stats(10, 2, 2, 1)


class TestJointShiftPmf:
    def test_full_class_excludes_other(self):
        assert joint_shift_pmf(5, 0, 1, 5) == 0

    def test_table_normalizes(self):
        assert sum(joint_shift_table(7, 0, 3).values()) == 1

    def test_marginals_recover_single_pmf(self):
        for n in (5, 6, 7):
            for (i, j) in [(0, 1), (0, n - 1), (2, 5 % n)]:
                if i == j:
                    continue
                table = joint_shift_table(n, i, j)
                for t in range(n + 1):
                    marginal = sum(p for (ti, _), p in table.items() if ti == t)
                    assert marginal == shift_count_pmf(n, t)

    def test_near_independence_at_n8(self):
        p = joint_shift_pmf(8, 0, 1, 1)
        assert abs(float(p) - (1 / math.e) ** 2) < 0.02

    def test_equal_indices_rejected(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^shift classes i and j must differ$"):
            joint_shift_pmf(6, 2, 2, 1)

    def test_decomposition_identity(self):
        # summing exact-pattern counts over all disjoint (I, J) recovers the
        # joint pmf computed through shift histograms
        for n in (4, 5):
            for s in (1, n - 1):
                for t in (0, 1, 2):
                    total = 0
                    for I in itertools.combinations(range(n), t):
                        rest = [x for x in range(n) if x not in I]
                        for J in itertools.combinations(rest, t):
                            total += count_exact_displacements(
                                iset(n, *I), iset(n, *J), s)
                    assert Fraction(total, factorial(n)) == \
                        joint_shift_pmf(n, 0, s, t)


class TestCovarianceEstimate:
    def test_exact_matches_joint_table(self):
        stat = covariance_estimate(7, 1, 0, 3, mode="exact")
        joint = joint_shift_pmf(7, 0, 3, 1)
        marg = shift_count_pmf(7, 1)
        assert stat.e_zz == float(joint)
        assert abs(stat.cov - float(joint - marg * marg)) < 1e-15

    def test_sampled_matches_exact_within_noise(self):
        stat = covariance_estimate(7, 1, 0, 3, trials=40_000, seed=5)
        exact = covariance_estimate(7, 1, 0, 3, mode="exact")
        assert abs(stat.cov - exact.cov) <= 3 * stat.se_cov
        assert abs(stat.e_zi - float(stat.exact_marginal)) <= 4 * stat.se_zi

    def test_derangement_rate_at_t_zero(self):
        stat = covariance_estimate(1000, 0, 0, 1, trials=10_000, seed=9)
        assert abs(stat.e_zi - 1 / math.e) <= 3 * stat.se_zi
        assert abs(stat.e_zj - 1 / math.e) <= 3 * stat.se_zj

    def test_equal_indices_rejected(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^shift classes i and j must differ$"):
            covariance_estimate(10, 1, 4, 4)


class TestIntegerInputs:
    """Every integer a caller passes is read by ``errors.ints``: a count or
    report never runs on, or names, a bool, float or string."""

    @pytest.mark.parametrize("call", [
        lambda: count_required_displacements(iset(6, 0), iset(6, 2), 1.5),
        lambda: is_compatible(iset(6, 0), iset(6, 2), 1.5),
        lambda: count_exact_displacements(iset(6, 0), iset(6, 2), "1"),
        lambda: joint_shift_pmf(6, 0, 1, 1.5),
        lambda: joint_shift_table(6.0, 0, 1),
        lambda: covariance_estimate(20, 1, 0, 1, trials=True),
        lambda: covariance_estimate(20.0, 1, 0, 1),
        lambda: covariance_estimate(20, 1, 0, 1, seed=1.5),
        lambda: compatible_pair_stats(20, True, 1),
        lambda: compatible_pair_stats(20.0, 1, 1),
        lambda: compatible_pair_stats(20, 1, 1, mode="sampled", seed=1.5),
        lambda: feasible_set_stats(20, 1, 1.5, 1),
        lambda: feasible_set_stats(20, 1, 1, 1, mode="sampled", trials=2.5),
        lambda: canonical_compatible_pair(20, 1.5, 1),
    ], ids=["required-s", "compatible-s", "exact-s", "pmf-t", "table-n",
            "cov-trials", "cov-n", "cov-seed", "pair-t", "pair-n", "pair-seed",
            "feasible-k", "feasible-trials", "canonical-t"])
    def test_non_integers_refused(self, call):
        with pytest.raises(ParameterOutOfRange, match="holds a non-integer$"):
            call()

    def test_numpy_integers_read_as_ints(self):
        i64 = np.int64
        stat = covariance_estimate(i64(20), i64(1), np.uint8(0), i64(1),
                                   trials=np.uint16(300), seed=np.int32(2))
        pair = compatible_pair_stats(i64(20), i64(2), i64(3), mode="sampled",
                                     trials=i64(300), seed=i64(2))
        feasible = feasible_set_stats(i64(20), i64(1), i64(2), i64(23))
        read = (stat.n, stat.t, stat.i, stat.j, stat.trials,
                *pair.params.values(), pair.trials, feasible.params["s"])
        assert all(type(v) in (int, str) for v in read)
        assert stat == covariance_estimate(20, 1, 0, 1, trials=300, seed=2)
        assert dumps(pair) == dumps(compatible_pair_stats(
            20, 2, 3, mode="sampled", trials=300, seed=2))
        assert feasible == feasible_set_stats(20, 1, 2, 23)
        assert joint_shift_pmf(i64(6), i64(0), i64(1), i64(1)) == \
            joint_shift_pmf(6, 0, 1, 1)
