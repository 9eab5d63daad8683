"""Exact combinatorics against brute-force enumeration oracles."""

import itertools
from fractions import Fraction
from math import comb, factorial as pyfactorial, gcd

import pytest

from permlab import enumeration
from permlab.counting import (_reducers, _row_bytes, derangements, factorial,
                              rencontres, shift_count_pmf, shift_pmf,
                              shift_pmf_ratios, typical_max_shift)
from permlab.errors import OutOfMemory, ParameterOutOfRange
from permlab.perms import Permutation, shift_histogram
from permlab.reporting import ratio_text


def e_bounds(order):
    """Oracle: rational bracket lo <= e <= hi from the Taylor series at
    ``order``; the tail past it is below 2/(order+1)!."""
    partial = sum(Fraction(1, pyfactorial(i)) for i in range(order + 1))
    return partial, partial + Fraction(3, pyfactorial(order + 1))


def crowding_thresholds(k_max):
    """Oracle: for k = 1..k_max, the least n with 2e*k! <= n, from brackets
    on e refined until both ends have the same integer part (2e*k! is
    irrational, so that happens)."""
    thresholds = []
    for k in range(1, k_max + 1):
        order = 8
        while True:
            lo, hi = (2 * b * pyfactorial(k) for b in e_bounds(order))
            if lo.__floor__() == hi.__floor__():
                thresholds.append(lo.__floor__() + 1)
                break
            order += 4
    return thresholds


def count_fixed_points_brute(n, r):
    """Oracle: count permutations with exactly r fixed points by enumeration."""
    return sum(
        1 for img in itertools.permutations(range(n))
        if sum(1 for i, v in enumerate(img) if i == v) == r)


def derangements_by_rounding(n):
    """Oracle: D_n as the nearest integer to n!/e, using rational brackets.

    The bracket is refined until both endpoints round the same way; n!/e is
    irrational for n >= 1, so this terminates.
    """
    if n == 0:
        return 1
    f = pyfactorial(n)
    order = n + 4
    while True:
        lo_e, hi_e = e_bounds(order)
        lo_val = Fraction(f, 1) / hi_e + Fraction(1, 2)
        hi_val = Fraction(f, 1) / lo_e + Fraction(1, 2)
        if lo_val.__floor__() == hi_val.__floor__():
            return lo_val.__floor__()
        order += 4


def derangements_by_recurrence(n_max):
    """Oracle: D_0..D_{n_max} from D_m = (m-1)(D_{m-1} + D_{m-2})."""
    d = [1, 0]
    for m in range(2, n_max + 1):
        d.append((m - 1) * (d[-1] + d[-2]))
    return d[:n_max + 1]


class TestFactorial:
    def test_base(self):
        assert factorial(0) == 1
        assert factorial(5) == 120

    def test_big(self):
        # oracle: iterated multiplication
        acc = 1
        for i in range(1, 21):
            acc *= i
        assert factorial(20) == acc == 2432902008176640000

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestDerangements:
    def test_base_cases(self):
        assert derangements(0) == 1
        assert derangements(1) == 0

    def test_negative_order_refused(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^order n must be non-negative, got -1$"):
            derangements(-1)

    def test_small_values(self):
        assert derangements(4) == 9
        assert derangements(6) == 265

    def test_matches_enumeration(self):
        for n in range(0, 9):
            assert derangements(n) == count_fixed_points_brute(n, 0)

    def test_matches_nearest_integer_form(self):
        for n in range(0, 31):
            assert derangements(n) == derangements_by_rounding(n)

    def test_matches_recurrence_past_the_leaves(self):
        # the product tree splits ranges longer than 32 steps
        d = derangements_by_recurrence(1100)
        for n in [*range(0, 140), 255, 256, 257, 1023, 1024, 1100]:
            assert derangements(n) == d[n], n

    def test_agrees_with_the_pmf_row(self):
        # shift_pmf runs the recurrence; P(k) * k! (n-k)! is D_{n-k}
        row = shift_pmf(300)
        for k, p in enumerate(row):
            d = p * pyfactorial(k) * pyfactorial(300 - k)
            assert d == derangements(300 - k), k

    def test_e_bracket_is_a_bracket(self):
        lo, hi = e_bounds(12)
        assert lo < hi
        assert Fraction(2718281828, 10**9) < hi
        assert lo < Fraction(2718281829, 10**9)


class TestRencontres:
    def test_all_fixed(self):
        for n in range(0, 10):
            assert rencontres(n, n) == 1

    def test_exactly_one_fixed_in_s4(self):
        assert rencontres(4, 1) == 8

    def test_n_minus_one_impossible(self):
        for n in range(1, 12):
            assert rencontres(n, n - 1) == 0

    def test_r_out_of_range(self):
        with pytest.raises(ParameterOutOfRange, match=r"^r=5 not in 0\.\.4$"):
            rencontres(4, 5)
        with pytest.raises(ParameterOutOfRange, match=r"^r=-1 not in 0\.\.4$"):
            rencontres(4, -1)

    def test_matches_enumeration_to_8(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                assert rencontres(n, r) == count_fixed_points_brute(n, r)

    def test_total_is_factorial(self):
        for n in range(0, 31):
            assert sum(rencontres(n, r) for r in range(n + 1)) == pyfactorial(n)

    def test_expected_fixed_points_is_one(self):
        for n in range(1, 31):
            assert sum(r * rencontres(n, r) for r in range(n + 1)) == pyfactorial(n)

    def test_upper_bound_holds_to_30(self):
        # D_{n,r} <= n!/r!
        for n in range(0, 31):
            for r in range(0, n + 1):
                assert rencontres(n, r) * pyfactorial(r) <= pyfactorial(n)


class TestShiftCountPmf:
    def test_full_shift_class(self):
        for n in range(1, 8):
            assert shift_count_pmf(n, n) == Fraction(1, pyfactorial(n))

    def test_s4_single(self):
        assert shift_count_pmf(4, 1) == Fraction(1, 3)

    def test_normalization(self):
        for n in range(1, 13):
            assert sum(shift_count_pmf(n, k) for k in range(n + 1)) == 1

    def test_k_out_of_range(self):
        with pytest.raises(ParameterOutOfRange, match=r"^k=6 not in 0\.\.5$"):
            shift_count_pmf(5, 6)

    def test_matches_enumeration_every_class(self):
        # oracle: full sweep, histogram per displacement class
        for n in range(2, 7):
            hits = {(j, k): 0 for j in range(n) for k in range(n + 1)}
            for img in itertools.permutations(range(n)):
                counts = shift_histogram(Permutation(img)).counts
                for j in range(n):
                    hits[(j, counts[j])] += 1
            for j in range(n):
                for k in range(n + 1):
                    assert Fraction(hits[(j, k)], pyfactorial(n)) == \
                        shift_count_pmf(n, k)


class TestShiftPmf:
    """The whole row, against C(n,k) D_{n-k} / n! term by term."""

    @staticmethod
    def oracle(n):
        d = derangements_by_recurrence(n)
        return [Fraction(comb(n, k) * d[n - k], pyfactorial(n))
                for k in range(n + 1)]

    @pytest.mark.parametrize("n", [*range(0, 41), 295, 333])
    def test_matches_oracle(self, n):
        row = shift_pmf(n)
        assert row == self.oracle(n)
        assert sum(row) == 1
        assert row == [shift_count_pmf(n, k) for k in range(n + 1)]

    def test_first_denominator_past_the_decimal_split(self):
        # 295 is the first order whose reduced denominators need more than
        # 2000 bits (603 digits, under 640, the lowest int-to-str limit
        # Python allows); the ratio tests below cross it at 294..296
        widest = [max(p.denominator.bit_length() for p in shift_pmf(n))
                  for n in (294, 295)]
        assert widest[0] <= 2000 < widest[1]

    @pytest.mark.parametrize("n", [*range(0, 61), 294, 295, 296, 700, 1000])
    def test_ratios_match_ratio_text(self, n):
        # the Decimal digits against the int renderer, row by row; odd and
        # even n pair rows k and n-k with and without a middle row
        row = shift_pmf(n)
        assert shift_pmf_ratios(n) == [(ratio_text(q), float(q)) for q in row]

    def test_negative_order(self):
        with pytest.raises(ParameterOutOfRange):
            shift_pmf(-1)
        with pytest.raises(ParameterOutOfRange):
            shift_pmf_ratios(-1)

    def test_refused_past_memory(self, monkeypatch):
        n = 200
        monkeypatch.setattr(enumeration, "memory_bytes", lambda: _row_bytes(n))
        assert sum(shift_pmf(n)) == 1
        monkeypatch.setattr(enumeration, "memory_bytes",
                            lambda: _row_bytes(n) - 1)
        with pytest.raises(OutOfMemory, match=(
                f"^the exact pmf at n=200 needs {_row_bytes(n)} bytes; "
                f"this process may use {_row_bytes(n) - 1}$")):
            shift_pmf(n)
        with pytest.raises(OutOfMemory):
            shift_pmf_ratios(n)


def primes_by_trial_division(top):
    return [p for p in range(2, top + 1)
            if all(p % q for q in range(2, p))]


class TestReducers:
    """The pmf's reducing factors from residues and Legendre's formula,
    against the lemma they rest on and against the gcd they replace."""

    def test_derangements_mod_p_repeat_with_period_p(self):
        # D_m = (-1)^(m-r) D_r (mod p), r = m mod p
        d = derangements_by_recurrence(600)
        for p in primes_by_trial_division(211):
            for m in range(601):
                r = m % p
                assert (d[m] - (-1) ** (m - r) * d[r]) % p == 0, (p, m)

    @staticmethod
    def gcds(n):
        d = derangements_by_recurrence(n)
        return [gcd(d[m], pyfactorial(n - m) * pyfactorial(m))
                for m in range(n + 1)]

    def test_factor_is_the_gcd_to_300(self):
        for n in range(301):
            assert _reducers(n, derangements_by_recurrence(n)) == \
                self.gcds(n), n

    def test_factor_is_the_gcd_at_1000(self):
        assert _reducers(1000, derangements_by_recurrence(1000)) == \
            self.gcds(1000)


class TestTypicalMaxShift:
    def test_reference_points(self):
        assert typical_max_shift(6) == 1
        assert typical_max_shift(52) == 3
        assert typical_max_shift(10_000) == 6

    def test_too_small(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^typical_max_shift needs n >= 6, got 5$"):
            typical_max_shift(5)

    def test_monotone(self):
        values = [typical_max_shift(n) for n in range(6, 2000, 37)]
        assert values == sorted(values)

    def test_matches_the_bracket_oracle_up_to_20000(self):
        thresholds = crowding_thresholds(8)
        assert thresholds[-1] > 20_000
        for n in range(6, 20_001):
            expect = sum(1 for t in thresholds if t <= n)
            assert typical_max_shift(n) == expect, n

    def test_matches_the_bracket_oracle_at_each_step(self):
        # the answer steps from k-1 to k between 2a_k and 2a_k + 1, with
        # a_k = sum over i <= k of k!/i!
        thresholds = crowding_thresholds(31)
        for k in range(2, 31):
            a = sum(pyfactorial(k) // pyfactorial(i) for i in range(k + 1))
            for n in range(2 * a - 1, 2 * a + 3):
                expect = sum(1 for t in thresholds if t <= n)
                assert expect == (k if n > 2 * a else k - 1), n
                assert typical_max_shift(n) == expect, n

    def test_threshold_consistency(self):
        # 2e k! <= n fails for k+1 by definition; check against a fine
        # rational over-approximation of e rather than a float
        lo, hi = e_bounds(30)
        for n in (6, 11, 52, 400, 10_000):
            k = typical_max_shift(n)
            assert 2 * lo * pyfactorial(k) <= n
            assert 2 * hi * pyfactorial(k + 1) > n


class TestIntegerInputs:
    """Every integer a caller passes is read by ``perms.ints``: a bool, float
    or string is refused, never truncated or compared as given."""

    @pytest.mark.parametrize("call", [
        lambda: derangements(5.0), lambda: rencontres(5, 1.0),
        lambda: rencontres("5", 1), lambda: shift_count_pmf(6, True),
        lambda: shift_pmf(5.5), lambda: typical_max_shift(7.5),
    ], ids=["derangements-n", "rencontres-r", "rencontres-n", "pmf-k",
            "pmf-row-n", "typical-n"])
    def test_non_integers_refused(self, call):
        with pytest.raises(ParameterOutOfRange, match="holds a non-integer$"):
            call()

    def test_numpy_integers_read_as_ints(self):
        import numpy as np
        assert derangements(np.int64(6)) == 265
        assert rencontres(np.uint8(6), np.int16(2)) == rencontres(6, 2)
        assert shift_count_pmf(np.int32(6), np.int64(1)) == \
            shift_count_pmf(6, 1)
        assert shift_pmf(np.int64(5)) == shift_pmf(5)
        assert shift_pmf_ratios(np.int64(5)) == shift_pmf_ratios(5)
        assert typical_max_shift(np.uint16(52)) == 3
