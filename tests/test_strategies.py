"""Strategy definitions and exact enumeration of success probabilities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from permlab.errors import NotLatin, TooLargeForEnumeration, UnknownStrategy
from permlab.fields import PartitionStrategy, aic_check, partition_from_hint
from permlab.perms import (Permutation, argmax_shift, example_deck,
                           identity_permutation, shift_histogram)
from permlab.strategies import (LatinSquare, baseline_strategy,
                                evaluate_success_exact, latin_strategy,
                                naive_strategy, shift_strategy,
                                strategy_by_name)


def every_row(n):
    """All permutations of 0..n-1 as one block, in lex order."""
    return np.array(list(itertools.permutations(range(n))))


class TestShiftStrategy:
    def test_deck_hint_and_success(self):
        deck = example_deck()
        st = shift_strategy(52)
        h = st.hints(np.array([deck.image]))
        assert h.tolist() == [29]
        wins = [s for s in range(52) if deck.image[st.guesses(h, s)[0]] == s]
        assert len(wins) == 4

    def test_identity_always_succeeds(self):
        for n in (1, 2, 5, 9):
            st = shift_strategy(n)
            p = identity_permutation(n)
            h = st.hints(np.array([p.image]))
            assert h.tolist() == [0]
            assert all(p.image[st.guesses(h, s)[0]] == s for s in range(n))

    def test_exact_n3(self):
        ev = evaluate_success_exact(shift_strategy(3))
        assert ev.overall == Fraction(2, 3)
        assert ev.minimum == Fraction(2, 3)
        assert all(p == Fraction(2, 3) for p in ev.per_target)

    def test_per_target_equal_up_to_6(self):
        # rotation conjugation makes every target look the same
        for n in range(2, 7):
            ev = evaluate_success_exact(shift_strategy(n))
            assert len(set(ev.per_target)) == 1

    def test_success_count_equals_max_class(self):
        st = shift_strategy(5)
        block = every_row(5)
        rows = np.arange(len(block))
        h = st.hints(block)
        wins = sum(block[rows, st.guesses(h, s)] == s for s in range(5))
        assert wins.tolist() == [max(shift_histogram(Permutation(img)).counts)
                                 for img in itertools.permutations(range(5))]


class TestNaiveStrategy:
    def test_guess_rule(self):
        st = naive_strategy(6)
        assert st.guesses(np.array([4, 4]), np.array([4, 2])).tolist() == [0, 1]

    def test_match_on_first_position_succeeds(self):
        st = naive_strategy(4)
        p = Permutation((3, 0, 1, 2))
        h = st.hints(np.array([p.image]))
        assert h.tolist() == [3]
        assert p.image[st.guesses(h, 3)[0]] == 3

    def test_exactly_two_over_n(self):
        for n in range(3, 9):
            ev = evaluate_success_exact(naive_strategy(n))
            assert ev.overall == Fraction(2, n)
            assert ev.minimum == Fraction(2, n)
            assert all(p == Fraction(2, n) for p in ev.per_target)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            naive_strategy(1)


class TestBaseline:
    def test_one_over_n_every_target(self):
        for n in (2, 4, 6):
            ev = evaluate_success_exact(baseline_strategy(n))
            assert all(p == Fraction(1, n) for p in ev.per_target)
            assert ev.overall == Fraction(1, n)


class TestLatinStrategy:
    def test_not_latin_rejected(self):
        with pytest.raises(NotLatin):
            LatinSquare(((0, 1), (0, 1)))
        with pytest.raises(NotLatin):
            LatinSquare(((0, 0), (1, 1)))

    def test_identity_row_square(self):
        sq = LatinSquare.cyclic(4)
        st = latin_strategy(sq)
        ident = identity_permutation(4)
        assert sq.rows[0] == (0, 1, 2, 3)
        assert st.hints(np.array([ident.image])).tolist() == [0]
        assert st.guesses(np.zeros(4, dtype=np.int64),
                          np.arange(4)).tolist() == [0, 1, 2, 3]

    def test_cyclic_square_equals_shift_pointwise(self):
        for n in range(2, 7):
            lat = latin_strategy(LatinSquare.cyclic(n))
            sh = shift_strategy(n)
            block = every_row(n)
            assert lat.hints(block).tolist() == sh.hints(block).tolist()
            h = np.arange(n)
            for s in range(n):
                assert lat.guesses(h, s).tolist() == sh.guesses(h, s).tolist()

    def test_success_indicator_unfolds(self):
        # success iff the guessed position holds the target, by definition
        add_table = LatinSquare(tuple(
            tuple((r + i) % 5 for i in range(5)) for r in range(5)))
        st = latin_strategy(add_table)
        block = every_row(5)
        hints = st.hints(block)
        for img, h in zip(block.tolist(), hints.tolist()):
            for s in range(5):
                g = st.guesses(np.array([h]), s)[0]
                assert (img[g] == s) == (img[add_table.rows[h].index(s)] == s)

    def test_from_json_round_trip(self):
        sq = LatinSquare.from_json("[[0,1,2],[1,2,0],[2,0,1]]")
        assert sq.n == 3


class TestStrategyByName:
    def test_known_names(self):
        # naive sends every message 0..n-1, baseline only message 0
        block = np.array(list(itertools.permutations(range(5))))
        assert strategy_by_name("shift", 5).name == "shift"
        assert set(strategy_by_name("naive", 5).hints(block).tolist()) == \
            set(range(5))
        assert set(strategy_by_name("baseline", 5).hints(block).tolist()) == {0}

    def test_unknown_name(self):
        with pytest.raises(UnknownStrategy):
            strategy_by_name("psychic", 5)


class TestBuiltinFloor:
    def test_every_target_reachable(self):
        # the built-in strategies never write a target off completely
        from fractions import Fraction as F
        from math import factorial
        for n in (3, 4, 5):
            for name in ("shift", "naive", "baseline"):
                ev = evaluate_success_exact(strategy_by_name(name, n))
                assert all(F(1, factorial(n)) <= p <= 1 for p in ev.per_target)


class TestEvaluateGuard:
    def test_refuses_large_n(self):
        with pytest.raises(TooLargeForEnumeration):
            evaluate_success_exact(shift_strategy(9))

    def test_guard_override(self):
        ev = evaluate_success_exact(shift_strategy(2), guard=2)
        assert ev.n == 2


class TestAicCheck:
    def test_naive_partition_allowed(self):
        part = partition_from_hint(3, 3, lambda p: p.image[0])
        assert aic_check(part) is True

    def test_single_class_not_allowed(self):
        # the lone used message shows every image everywhere; unused empty
        # classes are no warning at all
        part = PartitionStrategy(3, 3, (0,) * 6)
        assert aic_check(part) is False

    def test_shift_partition_n3(self):
        part = partition_from_hint(
            3, 3, lambda p: argmax_shift(shift_histogram(p)))
        assert aic_check(part) is True  # regression: verified by direct check

    def test_guard(self):
        with pytest.raises(TooLargeForEnumeration):
            aic_check(PartitionStrategy(9, 2, (0,) * 362880), guard=8)
