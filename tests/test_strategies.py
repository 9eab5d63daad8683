"""Strategy definitions and exact enumeration of success probabilities."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from permlab.errors import (NotLatin, ParameterOutOfRange,
                            TooLargeForEnumeration, UnknownStrategy)
from permlab.fields import PartitionStrategy, aic_check, partition_from_hint
from permlab.perms import (Permutation, argmax_shift, example_deck,
                           identity_permutation, shift_histogram)
from permlab.rng import seeded_blocks
from permlab.strategies import (LatinSquare, Strategy, baseline_strategy,
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

    def test_empty_square_refused(self):
        # as a permutation needs one element, a square needs one row
        for make in (lambda: LatinSquare(()),
                     lambda: LatinSquare.from_json("[]")):
            with pytest.raises(NotLatin,
                               match="^a latin square needs at least one row$"):
                make()

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


def closest_rows(square, block):
    """Oracle: the first row of ``square`` that agrees with each row of
    ``block`` at the most positions, comparing one row of the square at a
    time."""
    best_row = np.zeros(len(block), dtype=np.int64)
    best = np.full(len(block), -1, dtype=np.int64)
    for r, row in enumerate(np.array(square.rows, dtype=np.int64)):
        agree = np.count_nonzero(block == row, axis=1)
        closer = agree > best   # strict, so the first closest row wins
        best_row[closer] = r
        np.maximum(best, agree, out=best)
    return best_row


def isotope(n, seed):
    """The cyclic square with its rows, columns and symbols permuted."""
    rng = np.random.default_rng(seed)
    cyclic = np.array(LatinSquare.cyclic(n).rows)
    rows = rng.permutation(n)[cyclic[rng.permutation(n)][:, rng.permutation(n)]]
    return LatinSquare(tuple(map(tuple, rows.tolist())))


# the Klein four-group's table, row r being i -> i xor r: not isotopic to
# the cyclic square of order 4
KLEIN = LatinSquare(tuple(tuple(i ^ r for i in range(4)) for r in range(4)))


class TestClosestRow:
    """The latin hint, read from the class histogram of ``shift_reduce``,
    is the first closest row of the square, one row compared at a time."""

    @pytest.mark.parametrize("n, square", [
        *((n, "cyclic") for n in (1, 2, 4, 5, 32, 257)),
        *((n, "isotope") for n in (1, 2, 4, 5, 32, 257)),
        (4, "klein")])
    def test_hint_matches_the_row_by_row_oracle(self, n, square):
        sq = {"cyclic": LatinSquare.cyclic, "isotope": lambda n: isotope(n, n),
              "klein": lambda n: KLEIN}[square](n)
        block, _ = next(seeded_blocks(29, n, 0, 2048))
        rows = np.ascontiguousarray(block)
        want = closest_rows(sq, rows)
        hints = latin_strategy(sq).hints
        assert np.array_equal(hints(block), want)
        assert np.array_equal(hints(rows), want)
        if n >= 4:   # rows tie on some permutation of the block
            agree = np.stack([np.count_nonzero(rows == np.array(r), axis=1)
                              for r in sq.rows], axis=1)
            assert ((agree == agree.max(axis=1, keepdims=True)).sum(axis=1)
                    > 1).any()

    def test_every_permutation_of_order_four(self):
        for sq in (LatinSquare.cyclic(4), isotope(4, 1), KLEIN):
            block = every_row(4)
            assert np.array_equal(latin_strategy(sq).hints(block),
                                  closest_rows(sq, block))

    @pytest.mark.parametrize("image, hint", [
        ((0, 1, 3, 2), 0),   # rows 0 and 1 agree at two positions each
        ((2, 3, 1, 0), 2),   # rows 2 and 3 agree at two positions each
        ((0, 2, 3, 1), 0),   # every row agrees at one position
        ((1, 0, 3, 2), 1)])  # row 1 itself
    def test_lowest_row_wins_a_tie(self, image, hint):
        block = np.array([image])
        assert latin_strategy(KLEIN).hints(block).tolist() == [hint]
        assert closest_rows(KLEIN, block).tolist() == [hint]


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


class TestStrategyOrder:
    @pytest.mark.parametrize("call", [
        lambda: shift_strategy(5.0),
        lambda: naive_strategy(5.0),
        lambda: naive_strategy("5"),
        lambda: baseline_strategy(True),
        lambda: strategy_by_name("shift", "5"),
        lambda: Strategy("own", 5.0, lambda block: block[:, 0],
                         lambda h, s: h),
    ], ids=["shift-float", "naive-float", "naive-string", "baseline-bool",
            "by-name-string", "own-strategy-float"])
    def test_order_read_when_built(self, call):
        # every builder and a caller's own Strategy read n when built, so a
        # float order cannot pass a run's order check (5.0 == 5)
        with pytest.raises(ParameterOutOfRange,
                           match="^the strategy's order n holds a non-integer$"):
            call()

    def test_numpy_order_read_as_int(self):
        st = shift_strategy(np.int64(5))
        assert type(st.n) is int and st.n == 5

    @pytest.fixture
    def latin5(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(LatinSquare.cyclic(5).rows))
        return f"latin:{path}"

    @pytest.mark.parametrize("n", [5.0, True], ids=["float", "bool"])
    def test_latin_by_name_reads_its_order(self, latin5, n):
        # 5 == 5.0, so n is read before the square's order is compared
        with pytest.raises(ParameterOutOfRange,
                           match="^the strategy's order n holds a non-integer$"):
            strategy_by_name(latin5, n)

    def test_latin_by_name_numpy_order(self, latin5):
        st = strategy_by_name(latin5, np.int64(5))
        assert (st.name, type(st.n), st.n) == ("latin", int, 5)


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
