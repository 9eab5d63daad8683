"""Core permutation type, shift statistics, and the worked-deck fixture."""

import itertools
import json
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as hs

from permlab import perms
from permlab.enumeration import row_blocks
from permlab.errors import (MalformedPartition, NotABijection, NotLatin,
                            ParameterOutOfRange)
from permlab.fields import (PartitionStrategy, deduplicate_magnets,
                            partition_from_hint)
from permlab.perms import (TILE, Permutation, ShiftHistogram,
                           apply_transposition, argmax_shift, example_deck,
                           identity_permutation, lex_rank, lex_unrank,
                           make_permutation, rotate_values, shift_counts,
                           shift_histogram, shift_reduce, shift_vector)
from permlab.rng import BatchRng, Rng, batch_seeds
from permlab.simulate import GameConfig, simulate_needle
from permlab.strategies import LatinSquare, shift_strategy
from permlab.structures import IndexSet

# Published sequences for the worked 52-card deck.
DECK_V = (3, 36, 1, 17, 29, 50, 37, 34, 15, 6, 11, 2, 29, 29, 3, 34, 45, 9,
          24, 1, 7, 45, 48, 9, 22, 20, 16, 40, 32, 49, 1, 43, 13, 29, 22, 46,
          38, 46, 32, 17, 6, 49, 18, 28, 28, 25, 46, 0, 18, 7, 19, 14)
DECK_S = (1, 3, 1, 2, 0, 0, 2, 2, 0, 2, 0, 1, 0, 1, 1, 1, 1, 2, 2, 1, 1, 0,
          2, 0, 1, 1, 0, 0, 2, 4, 0, 0, 2, 0, 2, 0, 1, 1, 1, 0, 1, 0, 0, 1,
          0, 2, 3, 0, 1, 2, 1, 0)


def small_perms(max_n=6):
    return hs.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: hs.permutations(list(range(n)))).map(make_permutation)


class TestConstruction:
    def test_identity(self):
        p = make_permutation([0, 1, 2])
        assert p.image == (0, 1, 2) and p.n == 3

    def test_duplicate_rejected(self):
        with pytest.raises(NotABijection):
            make_permutation([1, 1, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(NotABijection):
            make_permutation([0, 3, 1])

    def test_empty_rejected(self):
        with pytest.raises(NotABijection):
            make_permutation([])

    def test_deck_fixture_is_valid_order_52(self):
        assert example_deck().n == 52


NOT_INTEGERS = {"float": 1.0, "string": "1", "bool": True, "None": None}

# every reader of outside integers, as (name, refusal, a call that reads
# the entry x, the entries of NOT_INTEGERS it is fed); a float, string or
# None stream row was already refused, by test_stream_row_of_non_integers_refused
READERS = [
    ("make_permutation", NotABijection,
     lambda x: make_permutation([0, x, 2]), NOT_INTEGERS),
    ("IndexSet", ParameterOutOfRange, lambda x: IndexSet(10, (x,)),
     NOT_INTEGERS),
    ("IndexSet.of", ParameterOutOfRange, lambda x: IndexSet.of(10, [3, x]),
     NOT_INTEGERS),
    ("IndexSet-order", ParameterOutOfRange, lambda x: IndexSet(x, (0,)),
     NOT_INTEGERS),
    ("PartitionStrategy", ParameterOutOfRange,
     lambda x: PartitionStrategy(2, 2, (0, x)), NOT_INTEGERS),
    ("PartitionStrategy-order", ParameterOutOfRange,
     lambda x: PartitionStrategy(x, 1, (0,)), NOT_INTEGERS),
    ("PartitionStrategy.from_json", MalformedPartition,
     lambda x: PartitionStrategy.from_json(
         json.dumps({"n": 2, "m": 2, "assignment": [0, x]})), NOT_INTEGERS),
    ("LatinSquare", NotLatin, lambda x: LatinSquare(((0, x), (x, 0))),
     NOT_INTEGERS),
    ("LatinSquare.from_json", NotLatin,
     lambda x: LatinSquare.from_json(json.dumps([[0, x], [x, 0]])),
     NOT_INTEGERS),
    ("ShiftHistogram", ParameterOutOfRange, lambda x: ShiftHistogram((x, 1)),
     NOT_INTEGERS),
    ("deduplicate_magnets", NotABijection,
     lambda x: deduplicate_magnets([[(0, x, 2)]]), NOT_INTEGERS),
    ("partition_from_hint", ParameterOutOfRange,
     lambda x: partition_from_hint(2, 2, lambda p: x), NOT_INTEGERS),
    ("stream", NotABijection,
     lambda x: simulate_needle(GameConfig(n=3, trials=2, seed=0),
                               perm_stream=lambda t: (0, x, 2)), ("bool",)),
]


class TestIntegerRule:
    """One rule reads every outside integer: any Python or numpy integer is
    read as an int; a bool, float, string or None is refused."""

    @pytest.mark.parametrize("error, call, x", [
        pytest.param(error, call, NOT_INTEGERS[kind], id=f"{name}-{kind}")
        for name, error, call, kinds in READERS for kind in kinds])
    def test_non_integer_entry_refused(self, error, call, x):
        with pytest.raises(error, match="holds a non-integer$"):
            call(x)

    @pytest.mark.parametrize("call, what", [
        (lambda: identity_permutation(2.0), "n"),
        (lambda: apply_transposition(identity_permutation(3), 0, 1.0),
         "positions"),
        (lambda: apply_transposition(identity_permutation(3), True, 2),
         "positions"),
        (lambda: rotate_values(identity_permutation(3), 1.5), "l"),
        (lambda: lex_unrank(3.0, 1), "n or rank"),
        (lambda: lex_unrank(3, True), "n or rank"),
    ], ids=["identity-n", "transposition-float", "transposition-bool",
            "rotate-float", "unrank-n", "unrank-rank-bool"])
    def test_integer_arguments_read(self, call, what):
        # each function reads its n, positions and rank where it takes them
        with pytest.raises(ParameterOutOfRange,
                           match=f"^{what} holds a non-integer$"):
            call()

    @pytest.mark.parametrize("n", [0, -1])
    def test_unrank_order_below_one_refused(self, n):
        with pytest.raises(ParameterOutOfRange,
                           match=f"^order n={n} is not positive$"):
            lex_unrank(n, 0)

    def test_bool_image_refused(self):
        with pytest.raises(NotABijection):
            Permutation((True, False))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_read_as_ints(self, dtype):
        one = dtype(1)
        read = [make_permutation(np.array([2, 1, 0], dtype=dtype)).image,
                IndexSet.of(10, np.array([3, 1], dtype=dtype)).elements,
                PartitionStrategy(2, 2, (dtype(0), one)).assignment,
                LatinSquare(np.array([[0, 1], [1, 0]], dtype=dtype)).rows[0],
                ShiftHistogram((one, one)).counts]
        assert read == [(2, 1, 0), (1, 3), (0, 1), (0, 1), (1, 1)]
        assert all(type(v) is int for entries in read for v in entries)


class TestShiftStatistics:
    def test_identity_shift_vector(self):
        assert shift_vector(identity_permutation(5)) == (0,) * 5

    def test_cycle_shift_vector(self):
        # sigma(i) = i+1 mod 3 displaces every position by 2
        assert shift_vector(make_permutation([1, 2, 0])) == (2, 2, 2)

    def test_deck_shift_vector_matches_published(self):
        assert shift_vector(example_deck()) == DECK_V

    def test_deck_histogram_matches_published(self):
        assert shift_histogram(example_deck()).counts == DECK_S

    def test_deck_hint(self):
        h = shift_histogram(example_deck())
        assert argmax_shift(h) == 29
        assert h.counts[29] == 4
        assert h.counts[1] == 3 and h.counts[46] == 3

    def test_identity_histogram(self):
        assert shift_histogram(identity_permutation(7)).counts == (7,) + (0,) * 6

    def test_three_singleton_classes(self):
        assert shift_histogram(make_permutation([2, 1, 0])).counts == (1, 1, 1)

    def test_argmax_tie_breaks_low(self):
        assert argmax_shift(shift_histogram(make_permutation([2, 1, 0]))) == 0

    def test_argmax_first_maximal(self):
        p = make_permutation([1, 0, 3, 2])  # v = (3, 1, 3, 1), classes 1 and 3 tie
        h = shift_histogram(p)
        assert h.counts == (0, 2, 0, 2)
        assert argmax_shift(h) == 1

    @given(small_perms())
    def test_histogram_sums_to_n(self, p):
        h = shift_histogram(p)
        assert sum(h.counts) == p.n
        assert all(0 <= v < p.n for v in shift_vector(p))

    @given(small_perms())
    def test_fixed_points_equal_class_zero(self, p):
        fixed = sum(1 for i, s in enumerate(p.image) if i == s)
        assert shift_histogram(p).counts[0] == fixed

    def test_rotation_shifts_histogram(self):
        # adding l to every image rotates the histogram down by l
        for n in range(1, 7):
            for img in itertools.permutations(range(n)):
                p = Permutation(img)
                base = shift_histogram(p).counts
                for l in range(n):
                    rotated = shift_histogram(rotate_values(p, l)).counts
                    assert rotated == tuple(base[(j + l) % n] for j in range(n))


# the per-row reductions the samplers take of a block's histograms
REDUCTIONS = {
    "argmax": lambda c: c.argmax(axis=1),
    "max": lambda c: c.max(axis=1),
    "columns": lambda c: c[:, [1, 0]],
}


def seeded(seed, lanes, n):
    return BatchRng(batch_seeds(seed, 0, lanes)).permutations(n)


def assert_tiled_equals_whole(block, table=None):
    whole = shift_counts(block, table)
    for name, reduce in REDUCTIONS.items():
        tiled = shift_reduce(block, reduce, table)
        assert tiled.dtype == reduce(whole).dtype, name
        assert np.array_equal(tiled, reduce(whole)), name


class TestShiftReduce:
    """``shift_reduce`` tiles rows; its results are the whole block's."""

    @pytest.mark.parametrize("lanes", [1, 7, 2047])
    def test_lanes_off_the_tile_edge(self, lanes):
        n = 96                           # 682 rows per tile
        assert lanes % (TILE // n)
        assert_tiled_equals_whole(seeded(3, lanes, n))

    @pytest.mark.parametrize("lanes", [1, 5, 22, 23, 24])
    def test_small_tiles(self, monkeypatch, lanes):
        monkeypatch.setattr(perms, "TILE", 7 * 11)   # 7 rows of n = 11
        assert_tiled_equals_whole(seeded(4, lanes, 11))

    def test_one_row_per_tile(self):
        n = TILE + 3
        assert_tiled_equals_whole(seeded(5, 3, n))

    @pytest.mark.parametrize("n", [8, 9])
    def test_exhaustive_row_blocks(self, n):
        for block in row_blocks(n):
            assert_tiled_equals_whole(block)

    def test_hint_allocates_a_tile_not_the_block(self):
        lanes, n = 256, 4096
        block = seeded(6, lanes, n)
        hints = shift_strategy(n).hints
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = hints(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, shift_counts(block).argmax(axis=1))
        # one int64 whole-block histogram is 8 MB
        assert peak < lanes * n * 8 // 4


class TestLaneGroups:
    """A seeded block's rows are strided; for 1024 < n <= 16384 a tile
    holds fewer than ``GROUP`` rows and ``GROUP`` lanes fit the scratch, so
    ``shift_reduce`` reads the block through a C-order scratch of ``GROUP``
    lanes. Its results are the whole block's."""

    @pytest.mark.parametrize("n", [1024, 1025, 4097, 10000, 16384, 16385])
    def test_both_sides_of_the_gate(self, monkeypatch, n):
        block = seeded(7, 65, n)          # one lane past a group
        assert block.strides[1] != block.itemsize
        groups, read = [], perms._lane_groups
        monkeypatch.setattr(perms, "_lane_groups",
                            lambda b: groups.append(b) or read(b))
        assert_tiled_equals_whole(block)  # most n end in a part slice
        assert bool(groups) == (1024 < n <= 16384)

    @pytest.mark.parametrize("lanes", [1, 63, 64, 65, 2047])
    def test_lanes_off_the_group_edge(self, lanes):
        assert_tiled_equals_whole(seeded(8, lanes, 1025))

    def test_class_table(self):
        n = 2048                          # the XOR square: row r is i ^ r
        table = np.arange(n)[:, None] ^ np.arange(n)
        assert_tiled_equals_whole(seeded(9, 65, n), table)

    @pytest.mark.parametrize("lanes, n", [
        (2048, 10000),                    # 41 MB of uint16
        (64, TILE + 3),                   # 16.8 MB of uint32: not copied
    ])
    def test_hint_allocates_a_group_not_the_block(self, lanes, n):
        block = seeded(10, lanes, n)
        hints = shift_strategy(n).hints
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = hints(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, hints(np.ascontiguousarray(block)))
        # a 64-lane scratch is 1.28 MB at n = 10000, and at most 2 MB
        assert peak < 4 << 20


class TestTransposition:
    def test_swap_adjacent(self):
        assert apply_transposition(identity_permutation(3), 0, 1).image == (1, 0, 2)

    def test_swap_same_position_is_identity(self):
        p = make_permutation([2, 0, 1])
        assert apply_transposition(p, 1, 1) == p

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange,
                           match=r"^positions \(0, 3\) not in 0\.\.2$"):
            apply_transposition(identity_permutation(3), 0, 3)

    @pytest.mark.parametrize("value", [True, 1.0, "1", None],
                             ids=["bool", "float", "string", "none"])
    def test_inverse_of_reads_its_value(self, value):
        # tuple.index alone would find True and 1.0 at the position of 1
        with pytest.raises(ParameterOutOfRange,
                           match="^value holds a non-integer$"):
            identity_permutation(3).inverse_of(value)

    @pytest.mark.parametrize("value", [3, -1, 10 ** 30])
    def test_inverse_of_out_of_range(self, value):
        with pytest.raises(ParameterOutOfRange,
                           match=rf"^value {value} not in 0\.\.2$"):
            identity_permutation(3).inverse_of(value)

    def test_inverse_of_numpy_value(self):
        assert make_permutation([2, 0, 1]).inverse_of(np.int64(0)) == 1

    def test_deck_swap_puts_hint_card_first(self):
        deck = example_deck()
        pos = deck.inverse_of(29)
        assert pos == 30
        after = apply_transposition(deck, 0, pos)
        assert after.image[0] == 29
        assert after.image[30] == 49

    @given(small_perms(), hs.data())
    def test_involution(self, p, data):
        a = data.draw(hs.integers(min_value=0, max_value=p.n - 1))
        b = data.draw(hs.integers(min_value=0, max_value=p.n - 1))
        assert apply_transposition(apply_transposition(p, a, b), a, b) == p


class TestFixedPoints:
    """The fixed points are class 0 of the shift histogram."""

    def test_identity(self):
        assert shift_histogram(identity_permutation(4)).counts[0] == 4

    def test_two_two_cycles(self):
        assert shift_histogram(make_permutation([1, 0, 3, 2])).counts[0] == 0

    def test_single(self):
        assert shift_histogram(make_permutation([0, 2, 1])).counts[0] == 1


class TestLexRank:
    def test_identity_is_rank_zero(self):
        assert lex_rank(identity_permutation(3)) == 0

    def test_last_permutation(self):
        assert lex_unrank(3, 5).image == (2, 1, 0)

    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            for r, img in enumerate(itertools.permutations(range(n))):
                p = Permutation(img)
                assert lex_rank(p) == r
                assert lex_unrank(n, r) == p

    def test_rank_out_of_range(self):
        with pytest.raises(ParameterOutOfRange,
                           match=r"^rank 6 not in 0\.\.3!-1$"):
            lex_unrank(3, 6)
        with pytest.raises(ParameterOutOfRange,
                           match=r"^rank -1 not in 0\.\.3!-1$"):
            lex_unrank(3, -1)


class TestSerialization:
    def test_json_array(self):
        import json
        p = make_permutation([2, 0, 1])
        assert json.loads(p.to_json()) == [2, 0, 1]


def shuffled(n, rng):
    """A uniform permutation of 0..n-1 from the scalar stream of ``rng``."""
    items = list(range(n))
    rng.shuffle(items)
    return Permutation(tuple(items))


class TestRandomPermutation:
    """The scalar shuffle, the reference of the batch engine."""

    def test_order_one(self):
        assert shuffled(1, Rng(123)).image == (0,)

    def test_determinism(self):
        a = shuffled(50, Rng(2024))
        b = shuffled(50, Rng(2024))
        assert a == b

    def test_advances_state(self):
        rng = Rng(5)
        assert shuffled(10, rng) != shuffled(10, rng)

    def test_uniform_over_s6(self):
        # 600k draws; every one of the 720 cells within 5 standard errors.
        n, draws = 6, 600_000
        batch = 10_000
        counts = np.zeros(720, dtype=np.int64)
        weights = np.array([factorial(n - 1 - i) for i in range(n)])
        done = 0
        while done < draws:
            rng = BatchRng(batch_seeds(31337, done, batch))
            perms = rng.permutations(n)
            # lex rank of each row, vectorized
            ranks = np.zeros(batch, dtype=np.int64)
            for i in range(n):
                smaller = (perms[:, i + 1:] < perms[:, i][:, None]).sum(axis=1)
                ranks += smaller * weights[i]
            counts += np.bincount(ranks, minlength=720)
            done += batch
        # the batch engine equals the scalar sampler draw for draw
        check = BatchRng(batch_seeds(31337, 0, 64)).permutations(n)
        for lane in range(64):
            scalar = shuffled(n, Rng(batch_seeds(31337, lane, 1)[0]))
            assert tuple(check[lane]) == scalar.image
        p = 1 / 720
        tol = 5 * (draws * p * (1 - p)) ** 0.5
        assert counts.min() > 0
        assert np.abs(counts - draws * p).max() < tol
