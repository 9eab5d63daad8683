"""The generator contract: fixed algorithm, fixed streams, no modulo bias."""

import numpy as np
import pytest
from hypothesis import given, strategies as hs

from permlab.rng import (_CHUNK, _MIX1, _MIX2, GOLDEN, MASK64, BatchRng, Rng,
                         batch_seeds, derive_seed, mix64)

# splitmix64 reference outputs for seed 0 (published test vector)
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_reference_vector_seed_zero():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_OUTPUTS


def test_mix64_is_pure():
    assert mix64(12345) == mix64(12345)
    assert mix64(0) != mix64(1)


def test_same_seed_same_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_seed_distinct_and_matches_batch():
    singles = [derive_seed(42, i) for i in range(1000)]
    assert len(set(singles)) == 1000
    assert list(batch_seeds(42, 0, 1000)) == singles


@given(hs.integers(min_value=1, max_value=10**9), hs.integers(min_value=0))
def test_randbelow_in_range(k, seed):
    assert 0 <= Rng(seed).randbelow(k) < k


def test_randbelow_smoke_uniformity():
    rng = Rng(7)
    draws = 30_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[rng.randbelow(3)] += 1
    expect = draws / 3
    tol = 5 * (draws * (1 / 3) * (2 / 3)) ** 0.5
    assert all(abs(c - expect) < tol for c in counts)


def test_batch_randbelow_equals_scalar():
    seeds = [derive_seed(5, i) for i in range(64)]
    batch = BatchRng(np.array(seeds, dtype=np.uint64))
    scalars = [Rng(s) for s in seeds]
    for k in (2, 3, 7, 52, 1 << 16, 10**6 + 3):
        got = batch.randbelow(k)
        want = [r.randbelow(k) for r in scalars]
        assert got.tolist() == want


def test_batch_permutations_equal_scalar_shuffle():
    seeds = [derive_seed(99, i) for i in range(40)]
    batch = BatchRng(np.array(seeds, dtype=np.uint64)).permutations(9)
    for lane, s in enumerate(seeds):
        items = list(range(9))
        Rng(s).shuffle(items)
        assert batch[lane].tolist() == items


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randbelow(0)
    with pytest.raises(ValueError):
        BatchRng(np.array([1], dtype=np.uint64)).randbelow(-2)


def _unmix64(u):
    """Inverse of ``mix64``: each xorshift and odd multiply is a bijection."""
    def unxorshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unxorshift(u, 31)
    z = unxorshift((z * pow(_MIX2, -1, 1 << 64)) & MASK64, 27)
    return unxorshift((z * pow(_MIX1, -1, 1 << 64)) & MASK64, 30)


def test_unmix64_inverts_mix64():
    for z in (0, 1, GOLDEN, MASK64, derive_seed(3, 7)):
        assert _unmix64(mix64(z)) == z


def test_batch_randbelow_redraws_only_rejected_lane():
    # for k = 3 the acceptance limit is 2^64 - 1, so only u = 2^64 - 1 is
    # redrawn; lane 2 is seeded so that its next draw is exactly that value
    seeds = [derive_seed(11, i) for i in range(4)]
    seeds[2] = (_unmix64(MASK64) - GOLDEN) & MASK64
    assert Rng(seeds[2]).next_u64() == MASK64
    batch = BatchRng(np.array(seeds, dtype=np.uint64))
    scalars = [Rng(s) for s in seeds]
    assert batch.randbelow(3).tolist() == [r.randbelow(3) for r in scalars]
    advanced = [(int(b) - s) & MASK64 for b, s in zip(batch.states, seeds)]
    assert advanced == [GOLDEN, GOLDEN, (2 * GOLDEN) & MASK64, GOLDEN]
    assert batch.states.tolist() == [r.state for r in scalars]
    for k in (3, 7, 52):
        assert batch.randbelow(k).tolist() == [r.randbelow(k) for r in scalars]


def reference_permutations(rng, n):
    """The row-major Fisher-Yates loop ``BatchRng.permutations`` replaced:
    one ``randbelow`` per step and a 2-D fancy-index swap."""
    out = np.tile(np.arange(n, dtype=np.int32), (rng.lanes, 1))
    rows = np.arange(rng.lanes)
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        left = out[rows, i].copy()
        out[rows, i] = out[rows, j]
        out[rows, j] = left
    return out


def narrowest_unsigned(n):
    """The dtype of a seeded block of order n: the narrowest unsigned type
    that holds n - 1."""
    return np.dtype(np.uint8 if n <= 256 else
                    np.uint16 if n <= 65536 else np.uint32)


def assert_position_major_view(got, lanes, n):
    """``got`` is the ``(lanes, n)`` transposed view of one position-major
    buffer: entry [t, i] sits at flat index i * lanes + t, and no second
    array holds the rows."""
    assert got.dtype == narrowest_unsigned(n)
    assert got.shape == (lanes, n)
    buf = got.base
    assert buf is not None and buf.ndim == 1 and buf.size == lanes * n
    assert got.strides == (got.itemsize, lanes * got.itemsize)
    assert np.array_equal(got, buf.reshape(n, lanes).T)


def assert_permutations_match_reference(seeds, n):
    fast = BatchRng(np.array(seeds, dtype=np.uint64))
    slow = BatchRng(np.array(seeds, dtype=np.uint64))
    got = fast.permutations(n)
    assert_position_major_view(got, len(seeds), n)
    assert np.array_equal(got, reference_permutations(slow, n))
    assert np.array_equal(fast.states, slow.states)
    return fast


# at n = 0 and 1 the chunk loop never runs, and at n = 2 it runs one step
@pytest.mark.parametrize("n", [0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 1, 1000])
@pytest.mark.parametrize("lanes", [1, 7, 2048])
def test_batch_permutations_equal_reference_loop(n, lanes):
    seeds = batch_seeds(n * 31 + lanes, 0, lanes).tolist()
    fast = assert_permutations_match_reference(seeds, n)
    # no draw was rejected, so each lane advanced by exactly n - 1 draws
    draws = max(n - 1, 0)
    assert ((np.array(seeds, dtype=np.uint64)
             + np.uint64(draws * GOLDEN & MASK64)) == fast.states).all()


@pytest.mark.parametrize("n", [256, 257, 65536, 65537])
def test_batch_permutations_at_dtype_edges(n):
    # every row holds n - 1: at 256 and 65536 the largest value of its dtype
    assert_permutations_match_reference(batch_seeds(n, 0, 3).tolist(), n)


def _seed_rejecting_draw(d):
    """A seed whose draw number ``d`` (0-based) is 2^64 - 1, which
    ``randbelow(k)`` rejects for every k that is not a power of two."""
    return (_unmix64(MASK64) - (d + 1) * GOLDEN) & MASK64


@pytest.mark.parametrize("draws", [
    [_CHUNK],                      # first step of the second chunk
    [_CHUNK + _CHUNK // 2],        # a middle step
    [2 * _CHUNK - 1],              # the last step of a chunk
    [_CHUNK + 3, _CHUNK + 40],     # two lanes rejecting in one chunk
    [0],                           # the very first draw
], ids=["first", "middle", "last", "two-lanes", "draw0"])
def test_batch_permutations_replay_rejected_chunk(draws):
    n = 3 * _CHUNK + 5
    # draw d of a shuffle of n has bound n - d; rejection needs a bound
    # that does not divide 2^64
    assert all((n - d) & (n - d - 1) for d in draws)
    seeds = batch_seeds(17, 0, 9).tolist()
    forced = {2 + 3 * k: d for k, d in enumerate(draws)}
    for lane, d in forced.items():
        seeds[lane] = _seed_rejecting_draw(d)
    fast = assert_permutations_match_reference(seeds, n)
    for lane, s in enumerate(seeds):
        used = (n - 1) + (lane in forced)   # a rejection costs one more draw
        assert int(fast.states[lane]) == (s + used * GOLDEN) & MASK64
