"""Reproducible random number generation.

Everything random in this package flows through one fixed, documented
generator so that results are bit-identical across platforms and worker
counts:

* stream: splitmix64 (64-bit state, golden-ratio increment, 3-round mix);
* bounded integers: rejection sampling, so there is no modulo bias;
* shuffles: Fisher-Yates from index n-1 downward;
* per-trial streams: trial t of a run seeded ``master`` starts from
  ``mix64(master ^ (t + 1) * GOLDEN)``, so batching never changes it.

Every sampler draws on the lanes of `BatchRng`, cut into blocks by
``lane_blocks``, the one owner of that rule. The scalar `Rng` and
``derive_seed`` are the reference it replays lane for lane, pinned by tests.

Every seeded block is one ``(n, lanes)`` shuffle buffer held in
``perms.block_dtype(n)``, the narrowest unsigned type that holds n - 1: 512
KB for 2048 lanes at n = 256 (uint8) and 41 MB at n = 10000 (uint16). The
draws and swap indices stay 64-bit, so the rows and the lane states do not
depend on the dtype.

``BatchRng.permutations`` shuffles in that position-major buffer, so the
row of the position being fixed is contiguous and each swap is one gather
and one scatter on the flat buffer. It takes its draws ``_CHUNK``
Fisher-Yates steps at a time from splitmix64's counter form: the state
after k draws is ``seed + k * GOLDEN``, so a chunk's raw draws are one
broadcast add and the mix applied in place on a small ``(_CHUNK, lanes)``
buffer that stays in cache. While no draw of the chunk is rejected, one
remainder by the per-step bounds gives every swap index. If any lane would
reject a draw in the chunk (a draw with bound k is rejected with chance
below k/2^64), the chunk is replayed step by step through ``randbelow``,
which redraws exactly the rejected lanes, so the stream is the one
``Rng.shuffle`` consumes. Step i fixes position i in the buffer itself:
row i takes the drawn cells and its old values go to them. The block is
the buffer's transposed ``(lanes, n)`` view; no row-major copy is made.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import enumeration
from .errors import ParameterOutOfRange
from .perms import LANES_PER_BLOCK, block_dtype

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Fisher-Yates steps drawn at once: two (_CHUNK, 2048) uint64 buffers, 2 MB
_CHUNK = 64
# counter-form strides: row c is the state advance after c + 1 draws
# (uint64 products wrap mod 2^64)
_STRIDES = (np.arange(1, _CHUNK + 1, dtype=np.uint64)
            * np.uint64(GOLDEN))[:, None]


def mix64(z: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit avalanche of ``z``."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """``mix64`` of every entry of uint64 ``z``, in place; ``tmp`` is scratch
    of the same shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def derive_seed(master: int, index: int) -> int:
    """Seed for the ``index``-th sub-stream of ``master``.

    Defined as ``mix64(master XOR (index + 1) * GOLDEN)``; the +1 keeps
    index 0 from collapsing to the master seed itself.
    """
    return mix64((master & MASK64) ^ (((index + 1) * GOLDEN) & MASK64))


class Rng:
    """Scalar splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def randbelow(self, k: int) -> int:
        """Uniform integer in [0, k) by rejection (no modulo bias)."""
        if k <= 0:
            raise ParameterOutOfRange(f"randbelow needs k >= 1, got {k}")
        limit = ((1 << 64) // k) * k
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the top index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


class BatchRng:
    """Many independent splitmix64 lanes advanced in lockstep with numpy.

    Lane ``t`` seeded with ``seeds[t]`` emits exactly the draws of
    ``Rng(seeds[t])``; rejection re-draws advance only the rejected lanes.
    """

    def __init__(self, seeds: np.ndarray):
        self.states = np.asarray(seeds, dtype=np.uint64).copy()

    @property
    def lanes(self) -> int:
        return self.states.shape[0]

    def _next(self, idx: np.ndarray | slice) -> np.ndarray:
        self.states[idx] += np.uint64(GOLDEN)
        z = self.states[idx].copy()
        _mix_into(z, np.empty_like(z))
        return z

    def randbelow(self, k: int) -> np.ndarray:
        """Per-lane uniform integer in [0, k), one accepted draw per lane."""
        if k <= 0:
            raise ParameterOutOfRange(f"randbelow needs k >= 1, got {k}")
        limit_int = ((1 << 64) // k) * k
        out = self._next(slice(None))
        if limit_int < (1 << 64):  # k divides 2^64 exactly otherwise
            limit = np.uint64(limit_int)
            pending = np.flatnonzero(out >= limit)
            while pending.size:
                out[pending] = self._next(pending)
                pending = pending[out[pending] >= limit]
        return (out % np.uint64(k)).astype(np.int64)

    def permutations(self, n: int) -> np.ndarray:
        """One permutation of 0..n-1 per lane, Fisher-Yates order: the
        ``(lanes, n)`` view of the position-major ``block_dtype(n)`` buffer
        shuffled. Row ``t`` equals what ``Rng.shuffle`` produces on lane
        ``t``'s stream, and the lanes end in the states that shuffle leaves.
        """
        lanes, dtype = self.lanes, block_dtype(n)
        buf = np.arange(n, dtype=dtype).repeat(lanes)  # [i*lanes + t]
        lane_ids = np.arange(lanes, dtype=np.int64)
        draws = np.empty((_CHUNK, lanes), dtype=np.uint64)
        tmp = np.empty_like(draws)
        top_row = np.empty(lanes, dtype=dtype)
        for top in range(n - 1, 0, -_CHUNK):
            low = max(top - _CHUNK, 0)          # this chunk fixes low+1..top
            steps = top - low
            bounds = np.arange(top + 1, low + 1, -1, dtype=np.uint64)
            z = draws[:steps]
            np.add(self.states, _STRIDES[:steps], out=z)
            _mix_into(z, tmp[:steps])
            # largest accepted draw per step: 2^64 - 1 - (2^64 mod bound)
            ok_max = MASK64 - (MASK64 % bounds + np.uint64(1)) % bounds
            if (z.max(axis=1, initial=0) > ok_max).any():
                picks = (self.randbelow(i + 1) * lanes + lane_ids
                         for i in range(top, low, -1))
            else:
                self.states += _STRIDES[steps - 1]
                z %= bounds[:, None]
                picks = z.view(np.int64)
                picks *= lanes
                picks += lane_ids
            for i, pick in zip(range(top, low, -1), picks):
                row = buf[i * lanes:(i + 1) * lanes]
                top_row[...] = row
                # lane t touches only cells t mod lanes, so gathering into
                # row is safe; every pick is in range, "clip" skips a check
                buf.take(pick, out=row, mode="clip")
                buf[pick] = top_row
        return buf.reshape(n, lanes).T


def batch_seeds(master: int, start: int, count: int) -> np.ndarray:
    """Seeds for trial indices ``start .. start+count-1`` as a uint64 array."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = (np.uint64(master & MASK64)
         ^ ((idx + np.uint64(1)) * np.uint64(GOLDEN)))
    _mix_into(z, np.empty_like(z))
    return z


def lane_blocks(master: int, start: int, count: int,
                lanes: int = LANES_PER_BLOCK) -> Iterator[tuple[int, BatchRng]]:
    """Trials ``start .. start+count-1`` in blocks of up to ``lanes``: each
    block's first trial a, and a ``BatchRng`` running trial a + i on lane i."""
    for a in range(start, start + count, lanes):
        yield a, BatchRng(batch_seeds(master, a, min(lanes, start + count - a)))


def seeded_blocks(master: int, n: int, start: int,
                  count: int) -> Iterator[tuple[np.ndarray, BatchRng]]:
    """Permutations of trials ``start .. start+count-1`` in blocks of up to
    ``LANES_PER_BLOCK`` rows, each with the ``BatchRng`` whose lanes continue
    those trials' streams after the shuffle.

    Each block is the view of its one ``lanes x n`` shuffle buffer of
    ``block_dtype(n)``, refused at the call, before any allocation, when it
    would not fit in :func:`enumeration.memory_bytes`. The check counts one
    block, so a caller drops each block before drawing the next, as
    ``sum(starmap(score, blocks))`` does: a run holds one block at a time.
    """
    lanes = min(LANES_PER_BLOCK, count)
    enumeration.check_memory(
        lanes * n * block_dtype(n).itemsize,
        f"sampling in blocks of {lanes} permutations of order {n}")
    return ((rng.permutations(n), rng)
            for _, rng in lane_blocks(master, start, count))
