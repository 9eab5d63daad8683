"""Permutations of 0..n-1: construction, shift statistics, surgery.

A permutation sigma is stored by its image array (``image[i] = sigma(i)``).
The displacement of position i is ``v(i) = (i - sigma(i)) mod n``; the shift
histogram counts, for each class ``l``, how many positions are displaced by
``l``. Class 0 counts the fixed points. ``shift_counts`` computes the
histograms of a whole ``(B, n)`` block of permutation rows at once.

Samplers that only need one reduction per row of a block's histograms (the
shift hint's argmax, the largest class, the sizes of two classes) call
``shift_reduce``, which runs ``shift_counts`` on row tiles of about
``TILE`` histogram cells and keeps only each tile's reduced rows. A
2048 x 10000 block's whole histogram would take three 164 MB int64
temporaries; a tile's take 512 KB each.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import factorial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import NotABijection, ParameterOutOfRange, PermlabError

if TYPE_CHECKING:
    import numpy as np

# histogram cells per tile of ``shift_reduce``: 2^16 int64 cells, 512 KB
TILE = 1 << 16


def ints(values: Iterable, error: type[PermlabError],
         what: str = "") -> tuple[int, ...]:
    """``values`` as ints, by the package's one rule for an outside integer:
    a Python or numpy integer is read; a bool, float, string or None is
    refused with ``error``: ``what`` (``values`` by default) holds a
    non-integer. ``Permutation`` alone tests for an exact ``int``."""
    try:
        items = tuple(values)
        if bool not in set(map(type, items)):   # a bool is an int, no entry
            return tuple(map(operator.index, items))
    except TypeError:
        pass
    raise error(f"{what or repr(values)} holds a non-integer")


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1, immutable and validated at construction. Its
    entries must be ints; :func:`make_permutation` reads any integers."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0:
            raise NotABijection("a permutation needs at least one element")
        seen = [False] * n
        for v in self.image:
            if type(v) is not int or not 0 <= v < n or seen[v]:
                raise NotABijection(
                    f"{self.image!r} is not a permutation of 0..{n - 1}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.image)

    def inverse_of(self, value: int) -> int:
        """The position holding ``value``."""
        return self.image.index(value)

    def to_json(self) -> str:
        return json.dumps(list(self.image))


@dataclass(frozen=True)
class ShiftHistogram:
    """Counts per displacement class; ``counts[l]`` is the size of class l."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = ints(self.counts, ParameterOutOfRange)
        n = len(counts)
        if sum(counts) != n or any(not 0 <= c <= n for c in counts):
            raise ParameterOutOfRange(f"invalid shift histogram {counts!r}")
        object.__setattr__(self, "counts", counts)


def make_permutation(values: Sequence[int]) -> Permutation:
    """Read ``values`` by :func:`ints` and wrap them as a Permutation."""
    return Permutation(ints(values, NotABijection))


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def shift_vector(p: Permutation) -> tuple[int, ...]:
    """Displacements ``v(i) = (i - sigma(i)) mod n`` for each position."""
    n = p.n
    return tuple((i - s) % n for i, s in enumerate(p.image))


def shift_histogram(p: Permutation) -> ShiftHistogram:
    counts = [0] * p.n
    for v in shift_vector(p):
        counts[v] += 1
    return ShiftHistogram(tuple(counts))


def block_dtype(n: int) -> np.dtype:
    """The dtype of every sampled block of order-n rows, seeded or streamed:
    the narrowest unsigned integer type that holds n - 1 (uint8 up to
    n = 256, uint16 up to 65536, uint32 beyond). Kernels promote its values
    to int64 before any arithmetic, so nothing wraps."""
    import numpy as np
    return np.min_scalar_type(max(n - 1, 0))


def shift_counts(block: np.ndarray) -> np.ndarray:
    """Shift histograms of a ``(B, n)`` block of permutation rows, ``(B, n)``
    int64: entry ``[b, l]`` counts the positions of row b displaced by l.

    Each displacement becomes a key ``b*n + v`` for one ``bincount``. The
    keys are built in int64 with a sign fix-up rather than ``% n``, so a
    large block needs one key array and no narrower intermediate. Its
    temporaries are as large as the block; samplers that reduce each row
    call :func:`shift_reduce` instead.
    """
    import numpy as np
    lanes, n = block.shape
    # i - sigma(i), in (-n, n); the int64 range promotes an unsigned block
    keys = np.arange(n, dtype=np.int64) - block
    keys += (keys < 0) * n
    keys += (np.arange(lanes, dtype=np.int64) * n)[:, None]
    return np.bincount(keys.ravel(), minlength=lanes * n).reshape(lanes, n)


def shift_reduce(block: np.ndarray,
                 reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``reduce(shift_counts(block))`` for a ``reduce`` that maps each row
    of histograms on its own (``c.argmax(axis=1)``, ``c[:, cols]``), run on
    tiles of ``max(1, TILE // n)`` rows so only a tile's histograms exist
    at once."""
    import numpy as np
    rows = max(1, TILE // block.shape[1])
    return np.concatenate([reduce(shift_counts(block[a:a + rows]))
                           for a in range(0, len(block), rows)])


def argmax_shift(h: ShiftHistogram) -> int:
    """Most populous displacement class; ties go to the lowest index."""
    return h.counts.index(max(h.counts))


def apply_transposition(p: Permutation, a: int, b: int) -> Permutation:
    """New permutation with the images at positions a and b exchanged."""
    n = p.n
    if not (0 <= a < n and 0 <= b < n):
        raise ParameterOutOfRange(f"positions ({a}, {b}) not in 0..{n - 1}")
    img = list(p.image)
    img[a], img[b] = img[b], img[a]
    return Permutation(tuple(img))


def rotate_values(p: Permutation, l: int) -> Permutation:
    """The permutation ``i -> (sigma(i) + l) mod n``."""
    n = p.n
    return Permutation(tuple((s + l) % n for s in p.image))


def lex_rank(p: Permutation) -> int:
    """Rank of ``p`` among all permutations of its order, in lex order."""
    n = p.n
    remaining = list(range(n))
    rank = 0
    for i, s in enumerate(p.image):
        pos = remaining.index(s)
        rank += pos * factorial(n - 1 - i)
        remaining.pop(pos)
    return rank


def lex_unrank(n: int, rank: int) -> Permutation:
    """Inverse of :func:`lex_rank`: the rank-th permutation in lex order."""
    if not 0 <= rank < factorial(n):
        raise ParameterOutOfRange(f"rank {rank} not in 0..{n}!-1")
    remaining = list(range(n))
    image = []
    for i in range(n):
        f = factorial(n - 1 - i)
        pos, rank = divmod(rank, f)
        image.append(remaining.pop(pos))
    return Permutation(tuple(image))


def example_deck() -> Permutation:
    """The 52-card worked example shipped as a data fixture.

    Card v sits in locker i when ``image[i] = v``; cards map to 0..51 as
    clubs 0-12, diamonds 13-25, hearts 26-38, spades 39-51, each suit in
    the order 2,3,...,10,J,Q,K,A.
    """
    from importlib import resources
    text = resources.files("permlab.data").joinpath("example_deck.json").read_text()
    return make_permutation(json.loads(text))
