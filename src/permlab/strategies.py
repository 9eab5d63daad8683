"""Hint+guess strategies for the needle-in-a-haystack game.

A strategy is a pair of deterministic functions: a hint maps the hidden
permutation to a message in 0..m-1, a guess maps (message, target) to the
single position probed. Success means the probed position holds the target.
Both are defined over blocks: ``hints`` maps a ``(B, n)`` block of
permutation rows to ``(B,)`` messages and ``guesses`` maps ``(B,)`` messages
and a target (one int or ``(B,)``) to ``(B,)`` positions; one permutation
is a block of one row. ``needle_wins`` scores a block, and every
needle-game count in the package comes from it.

Concrete strategies:

* shift   -- hint = most populous displacement class, probe (target + hint) mod n;
* naive   -- hint = content of position 0, probe 0 on a match else position 1;
* latin   -- hint = closest row of an n x n latin square, probe through that
             row's inverse (the shift strategy is the cyclic special case);
* baseline -- no advice (m = 1), probe the target's own position.

Shift and latin share one hint, the first largest class of
``perms.shift_reduce``: latin labels position i with the square's row
through cell (i, sigma(i)), so a row's class size is its agreement.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

import numpy as np

from .enumeration import SWEEP_GUARD, row_blocks
from .errors import NotLatin, ParameterOutOfRange, UnknownStrategy, ints
from .perms import Checked, shift_reduce


class Strategy(Checked, NamedTuple("Strategy", [
        ("name", str), ("n", int), ("hints", Callable), ("guesses", Callable)])):
    """A deterministic advice strategy for order n: ``hints`` gives each row
    a message in 0..m-1, ``guesses`` the position probed for it and a target.
    Its order n is read by ``errors.ints`` when it is built."""

    __slots__ = ()

    def __new__(cls, name: str, n: int,
                hints: Callable[[np.ndarray], np.ndarray],
                guesses: Callable[[np.ndarray, np.ndarray | int], np.ndarray]):
        (n,) = ints((n,), ParameterOutOfRange, "the strategy's order n")
        return super().__new__(cls, name, n, hints, guesses)


def needle_wins(st: Strategy, block: np.ndarray,
                targets: int | np.ndarray | None = None) -> np.ndarray:
    """Successes of ``st`` on the rows of ``block``: one count per target
    0..n-1 when ``targets`` is None, else one count for the ``targets``
    given, one int for every row or one per row."""
    rows = np.arange(len(block))
    h = st.hints(block)
    cells = range(st.n) if targets is None else [targets]
    return np.array([np.count_nonzero(block[rows, st.guesses(h, s)] == s)
                     for s in cells], dtype=np.int64)


class LatinSquare(Checked, NamedTuple("LatinSquare", [
        ("rows", tuple[tuple[int, ...], ...])])):
    """n rows that are permutations of 0..n-1, with every column one too."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(ints(r, NotLatin) for r in rows)
        n = len(rows)
        if n == 0:
            raise NotLatin("a latin square needs at least one row")
        cols = set(range(n))
        for r in rows:
            if len(r) != n or set(r) != cols:
                raise NotLatin(f"row {r!r} is not a permutation of 0..{n - 1}")
        for c in range(n):
            if {r[c] for r in rows} != cols:
                raise NotLatin(f"column {c} repeats a value")
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def cyclic(cls, n: int) -> "LatinSquare":
        """Row r is the shift-by-r permutation ``i -> (i - r) mod n``."""
        return cls(tuple(tuple((i - r) % n for i in range(n)) for r in range(n)))

    @classmethod
    def from_json(cls, text: str | bytes) -> "LatinSquare":
        try:
            data = json.loads(text.decode() if isinstance(text, bytes) else text)
        except (ValueError, RecursionError) as exc:
            # not UTF-8, bad JSON, too deep, or an int past str's digit limit
            raise NotLatin(f"latin square file is not readable JSON: {exc}")
        if not isinstance(data, list):
            raise NotLatin("latin square file must hold a JSON matrix of "
                           "integers")
        return cls(tuple(data))


def _closest_row(name: str, n: int, table, guesses) -> Strategy:
    """Hint = the first largest class of ``shift_counts(block, table)``."""
    return Strategy(name, n, lambda block: shift_reduce(
        block, lambda c: c.argmax(axis=1), table), guesses)


def shift_strategy(n: int) -> Strategy:
    return _closest_row("shift", n, None, lambda h, s: (s + h) % n)


def naive_strategy(n: int) -> Strategy:
    def hints(block: np.ndarray) -> np.ndarray:
        return block[:, 0].astype(np.int64)

    def guesses(h, s):
        # any fixed second position works; 1 keeps runs reproducible
        return np.where(s == h, 0, 1)

    st = Strategy("naive", n, hints, guesses)   # reads n before it is compared
    if st.n < 2:
        raise ParameterOutOfRange("naive strategy needs n >= 2")
    return st


def baseline_strategy(n: int) -> Strategy:
    """No advice: a single dummy message and a probe at the target itself."""
    return Strategy("baseline", n,
                    lambda block: np.zeros(len(block), dtype=np.int64),
                    lambda h, s: np.broadcast_to(s, h.shape))


def latin_strategy(square: LatinSquare) -> Strategy:
    n = square.n
    rows = np.array(square.rows, dtype=np.int64)
    table = np.empty_like(rows)   # table[i][v] = the row placing v at i
    table[np.arange(n), rows] = np.arange(n)[:, None]
    inverses = np.argsort(rows, axis=1)   # inverses[r][v] = position of v in row r
    return _closest_row("latin", n, table, lambda h, s: inverses[h, s])


def strategy_by_name(name: str, n: int) -> Strategy:
    """Resolve a CLI-style strategy name: shift | naive | baseline | latin:<file>."""
    (n,) = ints((n,), ParameterOutOfRange, "the strategy's order n")
    named = {"shift": shift_strategy, "naive": naive_strategy,
             "baseline": baseline_strategy}.get(name)
    if named is not None:
        return named(n)
    if name.startswith("latin:"):
        path = name.split(":", 1)[1]
        with open(path, "rb") as fh:
            square = LatinSquare.from_json(fh.read())
        if square.n != n:
            raise UnknownStrategy(
                f"latin square of order {square.n} does not match n={n}")
        return latin_strategy(square)
    raise UnknownStrategy(f"unknown strategy {name!r}")


class ExactEvaluation(NamedTuple):
    """Exact per-target success probabilities of a strategy."""

    strategy: str
    n: int
    per_target: tuple[Fraction, ...]
    overall: Fraction          # uniform average over targets
    minimum: Fraction
    worst_target: int


def evaluate_success_exact(st: Strategy, guard: int = SWEEP_GUARD) -> ExactEvaluation:
    """Sweep every permutation and every target; exact rational results."""
    n = st.n
    wins = sum(needle_wins(st, block) for block in row_blocks(n, guard))
    total = factorial(n)
    per_target = tuple(Fraction(int(w), total) for w in wins)
    overall = Fraction(int(wins.sum()), total * n)
    minimum = min(per_target)
    return ExactEvaluation(st.name, n, per_target, overall, minimum,
                           per_target.index(minimum))
