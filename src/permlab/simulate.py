"""Seeded Monte Carlo and exhaustive engines for the two search games.

Needle game: a uniform permutation is hidden, the adviser computes a hint
from it, the seeker probes one position for the target. Locker game: the
adviser may instead swap two positions' contents; the seeker opens position
0, reads the hint off it, and (if needed) opens one more position.

Each game has one kernel that scores a ``(B, n)`` block of permutation rows:
``strategies.needle_wins`` and ``locker_wins`` here. The shift hint and
``max_shift_distribution`` reduce each row's shift histogram through
``perms.shift_reduce``, so only a tile of rows' histograms exists at once,
and ``locker_wins`` reads the one swapped cell each row probes rather than
copying the block. Blocks come from one of three sources: seeded
(``rng.seeded_blocks``), exhaustive (``enumeration.row_blocks``, int8 lex
blocks of at most 7! rows whatever n is; counts become exact fractions) or
a caller's permutation stream (never with an exhaustive run). A seeded or
streamed block is refused by ``rng.check_block`` before any allocation
when it would not fit in memory. A seeded block is the transposed view of
its shuffle buffer, the others are row-major, and the kernels read either
order. ``_wins`` and ``max_shift_distribution`` read them as
``sum(starmap(score, blocks))``, which drops each block before the next is
drawn, so a run holds one block at a time (each pool worker one), the one
block the memory check counts.
Seeded and streamed blocks hold ``perms.block_dtype(n)``, the narrowest
unsigned type that holds n - 1; the kernels compare its values and promote
them to int64 before any arithmetic, so an unsigned block never wraps.
Seeded and streamed trials draw on the lanes of ``rng.lane_blocks``: every
trial runs on its own splitmix64 stream keyed by (master seed, trial
index), so totals are bitwise identical however trials are batched or
distributed over workers.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import starmap
from math import factorial, log2
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .counting import typical_max_shift
from .enumeration import SWEEP_GUARD, row_blocks
from .errors import (NotABijection, ParameterOutOfRange, UnknownStrategy,
                     ints)
from .perms import (LANES_PER_BLOCK, Checked, block_dtype, make_permutation,
                    shift_reduce)
from .rng import BatchRng, check_block, lane_blocks, seeded_blocks
from .strategies import Strategy, needle_wins, strategy_by_name

_WILSON_Z = 1.959963984540054  # two-sided 95%

PermStream = Callable[[int], Sequence[int]]
Blocks = Iterator[tuple[np.ndarray, BatchRng | None]]


class GameConfig(Checked, NamedTuple("GameConfig", [
        ("n", int), ("trials", int), ("seed", int),
        ("strategy", str | Strategy), ("target_mode", str),
        ("target", int | None), ("exhaustive", bool), ("workers", int)])):
    """Resolved inputs of one simulation run, refused as they are built when
    the run cannot be honoured."""

    __slots__ = ()

    def __new__(cls, n: int, trials: int = 100_000, seed: int = 0,
                strategy: str | Strategy = "shift",
                target_mode: str = "uniform", target: int | None = None,
                exhaustive: bool = False, workers: int = 1):
        n, trials, seed, workers, *target = ints(
            (n, trials, seed, workers) + (() if target is None else (target,)),
            ParameterOutOfRange, "n, trials, seed, workers or target")
        target = target[0] if target else None
        for name, value in zip(("n", "trials", "workers"), (n, trials, workers)):
            if value < 1:
                raise ParameterOutOfRange(f"{name} must be positive, got {value}")
        if not isinstance(strategy, (str, Strategy)):
            raise UnknownStrategy(f"strategy {strategy!r} is neither a "
                                  "name nor a Strategy")
        if isinstance(strategy, Strategy) and strategy.n != n:
            raise ParameterOutOfRange(f"strategy {strategy.name!r} is of "
                                      f"order {strategy.n}, not n={n}")
        if not isinstance(exhaustive, bool):
            raise ParameterOutOfRange(
                f"exhaustive must be a bool, not {exhaustive!r}")
        if target_mode not in ("uniform", "fixed", "sweep"):
            raise ParameterOutOfRange(f"unknown target mode {target_mode!r}")
        if target_mode == "fixed":
            if target is None or not 0 <= target < n:
                raise ParameterOutOfRange(
                    f"fixed mode needs a target in 0..{n - 1}")
        elif target is not None:
            raise ParameterOutOfRange(
                f"a target applies only to fixed mode, not {target_mode}")
        return super().__new__(cls, n, trials, seed, strategy, target_mode,
                               target, exhaustive, workers)

    def strategy_obj(self) -> Strategy:
        if isinstance(self.strategy, str):
            return strategy_by_name(self.strategy, self.n)
        return self.strategy

    def strategy_name(self) -> str:
        return self.strategy if isinstance(self.strategy, str) else self.strategy.name


class TargetStat(NamedTuple):
    target: int
    trials: int
    successes: int
    estimate: float
    wilson_95_low: float
    wilson_95_high: float
    exact: Fraction | None = None


class SimulationReport(NamedTuple):
    game: str
    n: int
    trials: int
    seed: int
    strategy: str
    target_mode: str
    target: int | None
    exhaustive: bool
    successes: int
    estimate: float
    wilson_95_low: float
    wilson_95_high: float
    exact: Fraction | None
    per_target: tuple[TargetStat, ...] | None
    theory_refs: dict

    @property
    def std_err(self) -> float:
        return math.sqrt(self.estimate * (1 - self.estimate) / self.trials)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


def theory_reference_values(n: int) -> dict:
    refs = {"no_advice": 1.0 / n}
    if n >= 2:                   # the naive strategy refuses n < 2
        refs["naive_exact"] = 2.0 / n
    if n >= 4:
        refs["shift_growth"] = log2(n) / (n * log2(log2(n)))
    if n >= 6:
        refs["typical_max_shift"] = typical_max_shift(n)
    return refs


# ---------------------------------------------------------------------------
# kernels and sources
# ---------------------------------------------------------------------------

def locker_wins(st: Strategy, block: np.ndarray,
                targets: int | np.ndarray | None = None) -> np.ndarray:
    """Locker-game successes on the rows of ``block``, counted as
    ``needle_wins`` counts them. The adviser swaps the hint card into
    position 0; the seeker wins at once when the target is the hint, else
    probes ``st.guesses(hint, target)`` in the swapped row. Cell g of a
    swapped row is the hint at 0, the row's first card where the hint sat
    (the one cell that holds the hint), and the row's own card elsewhere."""
    rows = np.arange(len(block))
    h = st.hints(block)

    def swapped(g: np.ndarray) -> np.ndarray:
        cell = block[rows, g]
        return np.where(g == 0, h, np.where(cell == h, block[:, 0], cell))

    cells = range(st.n) if targets is None else [targets]
    return np.array([np.count_nonzero((h == s)
                                      | (swapped(st.guesses(h, s)) == s))
                     for s in cells], dtype=np.int64)


_KERNELS = {"needle": needle_wins, "locker": locker_wins}


def _stream_block(perm_stream: PermStream, n: int, trials: range) -> np.ndarray:
    """Rows ``perm_stream(t)`` for t in ``trials``, each read by
    ``make_permutation`` as a permutation of order n and stored in the one
    ``block_dtype(n)`` array as soon as it is read; the array is all that
    outlives the call."""
    block = np.empty((len(trials), n), dtype=block_dtype(n))
    for row, t in zip(block, trials):
        image = make_permutation(perm_stream(t)).image
        if len(image) != n:
            raise NotABijection(f"the permutation stream must yield order-{n} rows")
        row[:] = image
    return block


def _source(cfg: GameConfig, perm_stream: PermStream | None) -> tuple[str, Blocks]:
    """A run's mode and its blocks: all n! rows in lex blocks (with no lane
    streams), a caller's permutation stream, or seeded trials 0..trials-1,
    each streamed or seeded block with the ``BatchRng`` of its trials. Every
    source refuses here, before any block (a streamed block is one row-major
    array with no pad), and a run cannot be both exhaustive and streamed."""
    if cfg.exhaustive and perm_stream is not None:
        raise ParameterOutOfRange(
            "an exhaustive run takes no permutation stream")
    if cfg.exhaustive:
        return "exhaustive", ((b, None) for b in row_blocks(cfg.n, SWEEP_GUARD))
    if perm_stream is not None:
        lanes = min(LANES_PER_BLOCK, cfg.trials)
        check_block(lanes, cfg.n, lanes)
        return "stream", ((_stream_block(perm_stream, cfg.n,
                                         range(a, a + rng.lanes)), rng)
                          for a, rng in lane_blocks(cfg.seed, 0, cfg.trials))
    return "sampled", seeded_blocks(cfg.seed, cfg.n, 0, cfg.trials)


def _targets(cfg: GameConfig, rng: BatchRng | None) -> int | np.ndarray | None:
    """The fixed target itself, one int for every source; None (every
    target) in sweep mode or for a uniform run's blocks with no lane streams;
    else per-lane targets, drawn next from each trial's stream."""
    if cfg.target_mode == "fixed":
        return cfg.target
    if rng is None or cfg.target_mode == "sweep":
        return None
    return rng.randbelow(cfg.n)


def _wins(game: str, cfg: GameConfig, st: Strategy, blocks: Blocks) -> np.ndarray:
    """Successes over ``blocks``: per target in sweep mode or for a uniform
    run's blocks with no lane streams, else one total."""
    return sum(starmap(lambda block, rng: _KERNELS[game](
        st, block, _targets(cfg, rng)), blocks))


def _chunk_wins(game: str, cfg: GameConfig, start: int, width: int) -> np.ndarray:
    """Seeded trials start..start+width-1 in a pool worker; top level so it
    pickles, with the strategy crossing as its name."""
    return _wins(game, cfg, cfg.strategy_obj(),
                 seeded_blocks(cfg.seed, cfg.n, start, width))


def _seeded_wins(game: str, cfg: GameConfig, st: Strategy,
                 blocks: Blocks) -> np.ndarray:
    """Seeded trials, spread over a process pool when the strategy is a
    name (a Strategy's closures do not pickle) and spans more than one
    chunk, else ``_wins`` over ``blocks``; the result never depends on the
    split. Chunks are cut at whole batches, and the pool never outnumbers
    the chunks or the cores this process may run on: its CPU affinity set
    where the platform has one, else every core."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    cap = min(cfg.workers, cores)
    per = -(-cfg.trials // (cap * LANES_PER_BLOCK)) * LANES_PER_BLOCK
    starts = range(0, cfg.trials, per)
    workers = min(cap, len(starts))
    if workers > 1 and isinstance(cfg.strategy, str):
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return sum(pool.map(
                    _chunk_wins, [game] * len(starts), [cfg] * len(starts),
                    starts, [min(per, cfg.trials - a) for a in starts]))
        except (OSError, RuntimeError):   # process pools unavailable
            pass
    return _wins(game, cfg, st, blocks)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _report(game: str, cfg: GameConfig, wins: np.ndarray) -> SimulationReport:
    """Report ``wins`` (per target in sweep mode) over the run's trials per
    target, or all n! permutations in an exhaustive run, which also carries
    each rate as a fraction."""
    runs = factorial(cfg.n) if cfg.exhaustive else cfg.trials

    def rate(w: int, t: int) -> Fraction | None:
        return Fraction(w, t) if cfg.exhaustive else None

    per_target = None
    if cfg.target_mode == "sweep":
        per_target = tuple(
            TargetStat(s, runs, w, w / runs, *wilson_interval(w, runs),
                       exact=rate(w, runs))
            for s, w in enumerate(wins.tolist()))
    successes, trials = int(wins.sum()), runs * len(wins)
    low, high = wilson_interval(successes, trials)
    return SimulationReport(
        game, cfg.n, trials, cfg.seed, cfg.strategy_name(), cfg.target_mode,
        cfg.target, cfg.exhaustive, successes, successes / trials, low, high,
        rate(successes, trials), per_target, theory_reference_values(cfg.n))


def _simulate(game: str, cfg: GameConfig,
              perm_stream: PermStream | None) -> SimulationReport:
    if game == "locker" and cfg.strategy_name() != "shift":
        raise ParameterOutOfRange(
            "the locker game is defined for the shift strategy only, "
            f"not {cfg.strategy_name()!r}")
    st = cfg.strategy_obj()   # refuses a bad name before any work
    mode, blocks = _source(cfg, perm_stream)
    wins = (_seeded_wins if mode == "sampled" else _wins)(game, cfg, st, blocks)
    return _report(game, cfg, wins)


def simulate_needle(cfg: GameConfig,
                    perm_stream: PermStream | None = None) -> SimulationReport:
    """Monte Carlo (or exhaustive-exact) success rate of a strategy."""
    return _simulate("needle", cfg, perm_stream)


def simulate_locker(cfg: GameConfig,
                    perm_stream: PermStream | None = None) -> SimulationReport:
    """Locker game with the shift-hint adaptation: the adviser swaps the
    hint's card into position 0; the seeker reads it there and probes
    (target + hint) mod n if the first card was not already the target."""
    return _simulate("locker", cfg, perm_stream)


class MaxShiftReport(NamedTuple):
    """Distribution of the size of the most populous shift class."""

    n: int
    trials: int
    seed: int
    mode: str
    histogram: dict
    mean: float
    quantiles: dict
    typical: int | None   # largest k with 2e*k! <= n, when defined


def max_shift_distribution(n: int, trials: int = 10_000, seed: int = 0,
                           exhaustive: bool = False,
                           perm_stream: PermStream | None = None,
                           ) -> MaxShiftReport:
    cfg = GameConfig(n, trials, seed, exhaustive=exhaustive)
    n = cfg.n
    mode, blocks = _source(cfg, perm_stream)
    hist = sum(starmap(lambda block, _: np.bincount(shift_reduce(
        block, lambda c: c.max(axis=1)), minlength=n + 1), blocks))
    values = np.arange(n + 1)
    mean = float((hist * values).sum() / hist.sum())
    cum = np.cumsum(hist)
    quantiles = {f"q{q}": int(values[np.searchsorted(cum, q / 100 * hist.sum())])
                 for q in (10, 50, 90, 99)}
    histogram = {int(k): int(c) for k, c in zip(values, hist) if c}
    typical = typical_max_shift(n) if n >= 6 else None
    return MaxShiftReport(n, int(hist.sum()), cfg.seed, mode, histogram, mean,
                          quantiles, typical)
