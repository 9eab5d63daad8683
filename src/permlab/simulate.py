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
(``rng.seeded_blocks``, refused before any allocation when a block's shuffle
buffer and rows would not fit in memory), exhaustive
(``enumeration.row_blocks``, int8 lex blocks of at most 7! rows whatever n
is; counts become exact fractions) or a caller's permutation stream. Seeded
and streamed blocks hold ``perms.block_dtype(n)``, the narrowest unsigned
type that holds n - 1; the kernels compare its values and promote them to
int64 before any arithmetic, so an unsigned block never wraps. Every seeded
trial runs on its own splitmix64 stream keyed by (master seed, trial index),
so totals are bitwise identical however trials are batched or distributed
across workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log2
from typing import Callable, Iterator, Sequence

import numpy as np

from .counting import typical_max_shift
from .enumeration import SWEEP_GUARD, row_blocks
from .errors import NotABijection, ParameterOutOfRange
from .perms import block_dtype, make_permutation, shift_reduce
from .rng import LANES_PER_BLOCK, BatchRng, batch_seeds, seeded_blocks
from .strategies import Strategy, needle_wins, strategy_by_name

_WILSON_Z = 1.959963984540054  # two-sided 95%

PermStream = Callable[[int], Sequence[int]]
Blocks = Iterator[tuple[np.ndarray, BatchRng | None]]


@dataclass(frozen=True)
class GameConfig:
    """Resolved inputs of one simulation run."""

    n: int
    trials: int = 100_000
    seed: int = 0
    strategy: str | Strategy = "shift"
    target_mode: str = "uniform"   # uniform | fixed | sweep
    target: int | None = None
    exhaustive: bool = False
    workers: int = 1

    def validate(self) -> None:
        if self.n < 1 or self.trials < 1 or self.workers < 1:
            raise ParameterOutOfRange("n, trials and workers must be positive")
        if self.target_mode not in ("uniform", "fixed", "sweep"):
            raise ParameterOutOfRange(
                f"unknown target mode {self.target_mode!r}")
        if self.target_mode == "fixed":
            if self.target is None or not 0 <= self.target < self.n:
                raise ParameterOutOfRange(
                    f"fixed mode needs a target in 0..{self.n - 1}")
        elif self.target is not None:
            raise ParameterOutOfRange(
                f"a target applies only to fixed mode, not {self.target_mode}")

    def strategy_obj(self) -> Strategy:
        if isinstance(self.strategy, Strategy):
            return self.strategy
        return strategy_by_name(self.strategy, self.n)

    def strategy_name(self) -> str:
        return self.strategy if isinstance(self.strategy, str) else self.strategy.name


@dataclass(frozen=True)
class TargetStat:
    target: int
    trials: int
    successes: int
    estimate: float
    wilson_95_low: float
    wilson_95_high: float
    exact: Fraction | None = None


@dataclass(frozen=True)
class SimulationReport:
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
    refs = {"no_advice": 1.0 / n, "naive_exact": 2.0 / n}
    if n >= 4:
        refs["shift_growth"] = log2(n) / (n * log2(log2(n)))
    if n >= 6:
        refs["typical_max_shift"] = typical_max_shift(n)
    return refs


# ---------------------------------------------------------------------------
# kernels and sources
# ---------------------------------------------------------------------------

def locker_wins(st: Strategy, block: np.ndarray,
                targets: np.ndarray | None = None) -> np.ndarray:
    """Locker-game successes on the rows of ``block``, counted as
    ``needle_wins`` counts them. The adviser swaps the hint card into
    position 0; the seeker wins at once when the target is the hint, else
    probes ``st.guesses(hint, target)`` in the swapped row. Cell g of a
    swapped row is the hint at 0, the row's first card where the hint sat,
    and the row's own card elsewhere."""
    rows = np.arange(len(block))
    h = st.hints(block)
    pos_h = np.argmax(block == h[:, None], axis=1)

    def swapped(g: np.ndarray) -> np.ndarray:
        return np.where(g == 0, h,
                        np.where(g == pos_h, block[:, 0], block[rows, g]))

    cells = range(st.n) if targets is None else [targets]
    return np.array([np.count_nonzero((h == s)
                                      | (swapped(st.guesses(h, s)) == s))
                     for s in cells], dtype=np.int64)


_KERNELS = {"needle": needle_wins, "locker": locker_wins}


def _stream_blocks(perm_stream: PermStream, seed: int, n: int,
                   trials: int) -> Blocks:
    """Rows ``perm_stream(0 .. trials-1)``, each read by
    ``make_permutation`` as a permutation of order n and held in
    ``block_dtype(n)``, with the ``BatchRng`` of those trials' fresh
    streams."""
    for a in range(0, trials, LANES_PER_BLOCK):
        b = min(LANES_PER_BLOCK, trials - a)
        rows = [make_permutation(perm_stream(t)).image for t in range(a, a + b)]
        if any(len(r) != n for r in rows):
            raise NotABijection(f"the permutation stream must yield order-{n} rows")
        yield (np.array(rows, dtype=block_dtype(n)),
               BatchRng(batch_seeds(seed, a, b)))


def _source(n: int, trials: int, seed: int, exhaustive: bool,
            perm_stream: PermStream | None) -> tuple[str, Blocks]:
    """A run's mode and its blocks: all n! rows in lex blocks (with no lane
    streams), a caller's permutation stream, or seeded trials 0..trials-1.
    The exhaustive and seeded sources refuse here, before any block."""
    if exhaustive:
        return "exhaustive", ((b, None) for b in row_blocks(n, SWEEP_GUARD))
    if perm_stream is not None:
        return "stream", _stream_blocks(perm_stream, seed, n, trials)
    return "sampled", seeded_blocks(seed, n, 0, trials)


def _targets(cfg: GameConfig, rng: BatchRng) -> np.ndarray | None:
    """Per-lane targets, drawn next from each trial's stream when uniform;
    None (every target) in sweep mode."""
    if cfg.target_mode == "sweep":
        return None
    if cfg.target_mode == "fixed":
        return np.full(rng.lanes, cfg.target, dtype=np.int64)
    return rng.randbelow(cfg.n)


def _wins(game: str, cfg: GameConfig, st: Strategy, blocks: Blocks) -> np.ndarray:
    """Successes over ``blocks``: per target in sweep mode, else one total."""
    wins = np.zeros(cfg.n if cfg.target_mode == "sweep" else 1, dtype=np.int64)
    for block, rng in blocks:
        wins += _KERNELS[game](st, block, _targets(cfg, rng))
    return wins


def _chunk_wins(game: str, cfg: GameConfig, start: int, width: int) -> np.ndarray:
    """Seeded trials start..start+width-1; top level so process pools can
    pickle it, with the strategy crossing as its name."""
    return _wins(game, cfg, cfg.strategy_obj(),
                 seeded_blocks(cfg.seed, cfg.n, start, width))


def _seeded_wins(game: str, cfg: GameConfig) -> np.ndarray:
    """Dispatch seeded trials over workers; the result never depends on the
    split. Chunks are cut at whole batches, and the pool never outnumbers
    the cores or the chunks."""
    cap = min(cfg.workers, os.cpu_count() or 1)
    per = -(-cfg.trials // (cap * LANES_PER_BLOCK)) * LANES_PER_BLOCK
    starts = range(0, cfg.trials, per)
    jobs = ([game] * len(starts), [cfg] * len(starts), starts,
            [min(per, cfg.trials - a) for a in starts])
    workers = min(cap, len(starts))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return np.sum(list(pool.map(_chunk_wins, *jobs)), axis=0)
        except (OSError, RuntimeError):   # process pools unavailable
            pass
    return np.sum(list(map(_chunk_wins, *jobs)), axis=0)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _report(game: str, cfg: GameConfig, wins: np.ndarray, runs: int,
            exact: bool) -> SimulationReport:
    """Report ``wins`` (per target in sweep mode) over ``runs`` permutations
    per target; an exact run also carries each rate as a fraction."""
    def rate(w: int, t: int) -> Fraction | None:
        return Fraction(w, t) if exact else None

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
    cfg.validate()
    if game == "locker" and cfg.strategy_name() != "shift":
        raise ParameterOutOfRange(
            "the locker game is defined for the shift strategy only, "
            f"not {cfg.strategy_name()!r}")
    st = cfg.strategy_obj()   # surfaces UnknownStrategy before any work
    mode, blocks = _source(cfg.n, cfg.trials, cfg.seed, cfg.exhaustive,
                           perm_stream)
    if mode == "exhaustive":
        wins = sum(_KERNELS[game](st, block) for block, _ in blocks)
        if cfg.target_mode == "fixed":
            wins = wins[cfg.target:cfg.target + 1]
        return _report(game, cfg, wins, factorial(cfg.n), exact=True)
    if mode == "sampled" and isinstance(cfg.strategy, str):
        wins = _seeded_wins(game, cfg)   # a Strategy's closures do not pickle
    else:
        wins = _wins(game, cfg, st, blocks)
    return _report(game, cfg, wins, cfg.trials, exact=False)


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


@dataclass(frozen=True)
class MaxShiftReport:
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
    if n < 1 or trials < 1:
        raise ParameterOutOfRange("n and trials must be positive")
    mode, blocks = _source(n, trials, seed, exhaustive, perm_stream)
    hist = np.zeros(n + 1, dtype=np.int64)
    for block, _ in blocks:
        hist += np.bincount(shift_reduce(block, lambda c: c.max(axis=1)),
                            minlength=n + 1)
    values = np.arange(n + 1)
    mean = float((hist * values).sum() / hist.sum())
    cum = np.cumsum(hist)
    quantiles = {f"q{q}": int(values[np.searchsorted(cum, q / 100 * hist.sum())])
                 for q in (10, 50, 90, 99)}
    histogram = {int(k): int(c) for k, c in zip(values, hist) if c}
    typical = typical_max_shift(n) if n >= 6 else None
    return MaxShiftReport(n, int(hist.sum()), seed, mode, histogram, mean,
                          quantiles, typical)
