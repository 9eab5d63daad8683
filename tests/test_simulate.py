"""Game simulators: kernels against a scalar oracle, exactness,
determinism, fixtures."""

import concurrent.futures
import itertools
import json
import multiprocessing
import os
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from math import factorial, gcd

import numpy as np
import pytest

from permlab import simulate
from permlab.counting import shift_pmf
from permlab.enumeration import row_blocks
from permlab.errors import (NotABijection, ParameterOutOfRange,
                            TooLargeForEnumeration, UnknownStrategy)
from permlab.perms import (Permutation, argmax_shift, example_deck,
                           shift_histogram, shift_reduce)
from permlab.rng import BatchRng, Rng, batch_seeds, derive_seed, seeded_blocks
from permlab.simulate import (GameConfig, locker_wins, max_shift_distribution,
                              simulate_locker, simulate_needle,
                              wilson_interval)
from permlab.structures import joint_shift_table
from permlab.strategies import (LatinSquare, baseline_strategy,
                                evaluate_success_exact, latin_strategy,
                                naive_strategy, needle_wins, shift_strategy,
                                strategy_by_name)

# ---------------------------------------------------------------------------
# scalar oracle: one trial at a time, on Rng and tuple-level strategies that
# share no code with the block kernels
# ---------------------------------------------------------------------------

LATIN5 = ((0, 2, 4, 1, 3), (1, 3, 0, 2, 4), (2, 4, 1, 3, 0), (3, 0, 2, 4, 1),
          (4, 1, 3, 0, 2))


def scalar_strategy(name, n):
    """(hint, guess) on image tuples, as the strategies were first written."""
    if name == "shift":
        return (lambda img: argmax_shift(shift_histogram(Permutation(img))),
                lambda h, s: (s + h) % n)
    if name == "naive":
        return lambda img: img[0], lambda h, s: 0 if s == h else 1
    if name == "baseline":
        return lambda img: 0, lambda h, s: s
    assert name == "latin" and n == len(LATIN5)

    def hint(img):
        best_row, best = 0, -1
        for r, row in enumerate(LATIN5):
            agree = sum(1 for i in range(n) if row[i] == img[i])
            if agree > best:
                best_row, best = r, agree
        return best_row

    return hint, lambda h, s: LATIN5[h].index(s)


def batched_strategy(name, n):
    if name == "latin":
        return latin_strategy(LatinSquare(LATIN5))
    return {"shift": shift_strategy, "naive": naive_strategy,
            "baseline": baseline_strategy}[name](n)


def _trial_items(cfg, t, rng, perm_stream):
    if perm_stream is None:
        items = list(range(cfg.n))
        rng.shuffle(items)
        return items
    return list(Permutation(tuple(perm_stream(t))).image)


def _needle_chunk_scalar(cfg, start, width, perm_stream, name):
    """Success counts for trials start..start+width-1 (per target in sweep
    mode, single cell otherwise)."""
    hint, guess = scalar_strategy(name, cfg.n)
    n = cfg.n
    sweep = cfg.target_mode == "sweep"
    counts = np.zeros(n if sweep else 1, dtype=np.int64)
    for t in range(start, start + width):
        rng = Rng(derive_seed(cfg.seed, t))
        items = _trial_items(cfg, t, rng, perm_stream)
        h = hint(tuple(items))
        if sweep:
            for s in range(n):
                if items[guess(h, s)] == s:
                    counts[s] += 1
        else:
            s = cfg.target if cfg.target_mode == "fixed" else rng.randbelow(n)
            if items[guess(h, s)] == s:
                counts[0] += 1
    return counts


def _locker_chunk_scalar(cfg, start, width, perm_stream):
    n = cfg.n
    sweep = cfg.target_mode == "sweep"
    counts = np.zeros(n if sweep else 1, dtype=np.int64)
    for t in range(start, start + width):
        rng = Rng(derive_seed(cfg.seed, t))
        items = _trial_items(cfg, t, rng, perm_stream)
        h = argmax_shift(shift_histogram(Permutation(tuple(items))))
        pos_h = items.index(h)
        items[0], items[pos_h] = items[pos_h], items[0]  # no-op when pos_h == 0
        if sweep:
            for s in range(n):
                if h == s or items[(s + h) % n] == s:
                    counts[s] += 1
        else:
            s = cfg.target if cfg.target_mode == "fixed" else rng.randbelow(n)
            if h == s or items[(s + h) % n] == s:
                counts[0] += 1
    return counts


def copied_locker_wins(st, block):
    """Locker successes per target on a swapped copy of the block, as the
    kernel was first written."""
    rows = np.arange(len(block))
    h = st.hints(block)
    pos_h = np.argmax(block == h[:, None], axis=1)
    swapped = block.copy()
    swapped[rows, pos_h] = block[rows, 0]
    swapped[rows, 0] = h
    return np.array([np.count_nonzero((h == s)
                                      | (swapped[rows, st.guesses(h, s)] == s))
                     for s in range(st.n)], dtype=np.int64)


def rowwise_locker_wins(block, targets=None):
    """Locker successes of the shift strategy by the letter of the
    protocol: copy each row, swap the hint card into position 0, then win
    on the hint or on the probe (target + hint) mod n. Per target when
    ``targets`` is None, else one count for the per-row targets."""
    n = block.shape[1]
    counts = np.zeros(n if targets is None else 1, dtype=np.int64)
    for b, row in enumerate(block.tolist()):
        h = argmax_shift(shift_histogram(Permutation(tuple(row))))
        cards = list(row)
        p = cards.index(h)
        cards[0], cards[p] = cards[p], cards[0]
        cells = (enumerate(range(n)) if targets is None
                 else [(0, int(targets[b]))])
        for c, s in cells:
            counts[c] += h == s or cards[(s + h) % n] == s
    return counts


def _report_counts(report):
    if report.per_target is None:
        return [report.successes]
    return [ts.successes for ts in report.per_target]


def _stream(n):
    def perm_stream(t):
        items = list(range(n))
        Rng(derive_seed(77, t)).shuffle(items)
        return items
    return perm_stream


def _cfg(mode, **fields):
    target = 3 if mode == "fixed" else None
    return GameConfig(target_mode=mode, target=target, **fields)


class TestEngineEquivalence:
    """The block kernels must replay the scalar oracle draw for draw."""

    @pytest.mark.parametrize("strategy", ["shift", "naive", "baseline", "latin"])
    @pytest.mark.parametrize("mode", ["uniform", "sweep", "fixed"])
    def test_needle(self, strategy, mode):
        named = strategy if strategy != "latin" else batched_strategy("latin", 5)
        cfg = _cfg(mode, n=5, trials=2500, seed=1234, strategy=named)
        kernel = simulate_needle(cfg)
        assert _report_counts(kernel) == \
            _needle_chunk_scalar(cfg, 0, 2500, None, strategy).tolist()

    @pytest.mark.parametrize("mode", ["uniform", "sweep", "fixed"])
    def test_locker(self, mode):
        cfg = _cfg(mode, n=7, trials=2500, seed=99)
        assert _report_counts(simulate_locker(cfg)) == \
            _locker_chunk_scalar(cfg, 0, 2500, None).tolist()

    def test_fixed_target(self):
        cfg = GameConfig(n=6, trials=300, seed=5, strategy="shift",
                         target_mode="fixed", target=4)
        assert _report_counts(simulate_needle(cfg)) == \
            _needle_chunk_scalar(cfg, 0, 300, None, "shift").tolist()

    @pytest.mark.parametrize("strategy", ["shift", "naive", "baseline", "latin"])
    @pytest.mark.parametrize("mode", ["uniform", "sweep", "fixed"])
    def test_needle_stream(self, strategy, mode):
        cfg = _cfg(mode, n=5, trials=2100, seed=8,
                   strategy=batched_strategy(strategy, 5))
        kernel = simulate_needle(cfg, perm_stream=_stream(5))
        assert _report_counts(kernel) == \
            _needle_chunk_scalar(cfg, 0, 2100, _stream(5), strategy).tolist()

    @pytest.mark.parametrize("mode", ["uniform", "sweep", "fixed"])
    def test_locker_stream(self, mode):
        cfg = _cfg(mode, n=6, trials=2100, seed=8)
        kernel = simulate_locker(cfg, perm_stream=_stream(6))
        assert _report_counts(kernel) == \
            _locker_chunk_scalar(cfg, 0, 2100, _stream(6)).tolist()

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (300, np.uint16)])
    def test_unsigned_blocks_count_as_int64_blocks(self, n, dtype):
        # a kernel that did its arithmetic in the block's own dtype would
        # wrap: at n = 256 past the largest uint8, at n = 300 modulo 2^16
        # rather than modulo n
        block, rng = next(seeded_blocks(5, n, 0, 300))
        assert block.dtype == dtype
        wide = block.astype(np.int64)
        targets = rng.randbelow(n)
        shift = shift_strategy(n)
        for st in (shift, naive_strategy(n), baseline_strategy(n),
                   latin_strategy(LatinSquare.cyclic(n))):
            for t in (None, targets):
                assert np.array_equal(needle_wins(st, block, t),
                                      needle_wins(st, wide, t))
        for t in (None, targets):
            assert np.array_equal(locker_wins(shift, block, t),
                                  locker_wins(shift, wide, t))
        # dist's largest shift class per row
        assert np.array_equal(shift_reduce(block, lambda c: c.max(axis=1)),
                              shift_reduce(wide, lambda c: c.max(axis=1)))

    @pytest.mark.parametrize("run", [simulate_needle, simulate_locker])
    def test_stream_row_not_a_bijection(self, run):
        rows = {0: (0, 1, 2, 3), 1: (0, 1, 1, 3)}
        with pytest.raises(NotABijection):
            run(GameConfig(n=4, trials=2, seed=0), perm_stream=rows.__getitem__)
        with pytest.raises(NotABijection):
            max_shift_distribution(4, trials=2, perm_stream=rows.__getitem__)

    @pytest.mark.parametrize("run", [simulate_needle, simulate_locker])
    def test_stream_of_another_order_refused(self, run):
        with pytest.raises(NotABijection, match="^the permutation stream "
                                                "must yield order-4 rows$"):
            run(GameConfig(n=4, trials=2, seed=0),
                perm_stream=lambda t: (0, 1, 2))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("mode", ["uniform", "sweep"])
    def test_numpy_integer_rows_read_as_tuples(self, dtype, mode):
        rows = _stream(6)
        as_array = lambda t: np.array(rows(t), dtype=dtype)   # noqa: E731
        cfg = _cfg(mode, n=6, trials=300, seed=3)
        for run in (simulate_needle, simulate_locker):
            assert run(cfg, perm_stream=as_array) == \
                run(cfg, perm_stream=rows)
        assert max_shift_distribution(6, trials=300, seed=3,
                                      perm_stream=as_array) == \
            max_shift_distribution(6, trials=300, seed=3, perm_stream=rows)

    @pytest.mark.parametrize("row", [np.arange(4.0), (0, 1.0, 2, 3),
                                     ("0", "1", "2", "3"), "0123"],
                             ids=["numpy-float", "float", "strings", "text"])
    def test_stream_row_of_non_integers_refused(self, row):
        with pytest.raises(NotABijection, match="holds a non-integer$"):
            simulate_needle(GameConfig(n=4, trials=2, seed=0),
                            perm_stream=lambda t: row)
        with pytest.raises(NotABijection, match="holds a non-integer$"):
            max_shift_distribution(4, trials=2, perm_stream=lambda t: row)

    @pytest.mark.parametrize("strategy", ["shift", "naive", "baseline", "latin"])
    def test_exhaustive_needle_against_itertools(self, strategy):
        for n in ((5,) if strategy == "latin" else (2, 4, 6)):
            hint, guess = scalar_strategy(strategy, n)
            wins = [0] * n
            for img in itertools.permutations(range(n)):
                h = hint(img)
                for s in range(n):
                    wins[s] += img[guess(h, s)] == s
            st = batched_strategy(strategy, n)
            report = simulate_needle(GameConfig(
                n=n, trials=1, strategy=st, target_mode="sweep",
                exhaustive=True))
            assert _report_counts(report) == wins
            assert evaluate_success_exact(st).per_target == tuple(
                Fraction(w, factorial(n)) for w in wins)

    def test_exhaustive_locker_against_itertools(self):
        for n in range(1, 7):
            cfg = GameConfig(n=n, trials=1, target_mode="sweep",
                             exhaustive=True)
            wins = np.zeros(n, dtype=np.int64)
            for t, img in enumerate(itertools.permutations(range(n))):
                wins += _locker_chunk_scalar(cfg, t, 1, lambda _: img)
            assert _report_counts(simulate_locker(cfg)) == wins.tolist()


def _usable_cores(monkeypatch, count):
    """Let this process run on ``count`` cores of a larger machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: count + 4)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class TestDeterminism:
    def test_same_config_same_report(self):
        cfg = GameConfig(n=64, trials=2_000, seed=7, strategy="shift")
        assert simulate_needle(cfg) == simulate_needle(cfg)

    def test_worker_count_is_invisible(self):
        base = GameConfig(n=32, trials=3_000, seed=11, strategy="shift")
        reports = [
            simulate_needle(GameConfig(n=32, trials=3_000, seed=11,
                                       strategy="shift", workers=w))
            for w in (1, 2, 5)]
        assert all(r.successes == reports[0].successes for r in reports)
        assert simulate_needle(base).successes == reports[0].successes

    def test_locker_worker_invariance(self):
        reports = [
            simulate_locker(GameConfig(n=16, trials=2_500, seed=3, workers=w))
            for w in (1, 3)]
        assert reports[0] == reports[1]

    def test_pool_clamped_to_cores_and_chunks(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for a process pool: records its size, runs serially."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # simulate imports the pool class where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        _usable_cores(monkeypatch, 4)
        huge = simulate_needle(GameConfig(n=9, trials=5000, seed=4,
                                          workers=100_000_000_000))
        assert sizes == [3]    # 4 cores, but 5000 trials are 3 batches
        assert huge == simulate_needle(GameConfig(n=9, trials=5000, seed=4,
                                                  workers=1))
        simulate_needle(GameConfig(n=9, trials=50_000, seed=4,
                                   workers=100_000_000_000))
        assert sizes == [3, 4]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    @pytest.mark.parametrize("game", ["needle", "locker"])
    def test_pool_under_start_method(self, monkeypatch, method, game):
        # fork is Linux's default before Python 3.14, forkserver after it,
        # and macOS spawns: workers that start fresh import permlab again
        # and unpickle the GameConfig
        run = simulate_needle if game == "needle" else simulate_locker
        serial = run(GameConfig(n=9, trials=5000, seed=4, workers=1))
        real, sizes = concurrent.futures.ProcessPoolExecutor, []

        def pool(max_workers):
            sizes.append(max_workers)
            return real(max_workers,
                        mp_context=multiprocessing.get_context(method))

        def in_process(*args):
            raise AssertionError("the run fell back to the serial loop")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        _usable_cores(monkeypatch, 2)
        # fresh workers import their own simulate._wins, not this one
        monkeypatch.setattr(simulate, "_wins", in_process)
        # 5000 trials on two workers are two chunks of 4096 and 904
        assert run(GameConfig(n=9, trials=5000, seed=4, workers=2)) == serial
        assert sizes == [2]

    class UnstartablePool:
        """Stands in for a process pool the platform cannot start."""

        def __init__(self, max_workers):
            raise OSError("no process pools here")

    class BrokenPool:
        """Stands in for a pool whose workers die during the map."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            raise BrokenProcessPool("a worker died")

    @pytest.mark.parametrize("pool", [UnstartablePool, BrokenPool],
                             ids=["oserror", "broken"])
    @pytest.mark.parametrize("game", ["needle", "locker"])
    def test_pool_failure_falls_back_to_serial(self, monkeypatch, pool, game):
        run = simulate_needle if game == "needle" else simulate_locker
        serial = run(GameConfig(n=9, trials=5000, seed=4, workers=1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        _usable_cores(monkeypatch, 4)
        assert run(GameConfig(n=9, trials=5000, seed=4, workers=4)) == serial


    class RefusingPool:
        """Stands in for a process pool that no run may start."""

        def __init__(self, max_workers):
            raise AssertionError("a process pool was started")

    @pytest.mark.parametrize("game", ["needle", "locker"])
    def test_strategy_object_runs_in_process(self, monkeypatch, game):
        run = simulate_needle if game == "needle" else simulate_locker
        cfg = GameConfig(n=9, trials=5000, seed=4, strategy=shift_strategy(9))
        serial = run(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self.RefusingPool)
        _usable_cores(monkeypatch, 4)
        assert run(GameConfig(n=9, trials=5000, seed=4,
                              strategy=shift_strategy(9), workers=4)) == serial

    def test_one_usable_core_starts_no_pool(self, monkeypatch):
        serial = simulate_needle(GameConfig(n=9, trials=8192, seed=4))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self.RefusingPool)
        _usable_cores(monkeypatch, 1)
        # 8192 trials on four workers would be four chunks of 2048
        assert simulate_needle(GameConfig(n=9, trials=8192, seed=4,
                                          workers=4)) == serial

    def test_serial_run_resolves_a_named_strategy_once(self, monkeypatch,
                                                       tmp_path):
        path = tmp_path / "latin5.json"
        path.write_text(json.dumps(LATIN5))
        calls = []

        def counted(name, n):
            calls.append(name)
            return strategy_by_name(name, n)

        monkeypatch.setattr(simulate, "strategy_by_name", counted)
        report = simulate_needle(GameConfig(n=5, trials=5000, seed=4,
                                            strategy=f"latin:{path}"))
        assert calls == [f"latin:{path}"]
        assert report.successes == simulate_needle(GameConfig(
            n=5, trials=5000, seed=4,
            strategy=latin_strategy(LatinSquare(LATIN5)))).successes


class TestNeedleStatistics:
    def test_baseline_matches_one_over_n(self):
        cfg = GameConfig(n=100, trials=200_000, seed=17, strategy="baseline")
        r = simulate_needle(cfg)
        se = (0.01 * 0.99 / cfg.trials) ** 0.5
        assert abs(r.estimate - 0.01) <= 4 * se

    def test_shift_n3_near_two_thirds(self):
        cfg = GameConfig(n=3, trials=200_000, seed=23, strategy="shift")
        r = simulate_needle(cfg)
        exact = float(evaluate_success_exact(shift_strategy(3)).overall)
        se = (exact * (1 - exact) / cfg.trials) ** 0.5
        assert abs(r.estimate - exact) <= 4 * se

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategy):
            simulate_needle(GameConfig(n=5, trials=10, seed=0, strategy="wat"))

    def test_custom_strategy_object_runs_scalar(self):
        r = simulate_needle(GameConfig(n=5, trials=200, seed=0,
                                       strategy=naive_strategy(5)))
        assert r.trials == 200 and r.strategy == "naive"


class TestExhaustiveMode:
    @pytest.mark.parametrize("name,builder", [
        ("shift", shift_strategy), ("naive", naive_strategy),
        ("baseline", baseline_strategy)])
    def test_needle_reproduces_exact_evaluation(self, name, builder):
        for n in (4, 6):
            cfg = GameConfig(n=n, trials=1, seed=0, strategy=name,
                             target_mode="sweep", exhaustive=True)
            r = simulate_needle(cfg)
            ev = evaluate_success_exact(builder(n))
            assert r.exact == ev.overall
            assert tuple(ts.exact for ts in r.per_target) == ev.per_target

    def test_guard(self):
        cfg = GameConfig(n=9, trials=1, seed=0, strategy="shift",
                         exhaustive=True)
        with pytest.raises(TooLargeForEnumeration):
            simulate_needle(cfg)

    def test_locker_exhaustive_beats_two_over_n(self):
        for n in (5, 6):
            cfg = GameConfig(n=n, trials=1, seed=0, target_mode="sweep",
                             exhaustive=True)
            r = simulate_locker(cfg)
            assert r.exact >= Fraction(2, n)

    # a stream beside exhaustive=True is refused, not dropped: the run would
    # report the full n! sweep as if it had read the stream
    NO_STREAM = "^an exhaustive run takes no permutation stream$"

    @pytest.mark.parametrize("run", [simulate_needle, simulate_locker])
    def test_game_refuses_a_stream(self, run):
        cfg = GameConfig(n=3, trials=5, exhaustive=True)
        with pytest.raises(ParameterOutOfRange, match=self.NO_STREAM):
            run(cfg, perm_stream=lambda t: (0, 1, 2))

    def test_dist_refuses_a_stream(self):
        with pytest.raises(ParameterOutOfRange, match=self.NO_STREAM):
            max_shift_distribution(3, 5, exhaustive=True,
                                   perm_stream=lambda t: (0, 1, 2))


class TestFixedTarget:
    """A fixed target reaches the game kernel as the one int it is, from
    every block source, and an exhaustive run counts it as the sweep does."""

    @pytest.mark.parametrize("game", ["needle", "locker"])
    @pytest.mark.parametrize("source", ["exhaustive", "seeded", "stream"])
    def test_kernel_gets_the_int(self, monkeypatch, game, source):
        seen, kernel = [], simulate._KERNELS[game]

        def spy(st, block, targets):
            seen.append(targets)
            return kernel(st, block, targets)

        monkeypatch.setitem(simulate._KERNELS, game, spy)
        run = simulate_needle if game == "needle" else simulate_locker
        cfg = GameConfig(n=5, trials=300, seed=2, target_mode="fixed",
                         target=3, exhaustive=source == "exhaustive")
        report = run(cfg, perm_stream=_stream(5) if source == "stream" else None)
        assert seen and all(type(t) is int and t == 3 for t in seen)
        if source == "exhaustive":
            swept = run(GameConfig(n=5, trials=300, seed=2, target_mode="sweep",
                                   exhaustive=True)).per_target[3]
            assert (report.trials, report.successes, report.exact) == \
                (factorial(5), swept.successes, swept.exact)


class TestLockerProtocol:
    def test_identity_stream_always_succeeds(self):
        # hint 0 sits in position 0; matching targets stop there, the rest
        # probe their own (correct) position
        r = simulate_locker(GameConfig(n=9, trials=1, seed=0,
                                       target_mode="sweep"),
                            perm_stream=lambda t: tuple(range(9)))
        assert all(ts.successes == 1 for ts in r.per_target)

    def test_deck_sweep_counts(self):
        deck = example_deck().image
        r = simulate_locker(GameConfig(n=52, trials=1, seed=0,
                                       target_mode="sweep"),
                            perm_stream=lambda t: deck)
        # four shift-class hits survive the swap, plus the first-locker hit
        assert r.successes == 5
        assert r.successes >= 4
        winners = [ts.target for ts in r.per_target if ts.successes]
        assert winners == [4, 27, 29, 35, 36]

    def test_swap_is_noop_when_hint_in_place(self):
        # permutation already holding its hint at position 0
        img = (0, 2, 1)  # hint 0 (ties), sigma(0) = 0
        r = simulate_locker(GameConfig(n=3, trials=1, seed=0,
                                       target_mode="sweep"),
                            perm_stream=lambda t: img)
        assert r.per_target[0].successes == 1  # found at first open

    def test_paired_seeds_track_needle(self):
        needle = simulate_needle(GameConfig(n=64, trials=20_000, seed=41,
                                            strategy="shift"))
        locker = simulate_locker(GameConfig(n=64, trials=20_000, seed=41))
        gap = needle.estimate - locker.estimate
        allowance = 3 / 64 + 3 * (needle.std_err + locker.std_err)
        assert gap <= allowance

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_kernel_equals_swapped_copy(self, n):
        st = shift_strategy(n)
        blocks = [BatchRng(batch_seeds(8, 0, 300)).permutations(n)]
        if n <= 7:
            blocks += list(row_blocks(n))      # int8 rows, every permutation
        for block in blocks:
            assert np.array_equal(locker_wins(st, block),
                                  copied_locker_wins(st, block))
            targets = np.arange(len(block)) % n
            assert locker_wins(st, block, targets)[0] == sum(
                copied_locker_wins(st, block[targets == s])[s]
                for s in range(n))

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_kernel_equals_rowwise_swap(self, n):
        block, rng = next(seeded_blocks(19, n, 0, 2048))
        targets = rng.randbelow(n)
        st = shift_strategy(n)
        at_zero = block[:, 0] == st.hints(block)
        # rows whose swap is a no-op, and (past n = 2) rows it changes
        assert at_zero.any()
        assert n == 2 or not at_zero.all()
        assert np.array_equal(locker_wins(st, block),
                              rowwise_locker_wins(block))
        assert np.array_equal(locker_wins(st, block, targets),
                              rowwise_locker_wins(block, targets))

    def test_refuses_other_strategies(self):
        for name in ("naive", "bogus"):
            with pytest.raises(ParameterOutOfRange):
                simulate_locker(GameConfig(n=5, trials=10, strategy=name))


class TestLayoutIndependence:
    """A seeded block is the transposed view of a position-major buffer;
    every kernel counts the same on it as on its row-major copy."""

    @staticmethod
    def blocks(n):
        block, rng = next(seeded_blocks(23, n, 0, 2048))
        rows = np.ascontiguousarray(block)
        assert not block.flags.c_contiguous and rows.flags.c_contiguous
        return block, rows, rng.randbelow(n)

    @pytest.mark.parametrize("n", [2, 64, 257, 1000])
    def test_needle_wins(self, n):
        block, rows, targets = self.blocks(n)
        for st in (shift_strategy(n), naive_strategy(n), baseline_strategy(n),
                   latin_strategy(LatinSquare.cyclic(n))):
            for t in (None, targets):
                assert np.array_equal(needle_wins(st, block, t),
                                      needle_wins(st, rows, t))

    @pytest.mark.parametrize("n", [2, 64, 257, 1000])
    def test_locker_wins(self, n):
        block, rows, targets = self.blocks(n)
        st = shift_strategy(n)
        for t in (None, targets):
            assert np.array_equal(locker_wins(st, block, t),
                                  locker_wins(st, rows, t))

    @pytest.mark.parametrize("n", [2, 64, 257, 1000])
    def test_shift_reduce(self, n):
        block, rows, _ = self.blocks(n)
        for reduce in (lambda c: c.argmax(axis=1), lambda c: c.max(axis=1),
                       lambda c: c[:, [0, n - 1]]):
            assert np.array_equal(shift_reduce(block, reduce),
                                  shift_reduce(rows, reduce))


def exact_sweep(n, strategy):
    """Exact per-target rates of the needle game over every permutation."""
    return [ts.exact for ts in simulate_needle(GameConfig(
        n=n, trials=1, seed=0, strategy=strategy, target_mode="sweep",
        exhaustive=True)).per_target]


class TestWorstCaseTarget:
    def test_requires_sweep(self):
        # only a sweep has per-target rates to take the worst of
        assert simulate_needle(GameConfig(n=4, trials=10, seed=0)).per_target \
            is None

    def test_shift_targets_all_equal_exhaustive(self):
        for n in (3, 5, 6):
            assert len(set(exact_sweep(n, "shift"))) == 1

    def test_naive_n5_exact(self):
        per_target = exact_sweep(5, "naive")
        assert per_target == [Fraction(2, 5)] * 5
        assert min(per_target) == Fraction(2, 5)

    def test_baseline_minimum(self):
        assert min(exact_sweep(6, "baseline")) == Fraction(1, 6)


class TestTargetOnlyInFixedMode:
    @pytest.mark.parametrize("mode", ["uniform", "sweep"])
    def test_target_outside_fixed_mode_refused(self, mode):
        with pytest.raises(ParameterOutOfRange,
                           match=f"^a target applies only to fixed mode, "
                                 f"not {mode}$"):
            GameConfig(n=5, trials=10, target_mode=mode, target=3)


class TestMaxShiftDistribution:
    def test_exhaustive_n4_matches_enumeration(self):
        report = max_shift_distribution(4, exhaustive=True)
        oracle = {}
        for img in itertools.permutations(range(4)):
            m = max((sum(1 for i in range(4) if (i - img[i]) % 4 == l))
                    for l in range(4))
            oracle[m] = oracle.get(m, 0) + 1
        assert report.histogram == oracle
        assert report.trials == factorial(4)

    def test_identity_stream_maximum(self):
        report = max_shift_distribution(8, trials=25, seed=0,
                                        perm_stream=lambda t: tuple(range(8)))
        assert report.histogram == {8: 25}

    def test_sampled_mean_tracks_typical_value(self):
        report = max_shift_distribution(256, trials=4_000, seed=13)
        assert report.typical == 4
        assert report.typical - 1 <= report.mean <= report.typical + 3

    def test_mean_nondecreasing_in_n(self):
        # one inversion within a std-err is tolerated
        means, ses = [], []
        for n in (2**6, 2**8, 2**10, 2**12):
            r = max_shift_distribution(n, trials=4_000, seed=29)
            var = sum(c * (k - r.mean) ** 2 for k, c in r.histogram.items())
            ses.append((var / r.trials) ** 0.5 / r.trials ** 0.5)
            means.append(r.mean)
        inversions = sum(
            1 for a, b, se in zip(means, means[1:], ses)
            if b < a - se)
        assert inversions <= 1


def max_shift_bracket(n):
    """Exact bounds on E[max_s c_s], the size of the most populous shift
    class: the union bound above, de Caen's inequality below. The pairwise
    tails come from ``joint_shift_table(n, 0, g)``, one table per g =
    gcd(n, d) over the classes d = 1..n-1."""
    pmf = shift_pmf(n)
    tail = [sum(pmf[k:], Fraction(0)) for k in range(n + 1)]   # P(c_0 >= k)
    weights = Counter(gcd(n, d) for d in range(1, n))   # g -> phi(n / g)
    tables = {g: joint_shift_table(n, 0, g) for g in weights}

    def both_at_least(g, k):
        return sum(p for (a, b), p in tables[g].items() if a >= k and b >= k)

    upper = sum(min(1, n * tail[k]) for k in range(1, n + 1))
    lower = sum(n * tail[k] ** 2 / (tail[k] + sum(
        w * both_at_least(g, k) for g, w in weights.items()))
        for k in range(1, n + 1) if tail[k])
    return lower, upper


class TestMaxShiftBracket:
    """A gross-error oracle: the pairwise bracket is about 100 standard
    errors wide, so it catches a broken histogram, not a small bias."""

    @pytest.mark.parametrize("n,low,high", [(5, 2.2669, 2.5417),
                                            (7, 2.5275, 2.7264)])
    def test_holds_the_exhaustive_mean(self, n, low, high):
        lower, upper = max_shift_bracket(n)
        assert (float(lower), float(upper)) == pytest.approx((low, high),
                                                             abs=1e-4)
        report = max_shift_distribution(n, exhaustive=True)
        mean = Fraction(sum(k * c for k, c in report.histogram.items()),
                        report.trials)
        assert lower <= mean <= upper

    def test_holds_a_sampled_mean(self):
        lower, upper = max_shift_bracket(30)
        assert (float(lower), float(upper)) == pytest.approx((3.3325, 3.7001),
                                                             abs=1e-4)
        mean = max_shift_distribution(30, trials=20_000, seed=1).mean
        assert mean == 3.56795 and lower <= mean <= upper


class TestMaxShiftDistributionInputs:
    @pytest.mark.parametrize("n,trials", [(0, 10), (-3, 10), (5, 0), (5, -1)])
    def test_empty_runs_refused(self, n, trials):
        with pytest.raises(ParameterOutOfRange):
            max_shift_distribution(n, trials=trials)


class TestIntegerInputs:
    """A run's integer inputs are read by ``perms.ints``: a report never
    names an input that did not run."""

    @pytest.mark.parametrize("config", [
        dict(target_mode="fixed", target=1.5),
        dict(target_mode="fixed", target=True),
        dict(trials=True), dict(workers=2.5), dict(n=5.0), dict(seed=1.5),
    ], ids=repr)
    @pytest.mark.parametrize("run", [simulate_needle, simulate_locker])
    def test_game_refuses_non_integers(self, run, config):
        with pytest.raises(ParameterOutOfRange, match="holds a non-integer$"):
            run(GameConfig(**{"n": 5, "trials": 64, **config}))

    @pytest.mark.parametrize("config", [
        dict(n=5.0), dict(trials=True), dict(seed=1.5)], ids=repr)
    def test_dist_refuses_non_integers(self, config):
        with pytest.raises(ParameterOutOfRange, match="holds a non-integer$"):
            max_shift_distribution(**{"n": 5, "trials": 64, **config})

    def test_numpy_integers_read_as_ints(self):
        report = simulate_needle(GameConfig(
            n=np.int64(5), trials=np.uint16(64), seed=np.int32(3),
            target_mode="fixed", target=np.uint8(1), workers=np.int64(1)))
        dist = max_shift_distribution(np.int64(5), trials=np.uint16(64),
                                      seed=np.int32(3))
        read = (report.n, report.trials, report.seed, report.target,
                dist.n, dist.trials, dist.seed)
        assert read == (5, 64, 3, 1, 5, 64, 3)
        assert all(type(v) is int for v in read)
        assert report == simulate_needle(GameConfig(
            n=5, trials=64, seed=3, target_mode="fixed", target=1))


class TestWilson:
    def test_brackets_estimate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_extremes(self):
        low, high = wilson_interval(0, 10)
        assert low == pytest.approx(0.0, abs=1e-12)
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0, abs=1e-9)


class TestTheoryReferences:
    def test_no_naive_reference_below_two_cards(self):
        # the naive strategy refuses n < 2, where 2/n would exceed 1
        assert simulate.theory_reference_values(1) == {"no_advice": 1.0}
        report = simulate_needle(GameConfig(n=1, trials=5))
        assert report.theory_refs == {"no_advice": 1.0}

    def test_naive_reference_from_two_cards(self):
        assert simulate.theory_reference_values(2) == {
            "no_advice": 0.5, "naive_exact": 1.0}


class TestStrategyOrder:
    """A Strategy object must be of the run's order n; its GameConfig is
    refused when it is built, before any run."""

    @pytest.mark.parametrize("order", [4, 9])
    @pytest.mark.parametrize("mode", ["sampled", "exhaustive", "stream"])
    @pytest.mark.parametrize("game", ["needle", "locker"])
    def test_other_order_refused(self, game, mode, order):
        run = simulate_needle if game == "needle" else simulate_locker
        stream = (lambda t: tuple(range(5))) if mode == "stream" else None
        with pytest.raises(ParameterOutOfRange,
                           match=f"^strategy 'shift' is of order {order}, "
                                 f"not n=5$"):
            run(GameConfig(n=5, trials=300, seed=2,
                           strategy=shift_strategy(order),
                           exhaustive=mode == "exhaustive"), stream)

    def test_replace_and_make_refuse_other_order(self):
        cfg = GameConfig(n=5, trials=300, strategy=shift_strategy(5))
        text = "^strategy 'shift' is of order 5, not n=6$"
        with pytest.raises(ParameterOutOfRange, match=text):
            cfg._replace(n=6)
        with pytest.raises(ParameterOutOfRange, match=text):
            GameConfig._make((6, *cfg[1:]))


class TestConfigValidation:
    """A GameConfig is checked as it is built, so no run, pool chunk or
    report ever holds one that cannot be honoured."""

    def test_bad_mode(self):
        with pytest.raises(ParameterOutOfRange):
            GameConfig(n=4, trials=1, seed=0, target_mode="x")

    def test_fixed_needs_target(self):
        with pytest.raises(ParameterOutOfRange):
            GameConfig(n=4, trials=1, seed=0, target_mode="fixed")

    def test_positive_counts(self):
        with pytest.raises(ParameterOutOfRange):
            GameConfig(n=0, trials=1, seed=0)

    @pytest.mark.parametrize("config,error,text", [
        (dict(n=0), ParameterOutOfRange, "^n must be positive, got 0$"),
        (dict(trials=0), ParameterOutOfRange,
         "^trials must be positive, got 0$"),
        (dict(workers=-2), ParameterOutOfRange,
         "^workers must be positive, got -2$"),
        (dict(strategy=5), UnknownStrategy,
         "^strategy 5 is neither a name nor a Strategy$"),
        (dict(exhaustive="no"), ParameterOutOfRange,
         "^exhaustive must be a bool, not 'no'$"),
        (dict(exhaustive=1), ParameterOutOfRange,
         "^exhaustive must be a bool, not 1$"),
        # a Strategy's repr holds its closures' addresses
        pytest.param(dict(strategy=shift_strategy(4)), ParameterOutOfRange,
                     "^strategy 'shift' is of order 4, not n=5$",
                     id="{'strategy': shift_strategy(4)}"),
    ], ids=repr)
    def test_refused_when_built(self, config, error, text):
        with pytest.raises(error, match=text):
            GameConfig(**{"n": 5, "trials": 1, **config})

    def test_defaults_and_positions(self):
        spelled = GameConfig(n=5, trials=100_000, seed=0, strategy="shift",
                             target_mode="uniform", target=None,
                             exhaustive=False, workers=1)
        assert GameConfig(5) == spelled
        assert GameConfig(5, 64, 3, "naive", "fixed", 2, True, 2) == \
            GameConfig(n=5, trials=64, seed=3, strategy="naive",
                       target_mode="fixed", target=2, exhaustive=True,
                       workers=2)
        assert GameConfig._fields == ("n", "trials", "seed", "strategy",
                                      "target_mode", "target", "exhaustive",
                                      "workers")

    @pytest.mark.parametrize("exhaustive", ["no", 0, None])
    def test_dist_refuses_a_non_bool_exhaustive(self, exhaustive):
        # a truthy "no" used to run the whole 5! sweep and report
        # "exhaustive": "no"
        with pytest.raises(ParameterOutOfRange,
                           match="^exhaustive must be a bool, not "):
            max_shift_distribution(5, 10, exhaustive=exhaustive)
