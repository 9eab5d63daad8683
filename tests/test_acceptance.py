"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (run pytest with -s to watch them
live). Statistical criteria run on fixed seeds, so they are deterministic;
their thresholds keep several standard errors of headroom.
"""

import functools
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np

from permlab.counting import (derangements, rencontres, shift_count_pmf,
                              typical_max_shift)
from permlab.enumeration import displacement_matrix, perm_matrix
from permlab.fields import (aic_check, brute_force_field, deduplicate_magnets,
                            success_upper_bound)
from permlab.perms import (argmax_shift, example_deck, shift_histogram,
                           shift_vector)
from permlab.rng import Rng, derive_seed
from permlab.simulate import (GameConfig, max_shift_distribution,
                              simulate_locker, simulate_needle)
from permlab.strategies import (evaluate_success_exact, naive_strategy,
                                shift_strategy)
from permlab.structures import (IndexSet, count_exact_displacements,
                                count_optional_displacements,
                                count_required_displacements,
                                covariance_estimate, is_feasible,
                                joint_shift_pmf)

DECK_V = (3, 36, 1, 17, 29, 50, 37, 34, 15, 6, 11, 2, 29, 29, 3, 34, 45, 9,
          24, 1, 7, 45, 48, 9, 22, 20, 16, 40, 32, 49, 1, 43, 13, 29, 22, 46,
          38, 46, 32, 17, 6, 49, 18, 28, 28, 25, 46, 0, 18, 7, 19, 14)
DECK_S = (1, 3, 1, 2, 0, 0, 2, 2, 0, 2, 0, 1, 0, 1, 1, 1, 1, 2, 2, 1, 1, 0,
          2, 0, 1, 1, 0, 0, 2, 4, 0, 0, 2, 0, 2, 0, 1, 1, 1, 0, 1, 0, 0, 1,
          0, 2, 3, 0, 1, 2, 1, 0)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


@criterion("01 worked-deck reproduction")
def test_01_deck_reproduction():
    deck = example_deck()
    assert deck.n == 52
    assert shift_vector(deck) == DECK_V
    hist = shift_histogram(deck)
    assert hist.counts == DECK_S
    hint = argmax_shift(hist)
    assert hint == 29
    assert hist.counts[hint] == 4
    wins = sum(1 for s in range(52) if deck.image[(s + hint) % 52] == s)
    assert Fraction(wins, 52) == Fraction(4, 52)


@criterion("02 naive strategy exactness 2/n")
def test_02_naive_two_over_n():
    for n in range(3, 9):
        ev = evaluate_success_exact(naive_strategy(n))
        assert ev.overall == Fraction(2, n)
        assert all(p == Fraction(2, n) for p in ev.per_target)


@criterion("03 shift at n=3 meets the brute-force field bound")
def test_03_shift_n3_tight():
    ev = evaluate_success_exact(shift_strategy(3))
    assert ev.overall == Fraction(2, 3)
    assert len(set(ev.per_target)) == 1
    search = brute_force_field(3, 3)
    assert search.field == 12
    assert success_upper_bound(search.witness) == Fraction(2, 3) == ev.overall


@criterion("04 restricted-field base case 2*3!")
def test_04_aic_base_case():
    result = brute_force_field(3, 3, restriction="aic")
    assert result.field == 12 == 2 * factorial(3)
    assert aic_check(result.witness)


@criterion("05 rencontres suite")
def test_05_rencontres_suite():
    for n in range(0, 31):
        assert sum(rencontres(n, r) for r in range(n + 1)) == factorial(n)
        if n >= 1:
            assert sum(r * rencontres(n, r)
                       for r in range(n + 1)) == factorial(n)
        for r in range(n + 1):
            assert rencontres(n, r) * factorial(r) <= factorial(n)
    for n in range(0, 9):
        counts = [0] * (n + 1)
        for img in itertools.permutations(range(n)):
            counts[sum(1 for i, v in enumerate(img) if i == v)] += 1
        assert counts[0] == derangements(n)
        for r in range(n + 1):
            assert counts[r] == rencontres(n, r)


@criterion("06 shift-class pmf equals enumeration for every class")
def test_06_pmf_exact():
    for n in range(1, 8):
        v = displacement_matrix(n)
        total = factorial(n)
        for j in range(n):
            sizes = (v == j).sum(axis=1)
            freq = np.bincount(sizes, minlength=n + 1)
            for k in range(n + 1):
                assert Fraction(int(freq[k]), total) == shift_count_pmf(n, k)


def _oracle_counts(n):
    """Enumeration oracle over the full group, built from the raw
    permutation matrix (independent of the closed-form code paths). The
    rows where position x holds value v are the bits of one int, so each
    count is a few ANDs and a popcount."""
    p = perm_matrix(n)
    holds = [[int.from_bytes(np.packbits(p[:, x] == v, bitorder="little")
                             .tobytes(), "little") for v in range(n)]
             for x in range(n)]
    every = (1 << len(p)) - 1

    def optional(K, I, J, s):
        rows = every
        for i in I:
            rows &= holds[i][i]
        for j in J:
            rows &= holds[j][(j + s) % n]
        for k in K:
            rows &= holds[k][k] | holds[k][(k + s) % n]
        return rows.bit_count()

    def required(I, J, s):
        return optional((), I, J, s)

    return required, optional


@criterion("07 structure identities (closed forms vs enumeration)")
def test_07_structure_identities():
    for n in range(3, 8):
        required, optional = _oracle_counts(n)
        universe = list(range(n))
        small = [()] + [(a,) for a in universe] + \
            list(itertools.combinations(universe, 2))
        for s in range(1, n):
            for I in small:
                for J in small:
                    Is, Js = IndexSet.of(n, I), IndexSet.of(n, J)
                    assert count_required_displacements(Is, Js, s) == \
                        required(I, J, s)
                    free = [x for x in universe if x not in I and x not in J]
                    ks = [()] + [(a,) for a in free] + \
                        list(itertools.combinations(free, 2))
                    for K in ks:
                        Ks = IndexSet.of(n, K)
                        got = count_optional_displacements(Ks, Is, Js, s)
                        assert got == optional(K, I, J, s)
                        if is_feasible(Ks, Is, Js, s):
                            rest = n - len(set(I) | set(J) | set(K))
                            assert got == (1 << len(K)) * factorial(rest)
    # decomposition identity: exact-pattern counts resolve the joint pmf
    for n in range(3, 7):
        for s in (1, 2, n - 1):
            if s % n == 0:
                continue
            for t in range(0, 4):
                if 2 * t > n:
                    continue
                total = 0
                for I in itertools.combinations(range(n), t):
                    rest = [x for x in range(n) if x not in I]
                    for J in itertools.combinations(rest, t):
                        total += count_exact_displacements(
                            IndexSet.of(n, I), IndexSet.of(n, J), s)
                assert Fraction(total, factorial(n)) == \
                    joint_shift_pmf(n, 0, s, t)


@criterion("08 magnet deduplication properties on 100 seeded covers")
def test_08_dedup_properties():
    n = 4
    for seed in range(100):
        rng = Rng(derive_seed(1000 + seed, 0))
        cover = [[] for _ in range(4)]
        for img in itertools.permutations(range(n)):
            cover[rng.randbelow(4)].append(img)
        sizes = [len(c) for c in cover]
        result = deduplicate_magnets(cover)
        assert [len(c) for c in result.classes] == sizes
        assert len(result.steps) <= n * factorial(n)
        for step in result.steps:
            assert all(a >= b for a, b in zip(step.intensities_after,
                                              step.intensities_before))
        for members, magnets in zip(result.classes, result.final_magnets):
            if not members:
                assert magnets is None
                continue
            assert sorted(magnets) == list(range(n))
            imgs = [p.image for p in members]
            for k in range(n):
                cols = [sum(1 for img in imgs if img[i] == k)
                        for i in range(n)]
                assert cols[magnets[k]] == max(cols)


@criterion("09 large-n proxies: shift beats 2.5/n; max-shift near its scale")
def test_09_large_n_proxies():
    n, trials = 10_000, 100_000
    r = simulate_needle(GameConfig(n=n, trials=trials, seed=90210,
                                   strategy="shift", workers=2))
    assert r.estimate - 3 * r.std_err >= 2.5 / n
    dist = max_shift_distribution(n, trials=10_000, seed=424242)
    k = typical_max_shift(n)
    assert k == 6
    assert k - 1 <= dist.mean <= k + 3


@criterion("10 shift-class indicators are nearly uncorrelated")
def test_10_covariance_smallness():
    stat = covariance_estimate(2000, 2, 0, 1, trials=100_000, seed=31415)
    assert abs(stat.cov) <= 0.05 * stat.e_zi * stat.e_zj + 3 * stat.se_cov
    mc = covariance_estimate(7, 2, 0, 1, trials=100_000, seed=2718)
    exact = covariance_estimate(7, 2, 0, 1, mode="exact")
    assert abs(mc.cov - exact.cov) <= 3 * mc.se_cov


@criterion("11 locker game tracks the needle game on paired seeds")
def test_11_locker_vs_needle():
    n, trials, seed = 256, 100_000, 555
    needle = simulate_needle(GameConfig(n=n, trials=trials, seed=seed,
                                        strategy="shift", workers=2))
    locker = simulate_locker(GameConfig(n=n, trials=trials, seed=seed,
                                        workers=2))
    combined_se = needle.std_err + locker.std_err
    assert locker.estimate >= needle.estimate - 3 / n - 3 * combined_se
    assert locker.estimate >= 2 / n


def _cli_json(args):
    proc = subprocess.run([sys.executable, "-m", "permlab.cli", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    docs = [json.loads(l) for l in proc.stdout.splitlines()
            if l.startswith("{")]
    return [{k: v for k, v in d.items() if k != "timestamp"} for d in docs]


@criterion("12 identical output documents across 1, 2 and 8 workers")
def test_12_worker_determinism():
    commands = [
        ["simulate", "needle", "--n", "64", "--trials", "20000",
         "--seed", "8", "--strategy", "shift"],
        ["simulate", "locker", "--n", "48", "--trials", "20000",
         "--seed", "9"],
        ["simulate", "needle", "--n", "40", "--trials", "10000",
         "--seed", "10", "--strategy", "naive", "--target-mode", "sweep"],
    ]
    for cmd in commands:
        outputs = [_cli_json(cmd + ["--workers", w]) for w in ("1", "2", "8")]
        assert outputs[0] == outputs[1] == outputs[2]
    # structure estimators take no worker flag; identical re-runs must match
    cov = ["structure", "cov", "--n", "100", "--t", "1", "--i", "0",
           "--j", "1", "--mode", "sampled", "--trials", "20000",
           "--seed", "12"]
    assert _cli_json(cov) == _cli_json(cov)
