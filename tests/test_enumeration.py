"""Exhaustive blocks stream in bounded memory; the n! matrix and seeded
sampling blocks are refused before they allocate more than the machine
holds."""

import os
import re
import resource
import tracemalloc
from math import factorial

import numpy as np
import pytest

from permlab import enumeration
from permlab.cli import main
from permlab.errors import GuardRefusal, OutOfMemory, ParameterOutOfRange
from permlab.rng import LANES_PER_BLOCK, seeded_blocks
from permlab.simulate import (GameConfig, max_shift_distribution,
                              simulate_locker, simulate_needle)
from permlab.structures import covariance_estimate

BLOCK_ROWS = factorial(7)


def recursive_matrix(n):
    """The lex matrix as an earlier recursive builder made it: the (n-1)!
    rows of each first value a are a followed by the other values indexed
    by the order n-1 matrix. The oracle for ``row_blocks``."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    sub = recursive_matrix(n - 1)
    block = factorial(n - 1)
    m = np.empty((factorial(n), n), dtype=np.int8)
    values = np.arange(n, dtype=np.int8)
    for a in range(n):
        rest = np.concatenate([values[:a], values[a + 1:]])
        m[a * block:(a + 1) * block, 0] = a
        m[a * block:(a + 1) * block, 1:] = rest[sub]
    return m


@pytest.fixture
def empty_cache(monkeypatch):
    cache = {}
    monkeypatch.setattr(enumeration, "_matrix_cache", cache)
    return cache


@pytest.mark.parametrize("n", range(1, 10))
def test_blocks_equal_the_recursive_builder(n):
    blocks = list(enumeration.row_blocks(n))
    assert all(b.dtype == np.int8 and len(b) <= BLOCK_ROWS for b in blocks)
    assert np.array_equal(np.concatenate(blocks), recursive_matrix(n))


def test_past_the_guard_refused_before_any_row(monkeypatch):
    def build(c):
        raise AssertionError("a row was built")

    monkeypatch.setattr(enumeration, "_lex", build)
    with pytest.raises(GuardRefusal, match="past the guard n <= 10"):
        enumeration.row_blocks(11)
    with pytest.raises(GuardRefusal, match="past the guard n <= 9"):
        enumeration.perm_matrix(10, guard=9)


@pytest.mark.parametrize("call, what", [
    (lambda: enumeration.guard_value(True), "guard"),
    (lambda: enumeration.guard_value(8.5), "guard"),
    (lambda: enumeration.check_guard(3, True, "a sweep"), "guard"),
    (lambda: enumeration.row_blocks(3.0), "n"),
    (lambda: enumeration.row_blocks(3, guard="9"), "guard"),
], ids=["guard-bool", "guard-float", "check-guard-bool", "sweep-n-float",
        "sweep-guard-string"])
def test_integer_arguments_read(call, what):
    # a bool guard used to be compared as 1: "past the guard n <= True"
    with pytest.raises(ParameterOutOfRange,
                       match=f"^{what} holds a non-integer$"):
        call()


def test_sweep_memory_does_not_grow_with_n_factorial():
    # the whole 10! x 10 int8 matrix is 36 MB
    tracemalloc.start()
    try:
        rows = sum(len(b) for b in enumeration.row_blocks(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == factorial(10)
    assert peak < 10 ** 6


def test_refused_one_byte_short(monkeypatch, empty_cache):
    monkeypatch.setattr(enumeration, "memory_bytes",
                        lambda: factorial(7) * 7 - 1)
    with pytest.raises(GuardRefusal, match=(
            f"^perm_matrix of all 7! permutations needs {factorial(7) * 7} "
            f"bytes; this process may use {factorial(7) * 7 - 1}$")):
        enumeration.perm_matrix(7)
    assert empty_cache == {}


def test_built_when_it_fits(monkeypatch, empty_cache):
    monkeypatch.setattr(enumeration, "memory_bytes", lambda: factorial(8) * 8)
    m = enumeration.perm_matrix(8)
    assert np.array_equal(m, recursive_matrix(8))
    assert not m.flags.writeable
    assert list(empty_cache) == [8]


def test_cached_matrix_needs_no_memory(monkeypatch, empty_cache):
    m = enumeration.perm_matrix(6)
    monkeypatch.setattr(enumeration, "memory_bytes", lambda: 0)
    assert enumeration.perm_matrix(6) is m


@pytest.mark.parametrize("argv", [
    ["exact", "--strategy", "naive", "--n", "8"],
    ["exact", "--strategy", "shift", "--n", "9", "--guard", "9"],
    ["simulate", "needle", "--exhaustive", "--n", "8", "--target-mode",
     "sweep"],
    ["simulate", "locker", "--exhaustive", "--n", "8"],
    ["simulate", "needle", "--exhaustive", "--n", "9"],
    ["dist", "--n", "8", "--exhaustive"],
    ["dist", "--n", "9", "--exhaustive"],
])
def test_commands_build_no_matrix(capsys, empty_cache, argv):
    assert main(argv) in (0, 3)    # n = 9 sweeps without --guard refuse
    capsys.readouterr()
    assert empty_cache == {}


def untimed(out):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out)


def test_cli_sweep_needs_no_matrix(monkeypatch, capsys, empty_cache):
    # the sweep streams blocks, so a process too small for the 9! matrix
    # still runs it and prints the same document
    argv = ["exact", "--strategy", "naive", "--n", "9", "--guard", "9"]
    assert main(argv) == 0
    unpatched = capsys.readouterr()
    monkeypatch.setattr(enumeration, "memory_bytes", lambda: 10 ** 6)
    assert main(argv) == 0
    patched = capsys.readouterr()
    assert patched.err == unpatched.err == ""
    assert untimed(patched.out) == untimed(unpatched.out)
    assert empty_cache == {}


class TestSeededSampling:
    """Seeded blocks refuse, at the call, a shuffle that cannot fit."""

    @staticmethod
    def need(lanes, n):
        # the one shuffle buffer, whose view is the rows: uint8 to n = 256,
        # else uint16
        return lanes * n * (1 if n <= 256 else 2)

    def test_refused_one_byte_short(self, monkeypatch):
        for n in (100, 1000):   # uint8 and uint16 blocks
            need = self.need(LANES_PER_BLOCK, n)
            monkeypatch.setattr(enumeration, "memory_bytes", lambda: need - 1)
            with pytest.raises(GuardRefusal, match=(
                    f"^sampling in blocks of 2048 permutations of order {n} "
                    f"needs {need} bytes; this process may use {need - 1}$")):
                seeded_blocks(0, n, 0, 5000)   # before the first block is drawn

    def test_drawn_when_it_fits(self, monkeypatch):
        for n in (100, 1000):
            monkeypatch.setattr(enumeration, "memory_bytes",
                                lambda: self.need(LANES_PER_BLOCK, n))
            blocks = [b for b, _ in seeded_blocks(0, n, 0, 5000)]
            assert [len(b) for b in blocks] == [2048, 2048, 904]

    def test_block_peak_is_one_narrow_array(self):
        # a 2048-lane block at n = 10000 is one uint16 shuffle buffer, and
        # its rows are a view of it; a row-major copy of the rows, or int32
        # arrays, would double the peak
        blocks = seeded_blocks(0, 10_000, 0, LANES_PER_BLOCK)
        tracemalloc.start()
        try:
            block, _ = next(blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (LANES_PER_BLOCK, 10_000)
        assert peak < self.need(LANES_PER_BLOCK, 10_000) + 2 ** 23

    @pytest.mark.parametrize("run", [
        lambda: simulate_needle(GameConfig(n=3000, trials=6144, seed=1)),
        lambda: simulate_locker(GameConfig(n=3000, trials=6144, seed=1)),
        lambda: max_shift_distribution(3000, 6144, seed=1),
        lambda: covariance_estimate(3000, 1, 0, 1, trials=6144, seed=1),
    ], ids=["needle", "locker", "dist", "cov"])
    def test_run_of_three_blocks_holds_one(self, run):
        # the memory check counts one block: a run must drop each block
        # before the next is shuffled, not hold two at once
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.need(LANES_PER_BLOCK, 3000) + 2 ** 23

    ROTATION = tuple(range(1, 1000)) + (0,)

    @pytest.mark.parametrize("run", [
        lambda row: simulate_needle(GameConfig(n=1000, trials=6144, seed=1),
                                    perm_stream=lambda t: row),
        lambda row: max_shift_distribution(1000, 6144, seed=1,
                                           perm_stream=lambda t: row),
    ], ids=["needle", "dist"])
    def test_streamed_run_holds_one_block(self, run):
        # a streamed block is filled row by row: neither a list of the
        # rows read nor the previous block outlives it
        tracemalloc.start()
        try:
            run(self.ROTATION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.need(LANES_PER_BLOCK, 1000) + 2 ** 23

    def test_short_runs_count_their_own_lanes(self, monkeypatch):
        monkeypatch.setattr(enumeration, "memory_bytes",
                            lambda: self.need(3, 100))
        assert len(next(seeded_blocks(0, 100, 0, 3))[0]) == 3
        with pytest.raises(GuardRefusal):
            seeded_blocks(0, 100, 0, 4)

    @pytest.mark.parametrize("argv", [
        ["simulate", "needle", "--n", "1000", "--trials", "2048",
         "--workers", "1"],
        ["simulate", "locker", "--n", "1000", "--trials", "2048",
         "--workers", "1"],
        ["dist", "--n", "1000", "--trials", "2048"],
        ["structure", "cov", "--mode", "sampled", "--n", "1000",
         "--trials", "2048"],
    ])
    def test_cli_refusal(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(enumeration, "memory_bytes", lambda: 10 ** 6)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "refused: sampling in blocks of 2048 permutations of order 1000 "
            f"needs {self.need(2048, 1000)} bytes; "
            "this process may use 1000000\n")


class TestMemoryBytes:
    """The memory a check admits is what the kernel reports available, or
    the physical total where it does not say, under the soft RLIMIT_AS."""

    @staticmethod
    def capped(total):
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        return total if soft == resource.RLIM_INFINITY else min(total, soft)

    @staticmethod
    def meminfo(monkeypatch, path, text=None):
        if text is not None:
            path.write_text(text)
        monkeypatch.setattr(enumeration, "MEMINFO", str(path))

    def test_reads_mem_available(self, monkeypatch, tmp_path):
        self.meminfo(monkeypatch, tmp_path / "meminfo",
                     "MemTotal:       8222320 kB\n"
                     "MemFree:        7339328 kB\n"
                     "MemAvailable:     10240 kB\n")
        assert enumeration.memory_bytes() == self.capped(10240 * 1024)

    def test_block_past_available_refused_at_the_call(self, monkeypatch,
                                                      tmp_path):
        # 2048 uint32 lanes of order 10^5 are 819 MB: refused before any
        # shuffle buffer exists, however much memory the machine has
        self.meminfo(monkeypatch, tmp_path / "meminfo",
                     "MemAvailable:     10240 kB\n")
        with pytest.raises(OutOfMemory, match=(
                "^sampling in blocks of 2048 permutations of order 100000 "
                "needs 819200000 bytes; this process may use ")):
            seeded_blocks(0, 100_000, 0, 2048)

    def test_cli_refuses_past_available(self, monkeypatch, tmp_path, capsys):
        self.meminfo(monkeypatch, tmp_path / "meminfo",
                     "MemAvailable:     10240 kB\n")
        code = main(["simulate", "needle", "--n", "100000", "--trials",
                     "2048", "--workers", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "refused: sampling in blocks of 2048 permutations of order "
            "100000 needs 819200000 bytes; this process may use "
            f"{self.capped(10240 * 1024)}\n")

    @pytest.mark.parametrize("text", [
        "MemTotal:       8222320 kB\nMemFree:        7339328 kB\n",
        "MemAvailable:\n", "MemAvailable: many kB\n", None],
        ids=["no MemAvailable line", "no value", "not a number", "no file"])
    def test_physical_total_otherwise(self, monkeypatch, tmp_path, text):
        self.meminfo(monkeypatch, tmp_path / "meminfo", text)
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert enumeration.memory_bytes() == self.capped(physical)
