"""The n! matrix and seeded sampling blocks: refused before they allocate
more than the machine holds."""

from math import factorial

import pytest

from permlab import enumeration
from permlab.cli import main
from permlab.errors import GuardRefusal
from permlab.rng import LANES_PER_BLOCK, seeded_blocks


def bytes_up_to(n, cached=()):
    return sum(factorial(k) * k for k in range(1, n + 1) if k not in cached)


@pytest.fixture
def empty_cache(monkeypatch):
    cache = {}
    monkeypatch.setattr(enumeration, "_matrix_cache", cache)
    return cache


def test_refused_one_byte_short(monkeypatch, empty_cache):
    monkeypatch.setattr(enumeration, "memory_bytes",
                        lambda: bytes_up_to(7) - 1)
    with pytest.raises(GuardRefusal, match="perm_matrix needs"):
        enumeration.perm_matrix(7)
    assert empty_cache == {}


def test_built_when_it_fits(monkeypatch, empty_cache):
    monkeypatch.setattr(enumeration, "memory_bytes", lambda: bytes_up_to(7))
    assert enumeration.perm_matrix(7).shape == (factorial(7), 7)
    assert sorted(empty_cache) == list(range(1, 8))


def test_cached_orders_are_not_counted(monkeypatch, empty_cache):
    enumeration.perm_matrix(6)
    monkeypatch.setattr(enumeration, "memory_bytes",
                        lambda: factorial(7) * 7)
    assert enumeration.perm_matrix(7).shape == (factorial(7), 7)
    monkeypatch.setattr(enumeration, "memory_bytes",
                        lambda: factorial(8) * 8 - 1)
    with pytest.raises(GuardRefusal):
        enumeration.perm_matrix(8)


def test_cli_refusal(monkeypatch, capsys, empty_cache):
    monkeypatch.setattr(enumeration, "memory_bytes", lambda: 10 ** 6)
    code = main(["exact", "--strategy", "naive", "--n", "9", "--guard", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("refused: perm_matrix needs ")
    assert captured.err.count("\n") == 1


class TestSeededSampling:
    """Seeded blocks refuse, at the call, a shuffle that cannot fit."""

    @staticmethod
    def need(lanes, n):
        return 2 * lanes * n * 4     # the int32 shuffle buffer and the rows

    def test_refused_one_byte_short(self, monkeypatch):
        monkeypatch.setattr(enumeration, "memory_bytes",
                            lambda: self.need(LANES_PER_BLOCK, 100) - 1)
        with pytest.raises(GuardRefusal, match="sampling needs"):
            seeded_blocks(0, 100, 0, 5000)   # before the first block is drawn

    def test_drawn_when_it_fits(self, monkeypatch):
        monkeypatch.setattr(enumeration, "memory_bytes",
                            lambda: self.need(LANES_PER_BLOCK, 100))
        blocks = [b for b, _ in seeded_blocks(0, 100, 0, 5000)]
        assert [len(b) for b in blocks] == [2048, 2048, 904]

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
        assert captured.err.startswith("refused: sampling needs ")
        assert captured.err.count("\n") == 1
