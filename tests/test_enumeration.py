"""The n! matrix: refused before it allocates more than the machine holds."""

from math import factorial

import pytest

from permlab import enumeration
from permlab.cli import main
from permlab.errors import GuardRefusal


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
