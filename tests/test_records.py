"""The record contract: every public record and value type is a named tuple.

A record renders through ``reporting.dumps`` as a JSON object of its fields,
nested records included; assigning an attribute raises ``AttributeError``;
a ``GameConfig``, which crosses to pool workers by pickle, survives the
round trip, its checks re-run on values they already normalised; and
``_make`` and ``_replace`` build a validated type through its checks.
"""

import json
import pickle

import numpy as np
import pytest

from permlab.errors import NotABijection, NotLatin, ParameterOutOfRange
from permlab.fields import (PartitionStrategy, brute_force_field,
                            deduplicate_magnets)
from permlab.perms import Permutation, ShiftHistogram
from permlab.reporting import dumps
from permlab.simulate import (GameConfig, max_shift_distribution,
                              simulate_needle)
from permlab.strategies import (LatinSquare, evaluate_success_exact,
                                shift_strategy)
from permlab.structures import (IndexSet, compatible_pair_stats,
                                covariance_estimate)

# one instance of each of the package's record and value types, by name
RECORDS = {
    "Permutation": lambda: Permutation((1, 2, 0)),
    "ShiftHistogram": lambda: ShiftHistogram((0, 0, 3)),
    "Strategy": lambda: shift_strategy(3),
    "LatinSquare": lambda: LatinSquare.cyclic(3),
    "ExactEvaluation": lambda: evaluate_success_exact(shift_strategy(3)),
    "GameConfig": lambda: GameConfig(4, target_mode="fixed", target=1),
    "TargetStat": lambda: _sweep().per_target[0],
    "SimulationReport": lambda: _sweep(),
    "MaxShiftReport": lambda: max_shift_distribution(4, exhaustive=True),
    "PartitionStrategy": lambda: PartitionStrategy(2, 2, (0, 1)),
    "FieldSearchResult": lambda: brute_force_field(3, 2),
    "DedupStep": lambda: _dedup().steps[0],
    "DedupResult": lambda: _dedup(),
    "IndexSet": lambda: IndexSet.of(6, [4, 0]),
    "ProbabilityReport": lambda: compatible_pair_stats(8, 1, 1),
    "IndicatorStat": lambda: covariance_estimate(5, 1, 1, 2, mode="exact"),
}


def _sweep():
    return simulate_needle(GameConfig(4, target_mode="sweep",
                                      exhaustive=True))


def _dedup():
    return deduplicate_magnets([[(0, 1, 2), (0, 2, 1)], []])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_named_tuple(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"Strategy"}))
def test_record_dumps_as_an_object_of_its_fields(name):
    # a Strategy holds functions and is never written to a document
    record = RECORDS[name]()
    doc = json.loads(dumps(record))
    assert sorted(doc) == sorted(record._fields)
    assert json.loads(dumps([record])) == [doc]


def test_nested_records_dump_as_objects():
    dedup = json.loads(dumps(_dedup()))
    assert dedup["classes"][0][0] == {"image": [0, 1, 2]}
    assert dedup["classes"][1] == []
    assert set(dedup["steps"][0]) >= {"class_index", "k1", "k2", "i1", "i2"}
    search = json.loads(dumps(brute_force_field(3, 2)))
    witness = search["witness"]
    assert witness["n"] == 3 and len(witness["assignment"]) == 6
    report = json.loads(dumps(_sweep()))
    assert [t["target"] for t in report["per_target"]] == [0, 1, 2, 3]
    assert report["exact"]["ratio"] == "7/12"
    assert json.loads(dumps({"k": IndexSet(5, (3, 1))})) == {
        "k": {"n": 5, "elements": [1, 3]}}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_game_config_survives_pickle():
    for cfg in (GameConfig(np.int64(6), trials=np.uint16(9), seed=3,
                           target_mode="fixed", target=np.int8(5),
                           workers=2),
                GameConfig(5, exhaustive=True, strategy="naive")):
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and type(back) is GameConfig
        assert type(back.n) is int and type(back.trials) is int



# per validated type: a value, a _replace its checks accept, and a _replace
# they refuse with the error
VALIDATED = {
    "Permutation": (lambda: Permutation((0, 1)), {"image": (1, 0)},
                    {"image": (5, 5)}, NotABijection),
    "ShiftHistogram": (lambda: ShiftHistogram((0, 0, 3)),
                       {"counts": (np.int64(3), 0, 0)}, {"counts": (4, 0, 0)},
                       ParameterOutOfRange),
    "Strategy": (lambda: shift_strategy(3), {"n": np.int64(4)}, {"n": 3.0},
                 ParameterOutOfRange),
    "LatinSquare": (lambda: LatinSquare.cyclic(3),
                    {"rows": ((0, 1, 2), (2, 0, 1), (1, 2, 0))},
                    {"rows": ((0, 1, 2),) * 3}, NotLatin),
    "PartitionStrategy": (lambda: PartitionStrategy(2, 2, (0, 1)),
                          {"assignment": [1, 0]}, {"m": 1},
                          ParameterOutOfRange),
    "IndexSet": (lambda: IndexSet(5, (3, 1, 2)), {"n": 6}, {"n": 2},
                 ParameterOutOfRange),
    "GameConfig": (lambda: GameConfig(n=5), {"trials": np.int64(9)},
                   {"trials": 0, "workers": -3}, ParameterOutOfRange),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_replace_and_make_run_the_checks(name):
    make, good, bad, error = VALIDATED[name]
    value = make()
    cls = type(value)
    assert repr(cls._make(value)) == repr(value)
    # the value the constructor builds, numpy integers read as ints
    want = cls(**(value._asdict() | good))
    assert repr(value._replace(**good)) == repr(want)
    assert repr(cls._make((value._asdict() | good).values())) == repr(want)
    with pytest.raises(error):
        value._replace(**bad)
    with pytest.raises(error):
        cls._make((value._asdict() | bad).values())
