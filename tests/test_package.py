"""The package surface: lazily loaded names, and numpy only where arrays are.

``permlab`` resolves its exported names and its submodules on first use, so
a command that builds no array never imports numpy. These tests pin the
names, the submodules, the commands that stay numpy-free, that every
``from permlab... import`` in the demos and the README resolves, and that
the fast demos run cleanly.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permlab

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "derangements", "factorial", "rencontres", "rencontres_upper_bound_holds",
    "shift_count_pmf", "shift_pmf", "typical_max_shift",
    "MagnetTable", "PartitionStrategy", "aic_check", "brute_force_field",
    "deduplicate_magnets", "field_of_partition", "magnet_and_intensity",
    "magnet_table", "magneticity", "partition_from_hint",
    "success_upper_bound",
    "Permutation", "ShiftHistogram", "apply_transposition", "argmax_shift",
    "example_deck", "fixed_points", "identity_permutation", "lex_rank",
    "lex_unrank", "make_permutation", "random_permutation", "rotate_values",
    "shift_histogram", "shift_vector",
    "BatchRng", "Rng", "derive_seed",
    "GameConfig", "MaxShiftReport", "SimulationReport",
    "max_shift_distribution", "simulate_locker", "simulate_needle",
    "worst_case_target",
    "LatinSquare", "Strategy", "baseline_strategy", "evaluate_success_exact",
    "latin_strategy", "naive_strategy", "shift_strategy", "strategy_by_name",
    "IndexSet", "compatible_pair_stats", "count_exact_displacements",
    "count_optional_displacements", "count_required_displacements",
    "covariance_estimate", "feasible_set_stats", "is_compatible",
    "is_feasible", "joint_shift_pmf", "joint_shift_table", "shift_set",
]
SUBMODULES = ["cli", "counting", "enumeration", "errors", "fields", "perms",
              "reporting", "rng", "simulate", "strategies", "structures"]

# commands that build no array, with the option values they need
LEAN_COMMANDS = [
    ["--version"],
    ["structure", "phi", "--n", "10", "--set-i", "0", "--set-j", "2"],
    ["structure", "joint", "--n", "10", "--t", "1"],
    ["field", "--brute", "--n", "3", "--m", "3"],
    ["field", "--brute", "--n", "3", "--m", "4"],
    ["pmf", "--n", "5"],
]

_RUN_TWICE = """
import contextlib, io, json, sys
from permlab.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:   # --version exits through argparse
            code = exc.code
    return code, out.getvalue()

commands = json.loads(sys.argv[1])
lean = [run(argv) for argv in commands]
numpy_loaded = "numpy" in sys.modules
import numpy
print(json.dumps({"numpy_loaded": numpy_loaded, "lean": lean,
                  "with_numpy": [run(argv) for argv in commands]}))
"""


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _untimed(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def test_lean_commands_never_import_numpy():
    got = json.loads(_python(_RUN_TWICE, json.dumps(LEAN_COMMANDS)))
    assert got["numpy_loaded"] is False
    for argv, lean, full in zip(LEAN_COMMANDS, got["lean"], got["with_numpy"]):
        assert lean[0] == 0, argv
        assert lean[1].strip(), argv
        assert _untimed(lean[1]) == _untimed(full[1]), argv


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves(name):
    value = getattr(permlab, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    namespace = {}
    exec(f"from permlab import {name}", namespace)
    assert namespace[name] is value


def test_star_import_and_dir():
    namespace = {}
    exec("from permlab import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(permlab))
    assert permlab.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        permlab.nonesuch   # noqa: B018
    with pytest.raises(ImportError):
        exec("from permlab import nonesuch", {})


def test_submodules_after_bare_import():
    code = ("import json, types, permlab\n"
            f"names = {SUBMODULES!r}\n"
            "mods = [getattr(permlab, m) for m in names]\n"
            "print(json.dumps([isinstance(m, types.ModuleType)"
            " and m.__name__ == 'permlab.' + n for m, n in zip(mods, names)]))\n")
    assert json.loads(_python(code)) == [True] * len(SUBMODULES)


def _doc_imports():
    """Every ``from permlab... import name`` in the demos and in the README's
    Python blocks, as (where, module, name)."""
    sources = [(path.name, path.read_text()) for path in
               sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += [(f"README.md block {i}", block) for i, block in enumerate(
        re.findall(r"```python\n(.*?)```", readme, re.S))]
    found = []
    for where, text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "permlab"
                    or node.module.startswith("permlab.")):
                found += [(where, node.module, alias.name)
                          for alias in node.names]
    return found


def test_demo_and_readme_imports_resolve():
    found = _doc_imports()
    assert {where for where, _, _ in found} >= {
        "01_worked_deck.py", "05_pattern_counts.py", "README.md block 0"}
    for where, module, name in found:
        assert hasattr(importlib.import_module(module), name), \
            (where, module, name)


@pytest.mark.parametrize("demo", ["01_worked_deck.py", "03_field_landscape.py",
                                  "05_pattern_counts.py"])
def test_fast_demos_run_cleanly(demo):
    # 02 and 04 take 10-30 s each and are left out
    proc = _run_clean(str(ROOT / "demos" / demo))
    assert proc.stdout.strip()


def test_bulk_counted_field_search_runs_cleanly():
    # the (4, 2) search counts most subtrees in uint64 arrays, and numpy
    # would print any overflow warning to stderr
    proc = _run_clean("-m", "permlab.cli", "field", "--brute", "--n", "4",
                      "--m", "2", "--budget", "10000000")
    doc = json.loads(proc.stdout.splitlines()[1])
    assert (doc["field"], doc["nodes"]) == (40, 6084377)


def _run_clean(*args):
    """Run python on args with the checkout's sources first on the path;
    require exit 0 and an empty stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc


def test_simulate_starts_no_process_pool():
    code = ("import sys, permlab.simulate\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    assert _python(code).strip() == "False"


def test_every_error_class_is_raised():
    # a class that no code raises is one no caller can tell apart
    src = ROOT / "src" / "permlab"
    defined = {node.name for node in ast.parse(
        (src / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert {"PermlabError", "GuardRefusal"} <= defined
    assert defined <= raised, sorted(defined - raised)
