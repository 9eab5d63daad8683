"""The package surface: lazily loaded names, and numpy only where arrays are.

``permlab`` resolves its exported names and its submodules on first use, so
a command that builds no array never imports numpy, and no module imports
``dataclasses``, whose import pulls in ``inspect``. These tests pin the
names, the submodules, the commands that stay free of numpy and ``ctypes``
(which only the heap policy of numpy commands loads), that ``pmf`` loads
no ``perms``, that every ``from permlab... import`` in the demos and the
README resolves, and that the fast demos run cleanly.
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
    "derangements", "factorial", "rencontres",
    "shift_count_pmf", "shift_pmf", "typical_max_shift",
    "PartitionStrategy", "aic_check", "brute_force_field",
    "deduplicate_magnets", "field_of_partition", "partition_from_hint",
    "success_upper_bound",
    "Permutation", "ShiftHistogram", "apply_transposition", "argmax_shift",
    "example_deck", "identity_permutation", "make_permutation",
    "shift_histogram", "shift_vector",
    "BatchRng",
    "GameConfig", "MaxShiftReport", "SimulationReport",
    "max_shift_distribution", "simulate_locker", "simulate_needle",
    "LatinSquare", "Strategy", "baseline_strategy", "evaluate_success_exact",
    "latin_strategy", "naive_strategy", "shift_strategy", "strategy_by_name",
    "IndexSet", "compatible_pair_stats", "count_exact_displacements",
    "count_optional_displacements", "count_required_displacements",
    "covariance_estimate", "feasible_set_stats", "is_compatible",
    "is_feasible", "joint_shift_pmf", "joint_shift_table",
]
SUBMODULES = ["cli", "counting", "enumeration", "errors", "fields", "perms",
              "reporting", "rng", "simulate", "strategies", "structures"]

# commands that build no array, with the option values they need
LEAN_COMMANDS = [
    ["--version"],
    ["structure", "phi", "--n", "10", "--set-i", "0", "--set-j", "2"],
    ["structure", "joint", "--n", "10", "--t", "1"],
    ["structure", "compatible", "--n", "40", "--t", "4"],
    ["structure", "feasible", "--n", "60", "--t", "1", "--k", "28"],
    ["field", "--brute", "--n", "3", "--m", "3"],
    ["field", "--brute", "--n", "3", "--m", "4"],
    ["field", "--brute", "--n", "3", "--m", "3", "--aic"],
    ["pmf", "--n", "5"],
    ["field", "--partition", str(ROOT / "tests/golden/partition3.json")],
    ["dedup", "--partition", str(ROOT / "tests/golden/partition3.json")],
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
dataclasses_loaded = "dataclasses" in sys.modules
ctypes_loaded = "ctypes" in sys.modules
import numpy
print(json.dumps({"numpy_loaded": numpy_loaded, "lean": lean,
                  "dataclasses_loaded": dataclasses_loaded,
                  "ctypes_loaded": ctypes_loaded,
                  "with_numpy": [run(argv) for argv in commands]}))
"""


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _untimed(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


@pytest.fixture(scope="module")
def lean_run():
    return json.loads(_python(_RUN_TWICE, json.dumps(LEAN_COMMANDS)))


def test_lean_commands_never_import_numpy(lean_run):
    assert lean_run["numpy_loaded"] is False
    for argv, lean, full in zip(LEAN_COMMANDS, lean_run["lean"],
                                lean_run["with_numpy"]):
        assert lean[0] == 0, argv
        assert lean[1].strip(), argv
        assert _untimed(lean[1]) == _untimed(full[1]), argv


def test_lean_commands_never_import_dataclasses(lean_run):
    assert lean_run["dataclasses_loaded"] is False


def test_lean_commands_never_import_ctypes(lean_run):
    # only commands that run numpy scratch set the heap policy through it
    assert lean_run["ctypes_loaded"] is False


def test_pmf_never_imports_perms():
    # counting reads its integers by errors.ints, not through perms
    code = ("import contextlib, io, sys\n"
            "from permlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['pmf', '--n', '5']) == 0\n"
            "print('permlab.perms' in sys.modules)\n")
    assert _python(code).strip() == "False"


@pytest.mark.parametrize("n, m, sets", [(4, 2, True), (3, 3, False)])
def test_field_search_sets_the_heap_policy_where_it_bulk_counts(
        monkeypatch, capsys, n, m, sets):
    # the (4, 2) search frees numpy level arrays; the (3, m) searches run
    # no numpy and keep ctypes unloaded
    from permlab import cli
    calls = []
    monkeypatch.setattr(cli, "_fix_heap_thresholds",
                        lambda: calls.append(True))
    assert cli.main(["field", "--brute", "--n", str(n), "--m", str(m),
                     "--budget", "10000000"]) == 0
    capsys.readouterr()
    assert calls == ([True] if sets else [])


def test_no_module_imports_dataclasses():
    # records are named tuples: importing dataclasses costs every command
    # its inspect, ast, dis and tokenize imports
    found = []
    for path in sorted((ROOT / "src" / "permlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [(path.name, name) for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []


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


def test_library_tour_names_resolve():
    # a tour row may name only what the package still has
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    names = {name for line in tour.splitlines() if line.startswith("|")
             for name in re.findall(r"`([A-Za-z_]\w*)`", line) if "_" in name}
    homes = [permlab, *(importlib.import_module(f"permlab.{module}")
                        for module in SUBMODULES)]
    missing = sorted(name for name in names
                     if not any(hasattr(home, name) for home in homes))
    assert names and missing == []


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


def test_one_random_engine():
    # every sampler draws on BatchRng lanes from rng.lane_blocks; the scalar
    # Rng and derive_seed stay in rng as the reference the tests compare
    # BatchRng against, and no other module names them
    scalar = {"Rng", "derive_seed"}
    found = []
    for path in sorted((ROOT / "src" / "permlab").glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [node.value] if isinstance(node, ast.Constant)
                     else [])
            found += [(path.name, name) for name in names if name in scalar]
    assert found == []
    assert {"Rng", "derive_seed", "mix64"} <= set(vars(permlab.rng))
    assert len(permlab.__all__) == 48


def test_every_import_is_used():
    # no linter ships with the toolchain, so this AST walk stands in for
    # one: a name an import binds and its module never reads is dead weight
    unused = []
    for folder in ("src/permlab", "tests", "tests/golden", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom)
                        and node.module != "__future__"):
                    bound = [alias.asname or alias.name.split(".")[0]
                             for alias in node.names]
                    unused += [(f"{folder}/{path.name}", name)
                               for name in bound if name not in read]
    assert unused == []
