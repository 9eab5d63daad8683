"""Every function in ``src/permlab`` is reached by a command or a demo, or is
kept for a named reason.

The golden corpus and the fast demos (01, 03, 05) run in this process under
``sys.setprofile``, which sees every call of Python code. Every named
function the package's source files define, methods and nested functions
included, is keyed by its module and qualified name. One that never runs
fails unless ``KEPT`` names it with its reason; a ``KEPT`` entry that runs,
or names nothing, fails too, so the table cannot go stale.
"""

import ast
import contextlib
import inspect
import io
import runpy
import sys
from pathlib import Path

import pytest

import permlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(permlab.__file__).resolve().parent
sys.path.insert(0, str(ROOT / "tests" / "golden"))

from record_golden import CASES, render  # noqa: E402

DEMOS = ("01_worked_deck.py", "03_field_landscape.py", "05_pattern_counts.py")

# functions only the benchmark reaches, with the name perfbench/*.py calls
# them by, as code or as a string: their own, their class's or their caller's
BENCH = {
    ("rng", "Rng.__init__"): "Rng",
    ("rng", "Rng.next_u64"): "shuffle",
    ("rng", "Rng.randbelow"): "shuffle",
    ("rng", "Rng.shuffle"): "shuffle",
    ("rng", "derive_seed"): "derive_seed",
    ("rng", "mix64"): "derive_seed",
    ("enumeration", "perm_matrix"): "perm_matrix",
    ("enumeration", "displacement_matrix"): "displacement_matrix",
    ("strategies", "LatinSquare.cyclic"): "cyclic",
}

KEPT = {
    **{key: f"the benchmark calls it, through {name}"
       for key, name in BENCH.items()},
    ("counting", "shift_pmf"):
        "the Fraction oracle the tests check shift_pmf_ratios against",
    ("counting", "rencontres"): "acceptance criterion 05 counts with it",
    ("structures", "is_compatible"):
        "the definition the tests check the pair search against",
    ("structures", "is_feasible"):
        "the definition the tests check the feasible sets against",
    ("perms", "identity_permutation"): "a test fixture",
    ("simulate", "SimulationReport.std_err"):
        "the tests' tolerances read it",
    ("structures", "IndexSet.__len__"):
        "without it len() of the record is its field count, 2",
    ("__init__", "__dir__"): "dir(permlab) calls it; test_package reads it",
    ("simulate", "_chunk_wins"):
        "runs in pool workers, outside this process's profile",
    ("fields", "PartitionStrategy.to_json"):
        "field --brute --out writes it; test_cli reads the file",
}


def defined() -> set[tuple[str, str]]:
    """(module, qualified name) of every named function in the package's
    source files. Class bodies, lambdas and comprehensions are not
    functions here, nor the ``__annotate__`` functions Python 3.14 compiles
    annotations into, which run only when annotations are read."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            nested = [c for c in code.co_consts if inspect.iscode(c)]
            stack += nested
            found |= {(path.stem, c.co_qualname) for c in nested
                      if c.co_flags & inspect.CO_OPTIMIZED
                      and not c.co_name.startswith("<")
                      and c.co_name != "__annotate__"}
    return found


@pytest.fixture(scope="module")
def reached():
    """(module, qualified name) of every package function that the golden
    cases and the fast demos call."""
    # a cached result or an export already resolved would skip a call
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "permlab":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for name in permlab.__all__:
        vars(permlab).pop(name, None)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    caller = sys.getprofile()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(ROOT)
        sys.setprofile(profile)
        try:
            for argv in CASES.values():
                render(argv)
            for demo in DEMOS:
                runpy.run_path(str(ROOT / "demos" / demo),
                               run_name="__main__")
        finally:
            sys.setprofile(caller)
    return {(Path(f).stem, name) for f, name in called
            if Path(f).resolve().parent == PACKAGE}


def test_every_function_is_reached_or_kept(reached):
    unreached = sorted(".".join(key) for key in defined() - reached
                       if key not in KEPT)
    assert unreached == [], f"no command or demo calls {unreached}"


def test_kept_entries_are_defined_and_unreached(reached):
    gone = sorted(".".join(key) for key in set(KEPT) - defined())
    assert gone == [], f"KEPT names functions that are gone: {gone}"
    run = sorted(".".join(key) for key in set(KEPT) & reached)
    assert run == [], f"KEPT names functions a command or demo calls: {run}"


def test_benchmark_still_calls_what_it_keeps():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                                str):
                names.add(node.value)   # a name the harness looks up
    missing = sorted(set(BENCH.values()) - names)
    assert missing == [], f"perfbench no longer names {missing}"
