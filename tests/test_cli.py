"""The permlab command line: grammar, documents, exit codes, reproducibility."""

import argparse
import concurrent.futures
import contextlib
import ctypes
import decimal
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

import permlab
import permlab.cli
from permlab.cli import build_parser, main
from permlab.errors import PermlabError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.splitlines()
             if l.startswith("{")]
    return code, lines, out


def strip_timestamp(lines):
    return [{k: v for k, v in doc.items() if k != "timestamp"}
            for doc in lines]


class TestExample52:
    def test_reproduces_worked_example(self, capsys):
        code, lines, _ = run_cli(capsys, "example52")
        assert code == 0
        body = lines[1]
        assert body["hint"] == 29
        assert body["hint_class_size"] == 4
        assert body["needle_success_probability"]["ratio"] == "4/52"
        assert body["swap_positions"] == [0, 30]
        assert body["swapped_cards"] == [49, 29]
        assert body["first_locker_after_swap"] == 29
        assert body["locker_sweep_successes"] == 5


class TestExact:
    def test_naive_n5(self, capsys):
        code, lines, _ = run_cli(capsys, "exact", "--strategy", "naive",
                                 "--n", "5")
        assert code == 0
        body = lines[1]
        assert body["overall"]["ratio"] == "2/5"
        assert body["minimum"]["ratio"] == "2/5"

    def test_guard_refusal_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--strategy", "shift",
                             "--n", "12")
        assert code == 3

    def test_unknown_strategy_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--strategy", "nope", "--n", "4")
        assert code == 2


class TestPmf:
    def test_table(self, capsys):
        code, lines, out = run_cli(capsys, "pmf", "--n", "4", "--csv")
        assert code == 0
        rows = lines[1]["pmf"]
        assert rows[1]["probability"]["ratio"] == "1/3"   # k=1 in S_4
        assert rows[3]["probability"]["ratio"] == "0/1"   # k=3 impossible
        assert "k,ratio,decimal" in out

    def test_csv_renders_each_ratio_once(self, monkeypatch, capsys):
        # rows come from counting's Decimal renderer, once each, even with
        # --csv; the int renderer is not on this path
        from permlab import counting, reporting
        render, calls = counting._ratio_digits, []

        def counted(*args):
            calls.append(args)
            return render(*args)

        def refused(q):
            raise AssertionError("ratio_text called on the pmf path")
        monkeypatch.setattr(counting, "_ratio_digits", counted)
        monkeypatch.setattr(reporting, "ratio_text", refused)
        monkeypatch.setattr(permlab.cli, "ratio_text", refused, raising=False)
        code, lines, _ = run_cli(capsys, "pmf", "--n", "40", "--csv")
        assert code == 0
        assert len(calls) == len(lines[1]["pmf"]) == 41

    def test_no_fraction_on_the_pmf_path(self, monkeypatch, capsys):
        # the rows are reduced without a gcd, so no Fraction is built
        from permlab import counting

        def refused(*args):
            raise AssertionError("Fraction built on the pmf path")
        monkeypatch.setattr(counting, "Fraction", refused)
        code, lines, out = run_cli(capsys, "pmf", "--n", "40", "--csv")
        assert code == 0
        assert len(lines[1]["pmf"]) == 41
        assert "k,ratio,decimal" in out

    def test_order_zero(self, capsys):
        code, lines, _ = run_cli(capsys, "pmf", "--n", "0")
        assert code == 0
        assert lines[1]["pmf"][0]["probability"]["ratio"] == "1/1"

    def test_memory_bound_covers_the_document(self, capsys):
        # the bytes the refusal compares with memory cover the traced peak
        # of the row, its Decimal terms, its JSON and CSV renderings and the
        # written output
        self._check_memory_bound(capsys, 300, 300_000)

    def test_memory_bound_covers_the_document_at_1000(self, capsys):
        self._check_memory_bound(capsys, 1000, 7_000_000)

    @staticmethod
    def _check_memory_bound(capsys, n, chars):
        from permlab.counting import _row_bytes
        main(["pmf", "--n", "2"])   # imports are not the work
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["pmf", "--n", str(n), "--csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out) > chars
        assert peak <= _row_bytes(n)

    @pytest.mark.parametrize("n", [500, 1000])
    def test_matches_the_benchmark_digest(self, capsys, monkeypatch, n):
        # perfbench checks these bytes on one Python; this checks them on
        # every Python and numpy that runs the tests
        spec = importlib.util.spec_from_file_location(
            "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert main(["pmf", "--n", str(n)]) == 0
        raw = capsys.readouterr().out.encode()
        assert workloads.stdout_digest(raw) == \
            workloads.load_digests()[f"pmf --n {n}"]

    @pytest.mark.parametrize("argv, digest", [
        (("--n", "2000", "--csv"),
         "e985bee360298fb6371026fefa40cc952c41962f471e50a2bedbfdf717913a84"),
        (("--n", "3000"),
         "40592b87bc4ca5a550a282e926b0bfde229b07501ae385882ffef9a7d781c6c6"),
    ], ids=["n2000-csv", "n3000"])
    def test_matches_the_digest_past_the_benchmark(self, capsys, argv,
                                                   digest):
        # sha256 of the document with its timestamp blanked, as perfbench
        # digests are; recorded at commit 65b2e1f, whose rows a big gcd
        # reduced
        assert main(["pmf", *argv]) == 0
        raw = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""',
                     capsys.readouterr().out.encode(), count=1)
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_caller_decimal_context_kept(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            ctx.traps[decimal.Inexact] = False
            ctx.clear_flags()
            before = (ctx.prec, dict(ctx.traps), dict(ctx.flags))
            assert main(["pmf", "--n", "300"]) == 0
            assert decimal.getcontext() is ctx
            assert (ctx.prec, dict(ctx.traps), dict(ctx.flags)) == before
        capsys.readouterr()

    def test_no_big_int_becomes_text(self, capsys):
        # 640 is the lowest limit Python allows; 2000! has 5736 digits
        def document():
            assert main(["pmf", "--n", "2000", "--csv"]) == 0
            out = capsys.readouterr().out
            return re.sub(r'"timestamp": "[^"]*"', "", out, count=1)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            low = document()
        finally:
            sys.set_int_max_str_digits(limit)
        assert low == document()

    def test_n_2000_admitted_in_256_mb(self):
        from permlab.counting import _row_bytes
        assert _row_bytes(2000) < 2 ** 28


class TestField:
    def test_brute_aic(self, capsys):
        code, lines, _ = run_cli(capsys, "field", "--brute", "--n", "3",
                                 "--m", "3", "--aic")
        assert code == 0
        assert lines[1]["field"] == 12
        assert lines[1]["witness"]["n"] == 3
        assert len(lines[1]["witness"]["assignment"]) == 6

    def test_budget_refusal(self, capsys):
        code, _, _ = run_cli(capsys, "field", "--brute", "--n", "3",
                             "--m", "3", "--budget", "5")
        assert code == 3

    def test_partition_file(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 3, "assignment": [0, 0, 1, 2, 1, 2]}))
        code, lines, _ = run_cli(capsys, "field", "--partition", str(path))
        assert code == 0
        assert "field" in lines[1]

    def test_partition_tabulated_once(self, capsys, tmp_path, monkeypatch):
        import permlab.fields as fields
        calls = []
        real = fields.class_members
        monkeypatch.setattr(fields, "class_members",
                            lambda *a: calls.append(a) or real(*a))
        path = tmp_path / "part.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 3, "assignment": [0, 0, 1, 2, 1, 2]}))
        code, lines, _ = run_cli(capsys, "field", "--partition", str(path))
        assert code == 0 and len(calls) == 1
        assert (lines[1]["field"], lines[1]["success_upper_bound"]["ratio"]) \
            == (12, "2/3")

    def test_three_million_labels_score_as_six(self, capsys, tmp_path):
        # only the classes that hold a permutation are tabulated
        bodies = []
        for m in (6, 3_000_000):
            path = tmp_path / f"part{m}.json"
            path.write_text(json.dumps(
                {"n": 3, "m": m, "assignment": [0, 1, 2, 0, 1, 2]}))
            start = time.perf_counter()
            code, lines, _ = run_cli(capsys, "field", "--partition", str(path))
            elapsed = time.perf_counter() - start
            assert code == 0
            assert lines[1].pop("m") == m
            bodies.append(lines[1])
        assert bodies[0] == bodies[1]
        assert elapsed < 2

    def test_a_billion_labels_search_as_six(self, capsys):
        # under a 1 GB address-space limit, so lists sized by m would fail
        # with MemoryError rather than fill the machine
        limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS,"
                 " (1 << 30, 1 << 30)); from permlab.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", limit, "field", "--brute", "--n", "3",
             "--m", "1000000000"], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        got = json.loads(proc.stdout.splitlines()[1])
        _, lines, _ = run_cli(capsys, "field", "--brute", "--n", "3",
                              "--m", "6")
        assert got["witness"].pop("m") == 10 ** 9
        assert lines[1]["witness"].pop("m") == 6
        assert got == lines[1]

    def test_witness_out_file(self, capsys, tmp_path):
        out = tmp_path / "witness.json"
        code, lines, _ = run_cli(capsys, "field", "--brute", "--n", "3",
                                 "--m", "2", "--out", str(out))
        assert code == 0
        text = out.read_text()
        data = json.loads(text)
        assert data["m"] == 2 and len(data["assignment"]) == 6
        # the file is the document's witness object, on one line
        assert data == lines[1]["witness"]
        assert text.count("\n") == 1 and text.endswith("\n")


class TestStructure:
    def test_phistar(self, capsys):
        code, lines, _ = run_cli(capsys, "structure", "phistar", "--n", "6",
                                 "--s", "2", "--set-i", "0", "--set-j", "1")
        assert code == 0
        assert lines[1]["count"] == 24

    def test_pset(self, capsys):
        code, lines, _ = run_cli(capsys, "structure", "pset", "--n", "10",
                                 "--s", "1", "--set-i", "0", "--set-j", "2",
                                 "--set-k", "5,7")
        assert code == 0
        assert lines[1]["count"] == 2880

    def test_joint(self, capsys):
        code, lines, _ = run_cli(capsys, "structure", "joint", "--n", "6",
                                 "--i", "0", "--j", "1", "--t", "1")
        assert code == 0
        assert "probability" in lines[1]

    def test_cov_sampled(self, capsys):
        code, lines, _ = run_cli(capsys, "structure", "cov", "--n", "20",
                                 "--t", "1", "--i", "0", "--j", "1",
                                 "--mode", "sampled", "--trials", "2000",
                                 "--seed", "4")
        assert code == 0
        assert lines[1]["trials"] == 2000

    def test_compatible_sampled(self, capsys):
        code, lines, _ = run_cli(capsys, "structure", "compatible",
                                 "--n", "40", "--t", "2", "--s", "3",
                                 "--mode", "sampled", "--trials", "2000",
                                 "--seed", "8")
        assert code == 0
        assert 0.0 <= lines[1]["probability"] <= 1.0

    def test_guard_refusal(self, capsys):
        # no order guard on the joint table: n = 12 answers, and only a
        # table past memory is refused
        code, lines, _ = run_cli(capsys, "structure", "joint", "--n", "12",
                                 "--i", "0", "--j", "1", "--t", "1")
        assert code == 0
        assert lines[0]["config"]["guard"] is None
        code, _, _ = run_cli(capsys, "structure", "joint", "--n", "1000000",
                             "--i", "0", "--j", "1", "--t", "1")
        assert code == 3


class TestDedup:
    def test_partition_file(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
        code, lines, _ = run_cli(capsys, "dedup", "--partition", str(path))
        assert code == 0
        body = lines[1]
        assert len(body["classes"]) == 2
        assert sum(len(c) for c in body["classes"]) == 6
        assert body["step_count"] == len(body["steps"])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
        out = tmp_path / "classes.json"
        code, lines, _ = run_cli(capsys, "dedup", "--partition", str(path),
                                 "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == {"n": 3,
                                               "classes": lines[1]["classes"]}


class TestSimulate:
    def test_parser_names_every_config_field(self):
        # _cmd_simulate builds GameConfig from the dests of its fields
        from permlab.simulate import GameConfig
        args = build_parser().parse_args(["simulate", "needle", "--n", "5"])
        assert set(GameConfig._fields) <= set(vars(args))

    def test_needle_document(self, capsys):
        code, lines, _ = run_cli(capsys, "simulate", "needle", "--n", "16",
                                 "--trials", "4000", "--seed", "21",
                                 "--workers", "1")
        assert code == 0
        header, body = lines
        assert header["config"]["seed"] == 21
        assert body["trials"] == 4000
        assert 0 <= body["estimate"] <= 1

    def test_worker_count_does_not_change_output(self, capsys):
        docs = []
        for w in ("1", "2", "8"):
            _, lines, _ = run_cli(capsys, "simulate", "locker", "--n", "12",
                                  "--trials", "3000", "--seed", "2",
                                  "--workers", w)
            docs.append(strip_timestamp(lines))
        assert docs[0] == docs[1] == docs[2]

    def test_rerun_reproduces_document(self, capsys):
        args = ("simulate", "needle", "--n", "10", "--trials", "2000",
                "--seed", "33", "--strategy", "naive", "--workers", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_sweep_csv_and_worst_target(self, capsys):
        code, lines, out = run_cli(capsys, "simulate", "needle", "--n", "5",
                                   "--trials", "500", "--seed", "3",
                                   "--target-mode", "sweep", "--csv",
                                   "--workers", "1")
        assert code == 0
        worst = lines[2]
        per = lines[1]["per_target"]
        assert worst["minimum"] == min(ts["estimate"] for ts in per)
        assert worst["worst_target"] == min(
            per, key=lambda ts: (ts["estimate"], ts["target"]))["target"]
        assert "target,trials,successes" in out
        csv_rows = [l for l in out.splitlines()
                    if "," in l and not l.startswith("{")]
        assert len(csv_rows) == 6  # header plus one row per target

    def test_worst_target_ties_go_to_the_lowest(self, capsys):
        # every target of the exhaustive shift needle sweep wins equally often
        code, lines, _ = run_cli(capsys, "simulate", "needle", "--n", "5",
                                 "--exhaustive", "--target-mode", "sweep",
                                 "--workers", "1")
        assert code == 0
        per = lines[1]["per_target"]
        assert {ts["exact"]["ratio"] for ts in per} == {"29/60"}
        assert lines[2]["worst_target"] == 0
        assert lines[2]["minimum_exact"]["ratio"] == "29/60"

    def test_latin_strategy_from_file(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text("[[0,1,2],[2,0,1],[1,2,0]]")
        code, lines, _ = run_cli(capsys, "exact", "--strategy",
                                 f"latin:{path}", "--n", "3")
        assert code == 0
        assert lines[1]["strategy"] == "latin"

    def test_latin_file_validated(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text("[[0,1,2],[0,1,2],[1,2,0]]")
        code, _, _ = run_cli(capsys, "exact", "--strategy",
                             f"latin:{path}", "--n", "3")
        assert code == 2

    def test_latin_order_mismatch(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text("[[0,1],[1,0]]")
        code, _, _ = run_cli(capsys, "exact", "--strategy",
                             f"latin:{path}", "--n", "3")
        assert code == 2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMLAB_SEED", "777")
        _, lines, _ = run_cli(capsys, "simulate", "needle", "--n", "6",
                              "--trials", "100", "--workers", "1")
        assert lines[0]["config"]["seed"] == 777


class TestDist:
    def test_exhaustive(self, capsys):
        code, lines, _ = run_cli(capsys, "dist", "--n", "4", "--exhaustive")
        assert code == 0
        assert lines[1]["histogram"] == {"2": 20, "4": 4}

    def test_sampled(self, capsys):
        code, lines, _ = run_cli(capsys, "dist", "--n", "64",
                                 "--trials", "500", "--seed", "6")
        assert code == 0
        assert lines[1]["trials"] == 500


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _has_guard_flag(command):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return "--guard" in commands.choices[command]._option_string_actions


def _function_names():
    """Every function the package defines whose name has an underscore."""
    import permlab
    names = set()
    for module in permlab._SUBMODULES:
        mod = importlib.import_module(f"permlab.{module}")
        names |= {name for name, obj in vars(mod).items()
                  if inspect.isfunction(obj) and "_" in name.strip("_")}
    return names


# command lines past a guard; PART stands for a small partition file
_GUARD_REFUSALS = {
    "exact": ("exact", "--strategy", "shift", "--n", "12"),
    "exact-lowered-guard": ("exact", "--strategy", "naive", "--n", "5",
                            "--guard", "4"),
    "simulate-exhaustive": ("simulate", "needle", "--n", "12", "--exhaustive",
                            "--workers", "1"),
    "simulate-locker-exhaustive": ("simulate", "locker", "--n", "9",
                                   "--exhaustive"),
    "dist-exhaustive": ("dist", "--n", "12", "--exhaustive"),
    "field-brute": ("field", "--brute", "--n", "9", "--m", "2"),
    "field-brute-n7": ("field", "--brute", "--n", "7", "--m", "2"),
    "field-brute-n8": ("field", "--brute", "--n", "8", "--m", "2"),
    "field-brute-aic-n7": ("field", "--brute", "--n", "7", "--m", "2",
                           "--aic"),
    "field-brute-aic-n8": ("field", "--brute", "--n", "8", "--m", "2",
                           "--aic"),
    "field-partition": ("field", "--partition", "PART", "--guard", "2"),
    "dedup": ("dedup", "--partition", "PART", "--guard", "2"),
    "structure-phi": ("structure", "phi", "--n", "1000000", "--set-i", "0",
                      "--set-j", "2"),
    "structure-joint": ("structure", "joint", "--n", "1000000", "--i", "0",
                        "--j", "1"),
    "structure-cov": ("structure", "cov", "--n", "1000000", "--i", "0",
                      "--j", "1"),
    "structure-pset-infeasible": ("structure", "pset", "--n", "1000000",
                                  "--s", "2", "--set-i", "0", "--set-j", "5",
                                  "--set-k", "1,3"),
    "structure-compatible": ("structure", "compatible", "--n", "1000000",
                             "--t", "250000"),
    "structure-feasible": ("structure", "feasible", "--n", "1000000",
                           "--t", "1", "--k", "499998"),
    "pmf": ("pmf", "--n", "1000000"),
}
# the refusals past memory, which no --guard lifts
_MEMORY_REFUSALS = {"structure-phi", "structure-joint", "structure-cov",
                    "structure-pset-infeasible", "structure-compatible",
                    "structure-feasible", "pmf"}
# the field searches whose n! levels of recursion pass the interpreter's
# limit, which neither --guard nor --budget lifts
_RECURSION_REFUSALS = {"field-brute-n7", "field-brute-n8",
                       "field-brute-aic-n7", "field-brute-aic-n8"}


def _with_partition(tmp_path, argv):
    """``argv`` with PART replaced by a partition file of order 3."""
    part = tmp_path / "part.json"
    part.write_text(json.dumps(
        {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
    return [str(part) if a == "PART" else a for a in argv]


class TestUsageErrors:
    """Inputs a run cannot honour end in exit 2, one stderr line, and strict
    JSON on stdout."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "locker", "--n", "5", "--trials", "10",
         "--strategy", "bogus", "--workers", "1"),
        ("simulate", "locker", "--n", "5", "--trials", "10",
         "--strategy", "naive", "--workers", "1"),
        ("exact", "--strategy", "naive", "--n", "1"),
        ("exact", "--strategy", "shift", "--n", "0"),
        ("exact", "--strategy", "naive", "--n", "128", "--guard", "128"),
        ("dist", "--n", "5", "--trials", "0"),
        ("dist", "--n", "0"),
        ("structure", "compatible", "--n", "5", "--t", "1", "--s", "1",
         "--mode", "sampled", "--trials", "0"),
        ("structure", "feasible", "--n", "12", "--t", "1", "--k", "1",
         "--s", "1", "--mode", "sampled", "--trials", "0"),
        ("structure", "phistar", "--n", "-2"),
        ("structure", "phi", "--n", "0"),
        ("structure", "feasible", "--n", "2", "--t", "-1"),
        ("PERMLAB_SEED=abc", "dist", "--n", "5"),
        ("PERMLAB_SEED=1" + "0" * 5000, "dist", "--n", "5"),
        ("structure", "phi", "--n", "4", "--set-i", "a"),
        ("structure", "pset", "--n", "4", "--set-j", "1,,2"),
        ("structure", "pset", "--n", "4", "--set-k", "1.5"),
        ("pmf", "--n", "-2"),
        ("structure", "cov", "--mode", "sampled", "--n", "5", "--t", "9"),
        ("structure", "compatible", "--n", "5", "--t", "1", "--guard", "-3"),
        ("exact", "--n", "3", "--guard", "-1"),
        ("field", "--brute", "--n", "2", "--m", "2", "--budget", "-5"),
        ("simulate", "needle", "--n", "5", "--trials", "10", "--target", "3"),
        ("simulate", "needle", "--n", "5", "--trials", "10", "--target", "3",
         "--target-mode", "sweep"),
        ("simulate", "needle", "--n", "0", "--trials", "10"),
        ("simulate", "locker", "--n", "5", "--trials", "10", "--workers", "0"),
        ("simulate", "needle", "--n", "5", "--trials", "10",
         "--target-mode", "fixed"),
        ("dist", "--n", "5", "--trials", "-4", "--exhaustive"),
        ("field",),
    ], ids=["locker-bogus", "locker-naive", "exact-naive-n1", "exact-n0",
            "exact-n128-past-int8",
            "dist-trials0", "dist-n0", "compatible-trials0",
            "feasible-trials0", "phistar-n-negative", "phi-n0",
            "feasible-t-negative", "env-seed-not-integer",
            "env-seed-5000-digits", "set-i-not-integer", "set-j-empty-entry",
            "set-k-float", "pmf-n-negative", "cov-sampled-t-past-n",
            "compatible-guard-negative", "exact-guard-negative",
            "field-budget-negative", "target-in-uniform-mode",
            "target-in-sweep-mode", "simulate-n0", "locker-workers0",
            "fixed-without-target", "dist-exhaustive-trials-negative",
            "field-neither-partition-nor-brute"])
    def test_exit_2(self, capsys, monkeypatch, argv):
        if "=" in argv[0]:   # a leading NAME=value sets the environment
            name, value = argv[0].split("=", 1)
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        assert self.usage_error_stdout(capsys, argv) == ""

    @staticmethod
    def usage_error_stdout(capsys, argv):
        """Run argv, check exit 2 with one ``error:`` line; return stdout."""
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.out

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_cov_t_past_n_names_t(self, capsys, mode):
        code = main(["structure", "cov", "--mode", mode, "--n", "5",
                     "--t", "9"])
        assert code == 2
        assert capsys.readouterr().err == "error: t=9 not in 0..5\n"

    @pytest.mark.parametrize("argv, err", [
        (("structure", "compatible", "--n", "5", "--t", "1", "--guard", "-3"),
         "guard must be non-negative, got -3"),
        (("structure", "joint", "--n", "5", "--guard", "-1"),
         "guard must be non-negative, got -1"),
        (("exact", "--n", "3", "--guard", "-1"),
         "guard must be non-negative, got -1"),
        (("field", "--brute", "--n", "2", "--m", "2", "--budget", "-5"),
         "budget must be non-negative, got -5"),
    ], ids=["compatible", "joint", "exact", "field-budget"])
    def test_negative_guard_is_a_usage_error(self, capsys, argv, err):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""

    def test_sampled_cov_refused_before_the_marginal(self, capsys,
                                                     monkeypatch):
        from permlab import counting, enumeration

        def marginal(n, k):
            raise AssertionError("the marginal was computed")

        monkeypatch.setattr(counting, "shift_count_pmf", marginal)
        monkeypatch.setattr(enumeration, "memory_bytes", lambda: 10 ** 6)
        code = main(["structure", "cov", "--mode", "sampled", "--n",
                     "10000000", "--trials", "100000", "--i", "0", "--j", "1"])
        captured = capsys.readouterr()
        assert code == 3, captured.err
        assert captured.err.startswith("refused: sampling in blocks of ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("field", "--brute", "--n", "3", "--m", "0"),
        ("field", "--brute", "--n", "3", "--m", "-1"),
        ("field", "--brute", "--n", "0", "--m", "2"),
        ("field", "--brute", "--n", "3", "--m", "1", "--aic"),
    ], ids=["m0", "m-negative", "n0", "aic-one-class"])
    def test_field_refusal_prints_nothing(self, capsys, argv):
        assert self.usage_error_stdout(capsys, argv) == ""

    @pytest.mark.parametrize("text", [
        "{not json",
        "[0, 0, 0, 0, 0, 0]",
        '{"n": 3, "assignment": [0, 0, 0, 0, 0, 0]}',
        '{"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1' + "0" * 5000 + "]}",
        '{"n": 0, "m": 1, "assignment": [0]}',
        '{"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, true]}',
        b"\xff",
        b"[" * 5000,
    ], ids=["not-json", "array", "no-m", "5000-digit-entry", "n-zero",
            "assignment-bool", "not-utf8", "nested-5000"])
    @pytest.mark.parametrize("command", ["field", "dedup"])
    def test_malformed_partition_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "part.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = (command, "--partition", str(path))
        assert self.usage_error_stdout(capsys, argv) == ""

    @pytest.mark.parametrize("command", ["field", "dedup"])
    def test_huge_partition_order_rejected_at_once(self, capsys, tmp_path,
                                                   command):
        # the length is compared with n! without building n!
        path = tmp_path / "part.json"
        path.write_text('{"n": 1000000, "m": 1, "assignment": []}')
        start = time.perf_counter()
        code = main([command, "--partition", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: assignment length 0 != 1000000!\n"
        assert captured.out == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv", [
        ("field", "--brute", "--n", "3", "--m", "2"),
        ("dedup", "--partition", "PART"),
    ], ids=["field-brute", "dedup"])
    def test_unwritable_out_prints_nothing(self, capsys, tmp_path, argv):
        part = tmp_path / "part.json"
        part.write_text(json.dumps(
            {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
        argv = tuple(str(part) if a == "PART" else a for a in argv)
        out = tmp_path / "missing-dir" / "x.json"
        assert self.usage_error_stdout(capsys, argv + ("--out", str(out))) \
            == ""
        assert not out.parent.exists()

    def test_out_without_brute_writes_nothing(self, capsys, tmp_path):
        # only the search has a witness to write, so even a writable
        # --out is refused
        part = tmp_path / "part.json"
        part.write_text(json.dumps(
            {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
        out = tmp_path / "witness.json"
        argv = ("field", "--partition", str(part), "--out", str(out))
        assert self.usage_error_stdout(capsys, argv) == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["field", "dedup"])
    def test_partition_is_a_directory(self, capsys, tmp_path, command):
        argv = (command, "--partition", str(tmp_path))
        assert self.usage_error_stdout(capsys, argv) == ""

    @pytest.mark.parametrize("text", [
        "{bad",
        '[[0, "x"], [1, 0]]',
        "[[0, true], [true, 0]]",
        "[[0, 1.0], [1, 0]]",
        "[[0, 1], 7]",
        '{"rows": [[0, 1], [1, 0]]}',
        "[[0, 1" + "0" * 5000 + "], [1, 0]]",
        b"\xff",
        b"[" * 5000,
    ], ids=["not-json", "string-entry", "bool-entry", "float-entry",
            "row-not-list", "object", "5000-digit-entry", "not-utf8",
            "nested-5000"])
    @pytest.mark.parametrize("command", [
        ("simulate", "needle", "--n", "2", "--trials", "10", "--workers", "1"),
        ("exact", "--n", "2"),
    ], ids=["simulate", "exact"])
    def test_malformed_latin_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "square.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = command + ("--strategy", f"latin:{path}")
        assert self.usage_error_stdout(capsys, argv) == ""

    def test_empty_latin_file(self, capsys, tmp_path):
        # an empty square has the order --n 0 asks for, so only the
        # square's own check can refuse it
        path = tmp_path / "square.json"
        path.write_text("[]")
        argv = ("exact", "--n", "0", "--strategy", f"latin:{path}")
        assert self.usage_error_stdout(capsys, argv) == ""

    @pytest.mark.parametrize("name", list(_GUARD_REFUSALS),
                             ids=list(_GUARD_REFUSALS))
    def test_guard_refusal_prints_nothing(self, capsys, tmp_path, name):
        # one text for every guard; it offers --guard exactly where the
        # command has that flag and the refusal is not one past memory or
        # the recursion limit, and names no function of the package
        argv = _GUARD_REFUSALS[name]
        code = main(_with_partition(tmp_path, argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("refused: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        memory = name in _MEMORY_REFUSALS
        assert bool(re.search(r" needs \d+ bytes; this process may use \d+$",
                              captured.err)) == memory
        lifted = (_has_guard_flag(argv[0]) and not memory
                  and name not in _RECURSION_REFUSALS)
        assert ("--guard" in captured.err) == lifted
        assert ("larger" in captured.err) == lifted
        assert "--budget" not in captured.err
        assert not [name for name in _function_names()
                    if name in captured.err]

    @pytest.mark.parametrize("argv", [
        tuple("1000000" if prev == "--n" else a   # raise --n, if it has one
              for prev, a in zip(("",) + argv, argv))
        for argv in _GUARD_REFUSALS.values()], ids=list(_GUARD_REFUSALS))
    def test_large_n_refused_before_the_work(self, capsys, tmp_path,
                                             monkeypatch, argv):
        # field --partition and dedup take n from their file; every other
        # command refuses n = 10^6 at once, with no pool and no n-long array
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = _with_partition(tmp_path, argv)
        for module in permlab._SUBMODULES:   # imports are not the work
            importlib.import_module(f"permlab.{module}")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 3, captured.err
        assert captured.out == ""
        assert elapsed < 1.0
        assert peak < 1_000_000   # not even one byte per position

    @pytest.mark.parametrize("argv, what", [
        (("structure", "phi", "--n", "1000000", "--set-i", "0",
          "--set-j", "2"), "the exact displacement count"),
        (("structure", "joint", "--n", "1000000", "--i", "0", "--j", "1"),
         "the joint shift table"),
        (("structure", "pset", "--n", "1000000", "--s", "2", "--set-i", "0",
          "--set-j", "5", "--set-k", "1,3"), "the optional displacement count"),
        (("structure", "compatible", "--n", "1000000", "--t", "250000"),
         "the compatible pair count"),
        (("structure", "feasible", "--n", "1000000", "--t", "1",
          "--k", "499998"), "the feasible set count"),
    ], ids=["phi", "joint", "pset", "compatible", "feasible"])
    def test_count_refusal_names_the_guard(self, capsys, argv, what):
        # these counts enumerate nothing: the one guard is memory, and the
        # refusal names the count, not --guard and not a sweep
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"refused: {what} at n=1000000 needs ")
        assert "--guard" not in err and "sweep" not in err
        assert "perm_matrix" not in err and "permutations" not in err

    @pytest.mark.parametrize("argv, ratio", [
        (("structure", "compatible", "--n", "40", "--t", "4", "--mode",
          "exact"), "22475/131461"),
        (("structure", "feasible", "--n", "60", "--t", "1", "--k", "28",
          "--mode", "exact"), "1/1002242216651368"),
    ], ids=["compatible", "feasible"])
    def test_exact_estimate_counts_at_once(self, capsys, argv, ratio):
        # ~5.4e9 pairs and ~3e16 sets, counted on the cycles, not listed
        start = time.perf_counter()
        code, lines, _ = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert lines[1]["exact"]["ratio"] == ratio
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv, what", [
        (("structure", "compatible", "--n", "5000000000", "--t", "1",
          "--mode", "sampled", "--trials", "3"), "the compatible pair sample"),
        (("structure", "feasible", "--n", "5000000000", "--t", "1", "--k",
          "1", "--mode", "sampled", "--trials", "3"),
         "the feasible set sample"),
        (("structure", "phistar", "--n", "5000000000", "--s", "1",
          "--set-i", "0"), "the required displacement count"),
    ], ids=["compatible-sampled", "feasible-sampled", "phistar"])
    def test_refused_past_memory_at_once(self, capsys, argv, what):
        # no n-entry pool, no pair search over n positions, no n!
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"refused: {what} at n=5000000000 ")
        assert captured.err.count("\n") == 1
        assert elapsed < 1.0

    def test_phistar_bound_covers_the_document(self, capsys):
        # the bytes the refusal compares with memory cover the traced peak
        # of n!, its JSON rendering and the written output
        argv = ["structure", "phistar", "--s", "1", "--set-i", "0"]
        main(argv + ["--n", "4"])   # imports are not the work
        capsys.readouterr()
        n = 20000
        tracemalloc.start()
        try:
            code = main(argv + ["--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out) > 77_000   # log10(19999!)
        assert peak <= n * n.bit_length() + (1 << 17)

    def test_dedup_guard_refusal_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps(
            {"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}))
        code = main(["dedup", "--partition", str(path), "--guard", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""

    def test_dist_output_is_strict_json(self, capsys):
        code = main(["dist", "--n", "5", "--trials", "1", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        docs = [json.loads(line, parse_constant=_reject_constant)
                for line in out.splitlines()]
        assert docs[1]["trials"] == 1


class TestOneWriter:
    """``main`` writes stdout only after the command returned its lines."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "needle", "--n", "6", "--trials", "10", "--seed", "1",
         "--target-mode", "sweep", "--csv", "--workers", "1"),
        ("exact", "--strategy", "naive", "--n", "4"),
        ("pmf", "--n", "4", "--csv"),
        ("dist", "--n", "5", "--trials", "10", "--csv"),
        ("field", "--brute", "--n", "3", "--m", "2", "--out", "OUT"),
        ("field", "--partition", "PART"),
        ("structure", "phistar", "--n", "6", "--set-i", "0", "--set-j", "1"),
        ("dedup", "--partition", "PART", "--out", "OUT"),
        ("example52",),
    ], ids=["simulate", "exact", "pmf", "dist", "field-brute",
            "field-partition", "structure", "dedup", "example52"])
    def test_failure_after_the_header_prints_nothing(self, capsys, tmp_path,
                                                     monkeypatch, argv):
        rendered, dumps = [], permlab.cli.dumps

        def dumps_once(obj):   # the header renders, the next document fails
            rendered.append(obj)
            if len(rendered) == 2:
                raise PermlabError("cannot render")
            return dumps(obj)

        monkeypatch.setattr(permlab.cli, "dumps", dumps_once)
        out = tmp_path / "out.json"
        argv = [str(out) if a == "OUT" else a
                for a in _with_partition(tmp_path, argv)]
        code = main(argv)
        captured = capsys.readouterr()
        assert len(rendered) == 2
        assert rendered[0]["document"] == "permlab-report"
        assert code == 2
        assert captured.err == "error: cannot render\n"
        assert captured.out == ""
        assert not out.exists()


class TestBigRatios:
    """Exact ratios and counts render in full past Python's int-to-str digit
    limit."""

    @pytest.fixture
    def restore_int_digits(self):
        old = sys.get_int_max_str_digits()
        yield
        sys.set_int_max_str_digits(old)

    def test_cov_marginal_parses_back(self, capsys, restore_int_digits):
        from permlab.counting import shift_count_pmf
        sys.set_int_max_str_digits(4300)   # the default, whatever the host
        code = main(["structure", "cov", "--mode", "sampled", "--n", "1700",
                     "--t", "1", "--i", "0", "--j", "1", "--trials", "16"])
        out = capsys.readouterr().out
        assert code == 0
        ratio = json.loads(out.splitlines()[1])["exact_marginal"]["ratio"]
        sys.set_int_max_str_digits(0)
        p, q = ratio.split("/")
        assert len(q) > 4300
        assert Fraction(int(p), int(q)) == shift_count_pmf(1700, 1)

    @pytest.mark.parametrize("kind, sets", [
        ("phistar", ("--set-i", "0", "--set-j", "2")),
        ("pset", ("--set-i", "0", "--set-j", "2", "--set-k", "5")),
    ])
    def test_count_past_digit_limit(self, capsys, restore_int_digits, kind,
                                    sets):
        from permlab.structures import (IndexSet, count_optional_displacements,
                                        count_required_displacements)
        sys.set_int_max_str_digits(4300)   # the default, whatever the host
        code = main(["structure", kind, "--n", "1700", "--s", "1", *sets])
        out = capsys.readouterr().out
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300   # lifted only to encode
        sys.set_int_max_str_digits(0)
        count = json.loads(out.splitlines()[1])["count"]
        I, J, K = (IndexSet.of(1700, (e,)) for e in (0, 2, 5))
        expected = (count_required_displacements(I, J, 1) if kind == "phistar"
                    else count_optional_displacements(K, I, J, 1))
        assert len(str(count)) > 4300
        assert count == expected

    @pytest.mark.parametrize("digits, limit", [
        (1, None), (603, None), (604, None), (4300, None), (4301, None),
        (20000, None), (20000, 640)],
        ids=["1", "603", "604", "4300", "4301", "20000", "20000-limit-640"])
    def test_ratio_text_in_full(self, restore_int_digits, digits, limit):
        from permlab.reporting import ratio_text
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        q = Fraction(-(10 ** digits - 7), 10 ** digits + 3)
        text = ratio_text(q)
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        assert text == f"{q.numerator}/{q.denominator}"


class TestConsoleScript:
    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "exact", "--strategy",
             "naive", "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert '"ratio": "1/2"' in proc.stdout

    def test_malformed_partition_no_traceback(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text('{"n": 3, "assignment": [0, 0, 0, 0, 0, 0]}')
        proc = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "field", "--partition",
             str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_feasible_pair_found_at_once(self):
        # the canonical (I, J) search once scanned every 6-set of 0..39
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "structure", "feasible",
             "--n", "40", "--t", "6", "--k", "1", "--s", "1", "--mode",
             "sampled", "--trials", "10"],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 2.0
        assert json.loads(proc.stdout.splitlines()[1])["trials"] == 10

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "simulate", "nonsense",
             "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 2


# minor page faults of 40 seeded blocks, run through ``main`` after one block
# has run through it, in a fresh interpreter whose allocator is untouched
_BLOCK_FAULTS = """
import contextlib, io, resource, sys
from permlab.cli import main
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv + ["--trials", "2048"]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv + ["--trials", str(40 * 2048)]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# whether a fresh interpreter has imported ctypes once a command has run
_LOADS_CTYPES = """
import contextlib, io, sys
from permlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:   # --version
        pass
print("ctypes" in sys.modules)
"""
_SAMPLE = ("simulate", "needle", "--n", "64", "--strategy", "naive",
           "--trials", "3000", "--seed", "5", "--workers", "1")


class TestHeapThresholds:
    """The commands that run numpy blocks fix glibc's heap thresholds first,
    so freed draw buffers and tiles stay mapped from block to block."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's")
    @pytest.mark.parametrize("argv", [
        ("simulate", "needle", "--n", "64", "--strategy", "naive",
         "--seed", "3", "--workers", "1"),
        ("dist", "--n", "64", "--seed", "3"),
        ("structure", "cov", "--n", "64", "--t", "1", "--mode", "sampled",
         "--seed", "3"),
    ], ids=["needle-naive", "dist", "cov-sampled"])
    def test_blocks_fault_no_pages_back_in(self, argv):
        # with glibc's dynamic thresholds each block trims the heap and
        # faults about 490 pages back in: about 19,600 for 40 blocks
        proc = subprocess.run([sys.executable, "-c", _BLOCK_FAULTS, *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2000

    @pytest.mark.parametrize("argv, calls", [
        (_SAMPLE, 1),
        (("dist", "--n", "8", "--trials", "100"), 1),
        (("exact", "--strategy", "naive", "--n", "4"), 1),
        (("pmf", "--n", "5"), 0),
        (("field", "--brute", "--n", "3", "--m", "3"), 0),
        (("example52",), 0),
        (("structure", "cov", "--n", "8", "--t", "1", "--mode", "sampled",
          "--trials", "100"), 1),
        (("structure", "phi", "--n", "5", "--set-i", "0", "--set-j", "1"), 0),
    ], ids=["simulate", "dist", "exact", "pmf", "field", "example52",
            "cov-sampled", "phi"])
    def test_set_by_the_block_commands(self, capsys, monkeypatch, argv,
                                       calls):
        seen = []
        libc = types.SimpleNamespace(mallopt=lambda *a: seen.append(a) or 1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert seen == [(-3, 32 << 20), (-1, 128 << 20)] * calls

    @pytest.mark.parametrize("libc", ["no-dlopen", "no-mallopt"])
    def test_without_mallopt_does_nothing(self, capsys, monkeypatch, libc):
        def cdll(name):
            if libc == "no-dlopen":
                raise OSError("no C library")
            return types.SimpleNamespace()

        _, want, _ = run_cli(capsys, *_SAMPLE)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        code, got, _ = run_cli(capsys, *_SAMPLE)
        assert code == 0
        assert strip_timestamp(got) == strip_timestamp(want)

    @pytest.mark.parametrize("argv", [
        ("--version",), ("pmf", "--n", "5"),
        ("field", "--brute", "--n", "3", "--m", "3")],
        ids=["version", "pmf", "field"])
    def test_other_commands_leave_ctypes_unloaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", _LOADS_CTYPES, *argv],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# small values of every option, so that each example runs in milliseconds
_SMALL = hs.integers(min_value=-2, max_value=7).map(str)
_LATIN = {"good": "[[0,1,2],[2,0,1],[1,2,0]]", "bad-json": "{bad",
          "bad-entry": '[[0,"x"],[1,0]]', "not-latin": "[[0,0],[1,1]]"}
_PARTITION = {"good": '{"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1]}',
              "bad-json": "{bad", "no-m": '{"n": 3, "assignment": [0]}',
              "short": '{"n": 3, "m": 2, "assignment": [0, 1]}'}


@hs.composite
def _argvs(draw, files):
    """A command line of any subcommand, with options drawn at random."""

    def opts(*names, values=_SMALL):
        out = []
        for name in names:
            if draw(hs.booleans()):
                out += [name, draw(values)]
        return out

    def flags(*names):
        return [name for name in names if draw(hs.booleans())]

    def file_of(kind):
        return str(draw(hs.sampled_from(sorted(files[kind].values()))))

    n = ["--n", draw(_SMALL)]
    command = draw(hs.sampled_from(["simulate", "exact", "pmf", "dist",
                                    "field", "structure", "dedup",
                                    "example52"]))
    strategy = hs.sampled_from(["shift", "naive", "baseline", "bogus",
                                "latin:missing.json"])
    if command == "simulate":
        strategy = hs.one_of(strategy, hs.sampled_from(
            sorted(f"latin:{path}" for path in files["latin"].values())))
        return (["simulate", draw(hs.sampled_from(["needle", "locker"]))]
                + n + opts("--trials", "--seed", "--target")
                + opts("--strategy", values=strategy)
                + opts("--target-mode", values=hs.sampled_from(
                    ["uniform", "fixed", "sweep"]))
                + flags("--exhaustive") + ["--workers", "1"])
    if command == "exact":
        return ["exact"] + n + opts("--guard") + opts("--strategy",
                                                      values=strategy)
    if command == "pmf":
        return ["pmf"] + n
    if command == "dist":
        return ["dist"] + n + opts("--trials", "--seed") + flags("--exhaustive")
    if command == "field":
        if draw(hs.booleans()):
            return ["field", "--partition", file_of("partition")]
        small = hs.integers(min_value=-1, max_value=3).map(str)
        return (["field", "--brute"] + opts("--n", "--m", values=small)
                + opts("--budget", "--guard") + flags("--aic"))
    if command == "structure":
        token = hs.one_of(hs.integers(-1, 7).map(str),
                          hs.sampled_from(["a", "1.5", ""]))
        index_list = hs.lists(token, max_size=3).map(",".join)
        return (["structure", draw(hs.sampled_from(
                    ["phi", "phistar", "pset", "compatible", "feasible",
                     "joint", "cov"]))]
                + n + opts("--s", "--t", "--k", "--i", "--j", "--trials",
                           "--seed", "--guard")
                + opts("--set-i", "--set-j", "--set-k", values=index_list)
                + opts("--mode", values=hs.sampled_from(["exact", "sampled"])))
    if command == "dedup":
        return ["dedup", "--partition", file_of("partition")] + opts("--guard")
    return ["example52"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for kind, texts in (("latin", _LATIN), ("partition", _PARTITION)):
        files[kind] = {}
        for name, text in texts.items():
            files[kind][name] = root / f"{kind}-{name}.json"
            files[kind][name].write_text(text)
    return files


class TestFuzz:
    """Every command line ends in exit 0, 2 or 3, never in a traceback, and
    everything on stdout is strict JSON (no ``--csv``, whose rows are not
    JSON)."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=hs.data())
    def test_every_run_ends_cleanly(self, cli_files, data):
        argv = data.draw(_argvs(cli_files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects the grammar
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == "", argv
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)
