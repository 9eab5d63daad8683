"""The permlab command line: grammar, documents, exit codes, reproducibility."""

import json
import subprocess
import sys

import pytest

from permlab.cli import main


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

    def test_witness_out_file(self, capsys, tmp_path):
        out = tmp_path / "witness.json"
        code, _, _ = run_cli(capsys, "field", "--brute", "--n", "3",
                             "--m", "2", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["m"] == 2 and len(data["assignment"]) == 6


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
        code, _, _ = run_cli(capsys, "structure", "joint", "--n", "12",
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


class TestSimulate:
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
        assert "target,trials,successes" in out
        csv_rows = [l for l in out.splitlines()
                    if "," in l and not l.startswith("{")]
        assert len(csv_rows) == 6  # header plus one row per target

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
        ("dist", "--n", "5", "--trials", "0"),
        ("dist", "--n", "0"),
        ("structure", "compatible", "--n", "5", "--t", "1", "--s", "1",
         "--mode", "sampled", "--trials", "0"),
        ("structure", "feasible", "--n", "12", "--t", "1", "--k", "1",
         "--s", "1", "--mode", "sampled", "--trials", "0"),
    ], ids=["locker-bogus", "locker-naive", "exact-naive-n1", "exact-n0",
            "dist-trials0", "dist-n0", "compatible-trials0",
            "feasible-trials0"])
    def test_exit_2(self, capsys, argv):
        out = self.usage_error_stdout(capsys, argv)
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)

    @staticmethod
    def usage_error_stdout(capsys, argv):
        """Run argv, check exit 2 with one ``error:`` line; return stdout."""
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.out

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
    ], ids=["not-json", "array", "no-m"])
    @pytest.mark.parametrize("command", ["field", "dedup"])
    def test_malformed_partition_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "part.json"
        path.write_text(text)
        argv = (command, "--partition", str(path))
        assert self.usage_error_stdout(capsys, argv) == ""

    def test_dist_output_is_strict_json(self, capsys):
        code = main(["dist", "--n", "5", "--trials", "1", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        docs = [json.loads(line, parse_constant=_reject_constant)
                for line in out.splitlines()]
        assert docs[1]["trials"] == 1


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

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "permlab.cli", "simulate", "nonsense",
             "--n", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 2
