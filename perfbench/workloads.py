"""The three CLI workloads, how one command is run and timed, and the
checks that decide whether its output is correct.

Every command runs as its own ``python -m permlab.cli`` subprocess, one at a
time, with ``--workers 1`` on every ``simulate`` so the timings do not depend
on the core count. A command fails when it exits nonzero, when its stdout
(header timestamp removed) does not match the digest recorded in
``digests.json``, or when one of the exact spot checks below disagrees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"
# Relative to ROOT, the working directory of every command: the strategy
# name, and with it this path, is echoed in the report, so it must not
# depend on where the checkout lives.
LATIN32 = "perfbench/.work/latin32.json"

# Benchmark seeds map onto this many program seeds, each with recorded
# digests, so any --seed gets a checked output.
PROGRAM_SEEDS = 16
COMMAND_TIMEOUT_S = 150

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

# The host's speed drifts by 20-60% over seconds to minutes (NOTES.md,
# Noise), more than any bound a metric could carry, and the drift belongs to
# the core: a loop timed on the other core does not follow it. So while a
# command runs, a thread of the benchmark on the same core times a fixed
# probe in its own CPU time every PROBE_EVERY_S, and the command's time is
# scaled by REFERENCE_PROBE_S over the median probe: the time it would have
# taken at the host speed where the probe takes REFERENCE_PROBE_S. The probe
# is benchmark code, so a change to permlab moves scaled times as it moves
# raw ones. It takes about 2% of the core from the command.
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0019
# The compiled code of a stdlib module, which the probe unmarshals as an
# import does.
_PROBE_CODE = marshal.dumps(compile(Path(argparse.__file__).read_text(),
                                    "argparse.py", "exec"))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``kind`` picks the end-to-end timing it adds to (``sample``, ``exact``
    or ``search``); ``game`` and ``trials`` feed the ``<game>_trials_per_s``
    metrics, where a trial is one permutation drawn or enumerated. A
    ``once`` command runs in the middle round only.
    """

    label: str
    args: tuple[str, ...]
    kind: str
    game: str | None = None
    trials: int = 0
    check: Callable[[list[dict]], str | None] | None = None
    once: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass
class Result:
    command: Command
    seconds: float
    peak_rss_mb: float
    digest: str
    documents: list[dict] = field(default_factory=list)
    problem: str | None = None
    scaled_seconds: float = 0.0


def program_seed(bench_seed: int) -> int:
    return bench_seed % PROGRAM_SEEDS


def _sim(game: str, n: int, trials: int, seed: int, *extra: str) -> tuple[str, ...]:
    return ("simulate", game, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--workers", "1", *extra)


# ---------------------------------------------------------------------------
# exact spot checks: each returns None when the output is right
# ---------------------------------------------------------------------------

def _ratio_is(path: tuple[str, ...], want: str):
    def check(docs: list[dict]) -> str | None:
        value = docs[1]
        for key in path:
            value = value[key]
        got = value["ratio"]
        return None if got == want else f"{'.'.join(path)} is {got}, not {want}"
    return check


def _field_is(field_value: int, nodes: int):
    def check(docs: list[dict]) -> str | None:
        got = (docs[1]["field"], docs[1]["nodes"])
        want = (field_value, nodes)
        return None if got == want else f"field, nodes = {got}, not {want}"
    return check


def _pmf_sums_to_one(docs: list[dict]) -> str | None:
    total = sum(Fraction(row["probability"]["ratio"]) for row in docs[1]["pmf"])
    return None if total == 1 else f"pmf sums to {float(total)!r}, not 1"


# ---------------------------------------------------------------------------
# workloads
#
# Each function returns the command order of one round; a run repeats the
# round and reports per-command medians. The machine's speed drifts by tens
# of percent over seconds, so the short commands recur across the round to
# sample more moments.
# ---------------------------------------------------------------------------

def mc_large_n(seed: int) -> list[Command]:
    """Sampling at n=10000: 2048x10000 int32 per batch, near the L3 size."""
    # pmf sizes keep big-integer work, not interpreter start, the bulk of
    # exact_s; n >= 1600 hits the known int->str digit limit
    pmf = Command("pmf_n1000", ("pmf", "--n", "1000"), "exact",
                  check=_pmf_sums_to_one)
    field = Command("field_n3m4", ("field", "--brute", "--n", "3", "--m", "4"),
                    "search", check=_field_is(14, 105))
    return [
        pmf, field,
        Command("needle_n10000", _sim("needle", 10000, 2048, seed),
                "sample", "needle", 2048),
        Command("locker_n10000", _sim("locker", 10000, 2048, seed),
                "sample", "locker", 2048),
        field,
        Command("dist_n10000",
                ("dist", "--n", "10000", "--trials", "2048", "--seed", str(seed)),
                "sample", "dist", 2048),
    ]


def mc_small_n(seed: int) -> list[Command]:
    """Sampling at n <= 256: working sets fit in L2, per-call overhead rules."""
    pmf = Command("pmf_n500", ("pmf", "--n", "500"), "exact",
                  check=_pmf_sums_to_one)
    field = Command("field_n3m3", ("field", "--brute", "--n", "3", "--m", "3"),
                    "search", check=_field_is(12, 128))
    shift = Command("needle_n32_shift", _sim("needle", 32, 8000, seed),
                    "sample", "needle", 8000)
    dist = Command("dist_n64",
                   ("dist", "--n", "64", "--trials", "102400", "--seed", str(seed)),
                   "sample", "dist", 102400)
    return [
        pmf, field, dist, shift,
        Command("needle_n64_sweep",
                _sim("needle", 64, 163840, seed, "--target-mode", "sweep"),
                "sample", "needle", 163840),
        field,
        Command("needle_n64_naive",
                _sim("needle", 64, 204800, seed, "--strategy", "naive"),
                "sample", "needle", 204800),
        Command("locker_n256", _sim("locker", 256, 61440, seed),
                "sample", "locker", 61440),
        field,
        Command("needle_n32_latin",
                _sim("needle", 32, 8000, seed, "--strategy", f"latin:{LATIN32}"),
                "sample", "needle", 8000),
        shift, dist, field, pmf,
    ]


def exact_search(seed: int) -> list[Command]:
    """Enumeration and field search: pure-Python loops, no random stream.
    ``exact`` evaluates the needle game over all 9! permutations, so its
    rows count as needle trials."""
    fact8, fact9 = 40320, 362880
    return [
        Command("needle_n8_exhaustive",
                ("simulate", "needle", "--n", "8", "--exhaustive",
                 "--target-mode", "sweep", "--seed", str(seed), "--workers", "1"),
                "exact", "needle", fact8,
                check=_ratio_is(("exact",), "83/240")),
        Command("locker_n8_exhaustive",
                ("simulate", "locker", "--n", "8", "--exhaustive",
                 "--target-mode", "sweep", "--seed", str(seed), "--workers", "1"),
                "exact", "locker", fact8),
        Command("dist_n8_exhaustive",
                ("dist", "--n", "8", "--exhaustive", "--seed", str(seed)),
                "exact", "dist", fact8),
        Command("field_n3m3_aic",
                ("field", "--brute", "--n", "3", "--m", "3", "--aic"),
                "search", check=_field_is(12, 128)),
        Command("exact_naive_n9",
                ("exact", "--strategy", "naive", "--n", "9", "--guard", "9"),
                "exact", "needle", fact9, check=_ratio_is(("overall",), "2/9")),
        Command("structure_phi_n10",
                ("structure", "phi", "--n", "10", "--s", "1",
                 "--set-i", "0", "--set-j", "2"), "exact"),
        Command("structure_joint_n10",
                ("structure", "joint", "--n", "10", "--i", "0", "--j", "1",
                 "--t", "1"), "exact"),
        Command("exact_shift_n9",
                ("exact", "--strategy", "shift", "--n", "9", "--guard", "9"),
                "exact", "needle", fact9, once=True),
        Command("field_n4m2",
                ("field", "--brute", "--n", "4", "--m", "2",
                 "--budget", "10000000"),
                "search", check=_field_is(40, 6084377), once=True),
    ]


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "mc_large_n": mc_large_n,
    "mc_small_n": mc_small_n,
    "exact_search": exact_search,
}


def cross_check(results: list[Result]) -> None:
    """Latin on the cyclic square must reproduce the shift strategy's
    successes at the same n, seed and trials, which ties the scalar engine
    to the vector engine. A mismatch fails the latin command."""
    by_label = {r.command.label: r for r in results}
    latin = by_label.get("needle_n32_latin")
    shift = by_label.get("needle_n32_shift")
    if latin is None or shift is None or latin.problem or shift.problem:
        return
    a = latin.documents[1]["successes"]
    b = shift.documents[1]["successes"]
    if a != b:
        latin.problem = f"latin32 successes {a} != shift successes {b}"


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

def require_checkout() -> None:
    """Refuse to run without the package sources next to the benchmark."""
    if not (SRC / "permlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no permlab sources under {SRC}; "
                         "run from a full checkout")


def prepare_work_dir() -> None:
    """Create the scratch directory and the cyclic order-32 latin square."""
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    from permlab.strategies import LatinSquare
    rows = LatinSquare.cyclic(32).rows
    (ROOT / LATIN32).write_text(json.dumps([list(r) for r in rows]) + "\n")


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("PERMLAB_SEED", None)
    return env


def probe_seconds() -> float:
    """CPU seconds this thread takes right now for a fixed bytecode loop and
    one unmarshal of a module's code: the interpreter work that permlab's
    commands, and their start-up, are made of."""
    t0 = time.thread_time()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    marshal.loads(_PROBE_CODE)
    return time.thread_time() - t0


def run_cli(args: tuple[str, ...], stdout_path: Path, stderr_path: Path,
            env: dict[str, str]) -> tuple[float, float, int, float]:
    """Run ``permlab args`` once; return (seconds, peak RSS in MB, exit code,
    speed factor). Seconds times the speed factor is the scaled time."""
    probes: list[float] = []
    done = threading.Event()

    def probe_loop() -> None:
        while not done.is_set():
            probes.append(probe_seconds())
            done.wait(PROBE_EVERY_S)

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "permlab.cli", *args],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        prober = threading.Thread(target=probe_loop, daemon=True)
        prober.start()
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, unlike Popen.wait, reports this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        finally:
            timer.cancel()
            done.set()
            prober.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    speed = REFERENCE_PROBE_S / statistics.median(probes or [probe_seconds()])
    return (seconds, usage.ru_maxrss / 1024.0,
            os.waitstatus_to_exitcode(status), speed)


def stdout_digest(raw: bytes) -> str:
    return hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": ""', raw, count=1)
                          ).hexdigest()


def run_command(cmd: Command, env: dict[str, str],
                digests: dict[str, str] | None) -> Result:
    """Run, time and check one command. ``digests=None`` skips the digest
    comparison (used when recording them)."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    seconds, rss, code, speed = run_cli(cmd.args, out_path, err_path, env)
    raw = out_path.read_bytes()
    result = Result(cmd, seconds, rss, stdout_digest(raw),
                    scaled_seconds=seconds * speed)
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        result.problem = f"exit code {code}: {' '.join(tail)}"
        return result
    try:
        result.documents = [json.loads(line) for line in raw.splitlines()[:2]]
    except json.JSONDecodeError as exc:
        result.problem = f"stdout is not JSON lines: {exc}"
        return result
    if digests is not None and digests.get(cmd.key) != result.digest:
        result.problem = ("no recorded digest" if cmd.key not in digests
                          else "stdout differs from the recorded digest")
    elif cmd.check is not None:
        try:
            result.problem = cmd.check(result.documents)
        except (LookupError, TypeError, ValueError) as exc:
            result.problem = f"check could not read the output: {exc!r}"
    return result


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())
