"""permlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times the workload's CLI commands (see workloads.py)
in rounds until ``--seconds`` have elapsed (at least three rounds), and
reports end-to-end metrics built from each command's median time, scaled to
the reference host speed (see ``workloads.run_cli``). With
``--trace 1`` it runs the traced in-process suite (see tracing.py) and
reports the per-layer metrics. Either way the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; per-command detail and
the environment go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_ROUND = 2


def environment() -> dict:
    """What the timings depend on. No hardware counters are read; the CPU
    model and cache sizes of the reference machine are in NOTES.md."""
    import numpy
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def pin_to_one_core() -> None:
    """Run this process, its probe thread and every command it starts on one
    core, so the probe (see workloads.run_cli) times the core the commands
    run on. A short switch interval lets the waiting thread take the
    interpreter back within half a millisecond when a command ends."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.setswitchinterval(0.0005)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def workload_metrics(samples: dict[str, list[W.Result]]) -> dict[str, float]:
    """End-to-end metrics from each command's median scaled time over its
    runs."""
    median = {label: statistics.median(r.scaled_seconds for r in runs)
              for label, runs in samples.items()}
    commands = {label: runs[0].command for label, runs in samples.items()}

    def seconds(pick) -> float:
        return sum(median[k] for k, c in commands.items() if pick(c))

    def rate(game: str) -> float:
        trials = sum(c.trials for c in commands.values() if c.game == game)
        return trials / seconds(lambda c: c.game == game)

    runs = [r for rs in samples.values() for r in rs]
    return {
        "wall_s": seconds(lambda c: True),
        "needle_trials_per_s": rate("needle"),
        "locker_trials_per_s": rate("locker"),
        "dist_trials_per_s": rate("dist"),
        "exact_s": seconds(lambda c: c.kind == "exact"),
        "search_s": seconds(lambda c: c.kind == "search"),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "ok_rate": 1.0 - sum(r.problem is not None for r in runs) / len(runs),
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "needle_trials_per_s": "1/s",
    "locker_trials_per_s": "1/s", "dist_trials_per_s": "1/s", "exact_s": "s",
    "search_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio",
}


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload's round until ``seconds`` have gone by (at least
    MIN_ROUNDS times), timing ``permlab --version`` at the start of each."""
    env = W.command_env()
    digests = W.load_digests()
    order = W.WORKLOADS[workload](W.program_seed(seed))
    pin_to_one_core()
    setup: list[float] = []
    samples: dict[str, list[W.Result]] = {}
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            took, _, code, speed = W.run_cli(
                ("--version",), W.WORK / "stdout.txt", W.WORK / "stderr.txt", env)
            if code != 0:
                raise SystemExit(f"perfbench: permlab --version exited {code}")
            setup.append(took * speed)
        results = [W.run_command(cmd, env, digests) for cmd in order
                   if not cmd.once or rounds == 1]
        W.cross_check(results)
        for r in results:
            samples.setdefault(r.command.label, []).append(r)
            log(f"  {r.command.label:24s} {r.seconds:8.3f} s "
                f"{r.scaled_seconds:8.3f} s scaled "
                f"{r.peak_rss_mb:8.1f} MB  {r.problem or 'ok'}")
        rounds += 1
        last = time.perf_counter() - t0
        log(f"round {rounds}: {last:.3f} s")

    metrics = {"setup_s": statistics.median(setup), **workload_metrics(samples)}
    attempted = sum(len(rs) for rs in samples.values())
    failed = sum(r.problem is not None for rs in samples.values() for r in rs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    W.require_checkout()
    W.prepare_work_dir()
    log("environment: " + json.dumps(environment(), sort_keys=True))
    log(f"workload {args.workload}, bench seed {args.seed}, "
        f"program seed {W.program_seed(args.seed)}")
    if args.trace:
        import tracing
        out = tracing.run_traced(W.program_seed(args.seed))
    else:
        out = run_end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
