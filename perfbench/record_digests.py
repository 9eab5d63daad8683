"""Record the stdout digests every workload command is checked against.

    python3 perfbench/record_digests.py

Runs each distinct command of every workload for every program seed and
writes ``digests.json``. Re-record only when an output change is intended:
the digests are what make a changed stream or document count as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def main() -> int:
    W.require_checkout()
    W.prepare_work_dir()
    env = W.command_env()
    digests: dict[str, str] = {}
    for name, build in W.WORKLOADS.items():
        for seed in range(W.PROGRAM_SEEDS):
            results = []
            for cmd in build(seed):
                if cmd.key in digests:
                    continue
                r = W.run_command(cmd, env, None)
                results.append(r)
                if r.problem is not None:
                    print(f"{name} seed {seed} {cmd.label}: {r.problem}",
                          file=sys.stderr)
                    return 1
                digests[cmd.key] = r.digest
            W.cross_check(results)
            bad = [r for r in results if r.problem is not None]
            if bad:
                print(f"{name} seed {seed}: {bad[0].problem}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {len(results)} recorded", file=sys.stderr)
    W.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
