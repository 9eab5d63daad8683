"""Command-line front end.

Every run prints JSON lines: a header holding the tool version, the resolved
configuration and a timestamp, then one result object per line (and, with
``--csv``, CSV rows). A command returns its lines; ``main`` alone writes
stdout, and only after the command returned, so a run that fails, even
while rendering, writes nothing to stdout. Re-running the printed
configuration reproduces the document byte for byte apart from the
timestamp; the worker count is an execution detail and never changes any
output. Exit codes: 0 success, 2 usage error, 3 guard or budget refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .enumeration import SWEEP_GUARD, guard_value
from .errors import GuardRefusal, PermlabError, TooLargeForEnumeration
from .reporting import dumps


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:   # not an integer, or past str's digit limit
        raise PermlabError(f"{what} must be an integer") from None


def _parse_index_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_integer(x, "an entry of --set-i, --set-j or --set-k")
                 for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="permlab",
        description="Advice-aided permutation search workbench")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo game simulation")
    sim.add_argument("game", choices=["needle", "locker"])
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--strategy", default="shift",
                     help="shift | naive | baseline | latin:<file>")
    sim.add_argument("--target-mode", choices=["uniform", "fixed", "sweep"],
                     default="uniform")
    sim.add_argument("--target", type=int, default=None)
    sim.add_argument("--exhaustive", action="store_true",
                     help=f"exact sweep, not sampling (n <= {SWEEP_GUARD})")
    sim.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    sim.add_argument("--csv", action="store_true",
                     help="emit per-target CSV rows after the JSON document")

    ex = sub.add_parser("exact", help="exact strategy evaluation by enumeration")
    ex.add_argument("--strategy", default="shift")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--guard", type=int, default=SWEEP_GUARD,
                    help="largest n the full sweep will accept")

    pmf = sub.add_parser("pmf", help="exact shift-class size distribution")
    pmf.add_argument("--n", type=int, required=True)
    pmf.add_argument("--csv", action="store_true")

    dist = sub.add_parser("dist", help="distribution of the largest shift class")
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--trials", type=int, default=10_000)
    dist.add_argument("--seed", type=int, default=None)
    dist.add_argument("--exhaustive", action="store_true")
    dist.add_argument("--csv", action="store_true")

    fld = sub.add_parser("field", help="partition fields and field search")
    fld.add_argument("--partition", help="JSON partition file to score")
    fld.add_argument("--brute", action="store_true",
                     help="search all partitions for the maximum field")
    fld.add_argument("--n", type=int)
    fld.add_argument("--m", type=int)
    fld.add_argument("--aic", action="store_true",
                     help="restrict the search to Alice-In-Chains partitions")
    fld.add_argument("--budget", type=int, default=None)
    fld.add_argument("--guard", type=int, default=SWEEP_GUARD)
    fld.add_argument("--out", help="write the witness partition JSON here")

    st = sub.add_parser("structure", help="displacement-pattern statistics")
    st.add_argument("kind", choices=["phi", "phistar", "pset", "compatible",
                                     "feasible", "joint", "cov"])
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--s", type=int, default=1, help="shift")
    st.add_argument("--t", type=int, default=1)
    st.add_argument("--k", type=int, default=0)
    st.add_argument("--i", type=int, default=0)
    st.add_argument("--j", type=int, default=1)
    st.add_argument("--set-i", default="", help="comma list, e.g. 0,3")
    st.add_argument("--set-j", default="")
    st.add_argument("--set-k", default="")
    st.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    st.add_argument("--trials", type=int, default=100_000)
    st.add_argument("--seed", type=int, default=None)
    st.add_argument("--guard", type=int, default=None, help="bounds nothing")

    dd = sub.add_parser("dedup", help="magnet deduplication rewrite")
    dd.add_argument("--partition", required=True)
    dd.add_argument("--guard", type=int, default=SWEEP_GUARD)
    dd.add_argument("--out", help="write rewritten classes JSON here")

    sub.add_parser("example52", help="replay the 52-card worked example")
    return top


def _fix_heap_thresholds() -> None:
    """Keep freed numpy scratch on the heap for the rest of the process.

    By default glibc maps each request of 128 KiB or more afresh, or serves
    it from the heap once its dynamic threshold has risen, and trims the
    heap top past twice that threshold. Each seeded block frees two 1 MiB
    draw buffers, so the heap would be trimmed after every block and about
    490 pages faulted back in by the next. Commands that run numpy blocks
    (``simulate``, ``dist``, ``exact`` and ``structure`` in sampled mode)
    call this first; the others do not, so they never import ``ctypes``.
    Without glibc's ``mallopt`` it does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD: map only requests past 32 MiB
    mallopt(-1, 128 << 20)   # M_TRIM_THRESHOLD: trim only past 128 MiB free


def _header(args, **config) -> str:
    """The header line. Its config echoes every parsed option except
    --csv, --out and --workers, unless the command passes its own."""
    if not config:
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "csv", "out", "workers")}
    return dumps({"document": "permlab-report", "version": __version__,
                  "command": args.command, "config": config,
                  "timestamp": datetime.now(timezone.utc).isoformat()})


def _cmd_simulate(args) -> list[str]:
    _fix_heap_thresholds()
    from .simulate import GameConfig, simulate_locker, simulate_needle
    cfg = GameConfig._make(getattr(args, f) for f in GameConfig._fields)
    run = simulate_needle if args.game == "needle" else simulate_locker
    report = run(cfg)
    lines = [_header(args), dumps(report)]
    if report.per_target is not None:
        # ties go to the lowest target
        worst = min(report.per_target, key=lambda ts: (ts.estimate, ts.target))
        lines.append(dumps({"worst_target": worst.target,
                            "minimum": worst.estimate,
                            "minimum_exact": worst.exact,
                            "wilson_95_low": worst.wilson_95_low,
                            "wilson_95_high": worst.wilson_95_high}))
        if args.csv:
            lines.append("target,trials,successes,estimate,wilson_95_low,"
                         "wilson_95_high")
            lines += [f"{ts.target},{ts.trials},{ts.successes},"
                      f"{ts.estimate!r},{ts.wilson_95_low!r},"
                      f"{ts.wilson_95_high!r}" for ts in report.per_target]
    return lines


def _cmd_exact(args) -> list[str]:
    _fix_heap_thresholds()
    from .strategies import evaluate_success_exact, strategy_by_name
    st = strategy_by_name(args.strategy, args.n)
    ev = evaluate_success_exact(st, guard=args.guard)
    return [_header(args), dumps(ev)]


def _cmd_pmf(args) -> list[str]:
    from .counting import shift_pmf_ratios
    pmf = [{"ratio": text, "value": value}             # rendered once
           for text, value in shift_pmf_ratios(args.n)]
    rows = [{"k": k, "probability": p} for k, p in enumerate(pmf)]
    lines = [_header(args), dumps({"n": args.n, "pmf": rows})]
    if args.csv:
        lines.append("k,ratio,decimal")
        lines += [f"{k},{p['ratio']},{p['value']!r}" for k, p in enumerate(pmf)]
    return lines


def _cmd_dist(args) -> list[str]:
    _fix_heap_thresholds()
    from .simulate import max_shift_distribution
    report = max_shift_distribution(args.n, trials=args.trials, seed=args.seed,
                                    exhaustive=args.exhaustive)
    lines = [_header(args), dumps(report)]
    if args.csv:
        lines.append("max_shift,count")
        lines += [f"{k},{report.histogram[k]}" for k in sorted(report.histogram)]
    return lines


def _cmd_field(args) -> list[str]:
    from fractions import Fraction
    from .fields import (PartitionStrategy, brute_force_field,
                         field_of_partition, DEFAULT_BUDGET)
    if args.brute:
        if args.n is None or args.m is None:
            raise PermlabError("--brute needs --n and --m")
        budget = args.budget if args.budget is not None else DEFAULT_BUDGET
        restriction = "aic" if args.aic else None
        result = brute_force_field(args.n, args.m, restriction=restriction,
                                   budget=budget, guard=args.guard)
        lines = [_header(args, brute=True, n=args.n, m=args.m, aic=args.aic,
                         budget=budget, guard=args.guard),
                 dumps(result)]
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(result.witness.to_json() + "\n")
        return lines
    if not args.partition:
        raise PermlabError("field needs --partition FILE or --brute")
    with open(args.partition, "r", encoding="utf-8") as fh:
        part = PartitionStrategy.from_json(fh.read())
    field = field_of_partition(part, args.guard)
    body = {"n": part.n, "m": part.m, "field": field,
            # (1/n) * field / n!, one assignment entry per permutation
            "success_upper_bound": Fraction(field, part.n * len(part.assignment))}
    return [_header(args, partition=args.partition, guard=args.guard),
            dumps(body)]


def _cmd_structure(args) -> list[str]:
    if args.mode == "sampled":
        _fix_heap_thresholds()
    from . import structures as S
    kind, n, seed = args.kind, args.n, args.seed
    guard_value(args.guard)   # a negative guard is a usage error for any kind
    if kind in ("phi", "phistar", "pset"):
        I = S.IndexSet.of(n, _parse_index_list(args.set_i))
        J = S.IndexSet.of(n, _parse_index_list(args.set_j))
        if kind == "phi":
            count = S.count_exact_displacements(I, J, args.s)
        elif kind == "phistar":
            count = S.count_required_displacements(I, J, args.s)
        else:
            K = S.IndexSet.of(n, _parse_index_list(args.set_k))
            count = S.count_optional_displacements(K, I, J, args.s)
        body = {"kind": kind, "count": count}
    elif kind == "compatible":
        body = S.compatible_pair_stats(n, args.t, args.s, mode=args.mode,
                                       trials=args.trials, seed=seed)
    elif kind == "feasible":
        body = S.feasible_set_stats(n, args.t, args.k, args.s, mode=args.mode,
                                    trials=args.trials, seed=seed)
    elif kind == "joint":
        p = S.joint_shift_pmf(n, args.i, args.j, args.t)
        body = {"kind": "joint", "n": n, "i": args.i, "j": args.j,
                "t": args.t, "probability": p}
    else:
        body = S.covariance_estimate(n, args.t, args.i, args.j,
                                     trials=args.trials, seed=seed,
                                     mode=args.mode)
    return [_header(args), dumps(body)]


def _cmd_dedup(args) -> list[str]:
    from .fields import PartitionStrategy, class_members, deduplicate_magnets
    with open(args.partition, "r", encoding="utf-8") as fh:
        part = PartitionStrategy.from_json(fh.read())
    classes = class_members(part, args.guard)
    result = deduplicate_magnets([classes.get(h, ()) for h in range(part.m)],
                                 guard=args.guard)
    out_classes = [[list(p.image) for p in c] for c in result.classes]
    lines = [_header(args),
             dumps({"classes": out_classes, "steps": result.steps,
                    "step_count": len(result.steps)})]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"n": part.n, "classes": out_classes}) + "\n")
    return lines


def _cmd_example52(args) -> list[str]:
    from .perms import (apply_transposition, argmax_shift, example_deck,
                        shift_histogram, shift_vector)
    from .simulate import GameConfig, simulate_locker, simulate_needle
    deck = example_deck()
    hist = shift_histogram(deck)
    hint = argmax_shift(hist)
    # both games score the deck as a one-row sweep of every target
    sweep = GameConfig(n=deck.n, trials=1, seed=0, target_mode="sweep")
    needle = simulate_needle(sweep, perm_stream=lambda t: deck.image)
    wins = [ts.target for ts in needle.per_target if ts.successes]
    swap_pos = deck.inverse_of(hint)
    after = apply_transposition(deck, 0, swap_pos)
    locker = simulate_locker(sweep, perm_stream=lambda t: deck.image)
    return [_header(args, n=deck.n), dumps({
        "n": deck.n,
        "permutation": list(deck.image),
        "shift_vector": list(shift_vector(deck)),
        "shift_counts": list(hist.counts),
        "hint": hint,
        "hint_class_size": hist.counts[hint],
        "needle_successes": len(wins),
        "needle_success_targets": wins,
        "needle_success_probability": {"ratio": f"{len(wins)}/{deck.n}",
                                       "value": len(wins) / deck.n},
        "swap_positions": [0, swap_pos],
        "swapped_cards": [int(deck.image[0]), hint],
        "first_locker_after_swap": int(after.image[0]),
        "locker_sweep_successes": locker.successes,
    })]


_DISPATCH = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "pmf": _cmd_pmf,
    "dist": _cmd_dist,
    "field": _cmd_field,
    "structure": _cmd_structure,
    "dedup": _cmd_dedup,
    "example52": _cmd_example52,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = _integer(os.environ.get("PERMLAB_SEED", "0"),
                                 "PERMLAB_SEED")
        lines = _DISPATCH[args.command](args)
        print(*lines, sep="\n")   # each line once, never joined
        return 0
    except GuardRefusal as exc:
        lift = isinstance(exc, TooLargeForEnumeration) and "guard" in args
        hint = "; re-run with a larger --guard" if lift else ""
        print(f"refused: {exc}{hint}", file=sys.stderr)
        return 3
    except (PermlabError, OSError) as exc:   # OSError: a file to read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
