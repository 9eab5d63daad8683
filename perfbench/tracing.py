"""The traced run: per-layer metrics from in-process calls into each module.

Spans are recorded from this file only. Public functions at the layer
boundaries are wrapped for the duration of the run (every module attribute
bound to the original is swapped, so ``from .x import f`` callers see the
wrapper too); the suite below also opens spans around its own loops. Each
span holds its name, a tag, start, end and its parent. They stay in memory
and are written to ``.work/spans.json`` when the run ends.

A layer's self time is the time of its spans minus the time covered by their
child spans. Per-permutation helpers (``perms``, strategy hints) are not
wrapped: a span per call would cost more than the call. Their time counts
toward the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from math import factorial

import workloads as W

LANES = 2048


class Tracer:
    """In-memory span log: [name, tag, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, tag, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def durations(self, name: str, since: int = 0, tag=None) -> list[float]:
        return [end - start for n, t, start, end, _ in self.spans[since:]
                if n == name and (tag is None or t == tag)]

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans[since:], since):
            own[name] += end - start - child[i]
        return dict(own)

    def dump(self, path) -> None:
        path.write_text(json.dumps(
            [{"name": n, "tag": t, "start": s, "end": e, "parent": p}
             for n, t, s, e, p in self.spans]) + "\n")


def _permlab_modules():
    return [m for name, m in sys.modules.items()
            if name == "permlab" or name.startswith("permlab.")]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer-boundary functions in spans; restore them on exit."""
    import permlab.counting as counting
    import permlab.cli as cli
    import permlab.enumeration as enumeration
    import permlab.fields as fields
    import permlab.reporting as reporting
    import permlab.rng as rng
    import permlab.simulate as simulate
    import permlab.strategies as strategies
    import permlab.structures as structures

    def perm_tag(args, kwargs):
        return [args[0].lanes, args[1]]

    targets = [
        ("rng", rng, "batch_seeds", None),
        ("rng", rng, "derive_seed", None),
        ("rng", rng.BatchRng, "permutations", perm_tag),
        ("rng", rng.Rng, "shuffle", None),
        ("simulate", simulate, "simulate_needle", None),
        ("simulate", simulate, "simulate_locker", None),
        ("strategies", strategies, "evaluate_success_exact", None),
        ("enumeration", enumeration, "perm_matrix", None),
        ("enumeration", enumeration, "displacement_matrix", None),
        ("structures", structures, "count_exact_displacements", None),
        ("structures", structures, "joint_shift_pmf", None),
        ("structures", structures, "covariance_estimate", None),
        ("fields", fields, "brute_force_field", None),
        ("counting", counting, "shift_count_pmf", None),
        ("counting", counting, "typical_max_shift", None),
        ("reporting", reporting, "dumps", None),
        ("cli", cli, "main", None),
    ]
    restore = []
    for layer, owner, attr, tagger in targets:
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"

        def wrapper(*args, _fn=original, _name=name, _tagger=tagger, **kwargs):
            tag = _tagger(args, kwargs) if _tagger else None
            with tracer.span(_name, tag):
                return _fn(*args, **kwargs)

        functools.update_wrapper(wrapper, original)
        holders = [owner] if isinstance(owner, type) else [
            m for m in _permlab_modules() if any(
                v is original for v in vars(m).values())]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    restore.append((holder, key, value))
                    setattr(holder, key, wrapper)
    try:
        yield
    finally:
        for holder, key, value in reversed(restore):
            setattr(holder, key, value)


class Suite:
    """The traced calls, their checks and the metrics derived from spans."""

    def __init__(self, seed: int):
        import permlab
        self.p = permlab
        self.seed = seed
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def mark(self) -> int:
        return len(self.tracer.spans)

    # -- rng ---------------------------------------------------------------

    def rng(self) -> None:
        p, tr = self.p, self.tracer
        mark = self.mark()
        for _ in range(50):
            seeds = p.rng.batch_seeds(self.seed, 0, LANES)
        self.put("rng.batch_seeds_ms",
                 1e3 * statistics.median(tr.durations("rng.batch_seeds", mark)),
                 "ms")
        mark = self.mark()
        for _ in range(50):
            batch = p.rng.BatchRng(seeds)
            with tr.span("rng.randbelow"):
                batch.randbelow(1000)
        self.put("rng.randbelow_ms",
                 1e3 * statistics.median(tr.durations("rng.randbelow", mark)),
                 "ms")
        for n, reps in ((64, 20), (1000, 5)):
            mark = self.mark()
            for _ in range(reps):
                perms = p.rng.BatchRng(seeds).permutations(n)
            self.put(f"rng.permutations_ms.n{n}", 1e3 * statistics.median(
                tr.durations("rng.permutations", mark)), "ms")
        # lane 7 of the batch must match the scalar stream draw for draw
        items = list(range(1000))
        p.rng.Rng(int(seeds[7])).shuffle(items)
        self.check("BatchRng lane equals Rng.shuffle at n=1000",
                   perms[7].tolist() == items)
        count, mark = 2000, self.mark()
        with tr.span("rng.scalar_shuffle_loop"):
            for t in range(count):
                p.rng.Rng(p.rng.derive_seed(self.seed, t)).shuffle(list(range(32)))
        loop = tr.durations("rng.scalar_shuffle_loop", mark)[0]
        self.put("rng.scalar_shuffle_us.n32", 1e6 * loop / count, "us")

    # -- simulate ----------------------------------------------------------

    def _needle(self, **fields):
        cfg = self.p.GameConfig(seed=self.seed, **fields)
        mark = self.mark()
        t0 = time.perf_counter()
        report = self.p.simulate.simulate_needle(cfg)
        return report, time.perf_counter() - t0, mark

    def _self_per_batch_ms(self, mark: int, trials: int) -> float:
        own = self.tracer.self_times(mark)["simulate.simulate_needle"]
        return 1e3 * own / -(-trials // LANES)

    def simulate(self) -> None:
        tr = self.tracer
        r1, w1, mark = self._needle(n=10000, trials=4096, workers=1)
        self.put("simulate.hint_score_ms.n10000",
                 self._self_per_batch_ms(mark, 4096), "ms")
        self.put("rng.permutations_ms.n10000", 1e3 * statistics.median(
            tr.durations("rng.permutations", mark, [LANES, 10000])),
            "ms")
        r2, w2, _ = self._needle(n=10000, trials=4096, workers=2)
        self.check("simulate_needle identical at workers 1 and 2", r1 == r2)
        self.put("simulate.pool_speedup_2w", w1 / w2, "ratio")

        trials = 20 * LANES
        _, _, mark = self._needle(n=64, trials=trials, target_mode="sweep")
        self.put("simulate.sweep_score_ms.n64",
                 self._self_per_batch_ms(mark, trials), "ms")

        square = self.p.LatinSquare.cyclic(32)
        latin, took, _ = self._needle(
            n=32, trials=2000, strategy=self.p.latin_strategy(square))
        self.put("simulate.scalar_trial_us.latin32", 1e6 * took / 2000, "us")
        shift, _, _ = self._needle(n=32, trials=2000)
        self.check("latin32 (scalar) successes equal shift (vector) successes",
                   latin.successes == shift.successes)

    # -- perms -------------------------------------------------------------

    def perms(self) -> None:
        p, tr = self.p, self.tracer
        images = []
        for t in range(5000):
            items = list(range(8))
            p.rng.Rng(p.rng.derive_seed(self.seed, t)).shuffle(items)
            images.append(tuple(items))
        mark = self.mark()
        with tr.span("perms.Permutation"):
            objs = [p.Permutation(img) for img in images]
        with tr.span("perms.shift_histogram"):
            hists = [p.shift_histogram(q) for q in objs]
        self.check("shift histograms sum to n",
                   all(sum(h.counts) == 8 for h in hists))
        for name, metric in (("perms.Permutation", "perms.permutation_ctor_us.n8"),
                             ("perms.shift_histogram", "perms.shift_histogram_us.n8")):
            loop = tr.durations(name, mark)[0]
            self.put(metric, 1e6 * loop / len(images), "us")

    # -- strategies ----------------------------------------------------------

    def strategies(self) -> None:
        p = self.p
        total = 0.0
        for name, make, want in (("shift", p.shift_strategy, Fraction(7627, 24192)),
                                 ("naive", p.naive_strategy, Fraction(2, 9))):
            t0 = time.perf_counter()
            ev = p.strategies.evaluate_success_exact(make(9), guard=9)
            took = time.perf_counter() - t0
            total += took
            self.check(f"exact {name} at n=9 is {want}", ev.overall == want)
            self.put(f"strategies.exact_eval_s.{name}_n9", took, "s")
        self.put("strategies.rows_per_s", 2 * factorial(9) * 9 / total, "1/s")

    # -- enumeration and cli (fresh processes) -------------------------------

    _COLD = ("import json, time\n"
             "t0 = time.perf_counter()\n"
             "import permlab.cli\n"
             "t1 = time.perf_counter()\n"
             "from permlab import enumeration\n"
             "t2 = time.perf_counter()\n"
             "m = enumeration.{fn}(10)\n"
             "t3 = time.perf_counter()\n"
             "print(json.dumps({{'import_s': t1 - t0, 'build_s': t3 - t2,"
             " 'nbytes': m.nbytes}}))\n")

    def enumeration(self) -> None:
        env = W.command_env()
        imports = []
        for fn, dtype_bytes in (("perm_matrix", 1), ("displacement_matrix", 2)):
            builds = []
            for _ in range(3):
                out = subprocess.run([sys.executable, "-c", self._COLD.format(fn=fn)],
                                     capture_output=True, text=True, env=env,
                                     cwd=W.ROOT, timeout=120, check=True)
                row = json.loads(out.stdout)
                imports.append(row["import_s"])
                builds.append(row["build_s"])
            self.check(f"{fn}(10) holds 10!*10 entries of {dtype_bytes} byte(s)",
                       row["nbytes"] == factorial(10) * 10 * dtype_bytes)
            self.put(f"enumeration.{fn}_s.n10", statistics.median(builds), "s")
        # computed, not measured: the int8 and int16 (10!, 10) matrices
        self.put("enumeration.bytes_computed.n10", factorial(10) * 10 * 3, "bytes")
        self.put("cli.import_s", statistics.median(imports), "s")

    # -- structures ----------------------------------------------------------

    def structures(self) -> None:
        p = self.p
        S = p.structures
        cache = p.enumeration._matrix_cache
        cache.clear()   # cold, as each CLI command sees it
        t0 = time.perf_counter()
        count = S.count_exact_displacements(p.IndexSet.of(10, (0,)),
                                            p.IndexSet.of(10, (2,)), 1)
        self.put("structures.phi_s.n10", time.perf_counter() - t0, "s")
        self.check("phi(n=10, I={0}, J={2}, s=1) is 6200", count == 6200)
        cache.clear()
        t0 = time.perf_counter()
        prob = S.joint_shift_pmf(10, 0, 1, 1)
        self.put("structures.joint_s.n10", time.perf_counter() - t0, "s")
        self.check("joint(n=10, i=0, j=1, t=1) is 49/360", prob == Fraction(49, 360))
        cache.clear()
        # n=2000 is the ROADMAP size; the CLI cannot print this report
        # (its exact marginal overflows int->str), so the call is timed here.
        trials = 2 * 4096
        t0 = time.perf_counter()
        stat = S.covariance_estimate(2000, 1, 0, 1, trials=trials, seed=self.seed)
        self.put("structures.cov_sampled_s.n2000", time.perf_counter() - t0, "s")
        marginal = float(stat.exact_marginal)
        se = (marginal * (1 - marginal) / trials) ** 0.5
        self.check("cov n=2000 marginals within 6 standard errors",
                   abs(stat.e_zi - marginal) < 6 * se
                   and abs(stat.e_zj - marginal) < 6 * se)

    # -- fields ----------------------------------------------------------------

    def fields(self) -> None:
        p = self.p
        t0 = time.perf_counter()
        big = p.fields.brute_force_field(4, 2, budget=10_000_000)
        took = time.perf_counter() - t0
        small = p.fields.brute_force_field(3, 3, restriction="aic")
        self.check("field (4,2) is 40 after 6084377 nodes",
                   (big.field, big.nodes) == (40, 6084377))
        self.check("field (3,3,aic) is 12 after 128 nodes",
                   (small.field, small.nodes) == (12, 128))
        self.put("fields.nodes.n4m2", big.nodes, "count")
        self.put("fields.nodes.n3m3aic", small.nodes, "count")
        self.put("fields.search_s.n4m2", took, "s")
        self.put("fields.nodes_per_s", big.nodes / took, "1/s")

    # -- reporting and cli -----------------------------------------------------

    def reporting(self) -> None:
        p, tr = self.p, self.tracer
        report, _, _ = self._needle(n=1000, trials=LANES, target_mode="sweep")
        mark = self.mark()
        for _ in range(5):
            text = p.reporting.dumps(report)
        self.put("reporting.dumps_ms",
                 1e3 * statistics.median(tr.durations("reporting.dumps", mark)),
                 "ms")
        self.check("sweep report has 1000 targets",
                   len(json.loads(text)["per_target"]) == 1000)

    def cli(self) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.p.cli.main(["simulate", "needle", "--n", "256",
                                    "--trials", "4096", "--seed", str(self.seed),
                                    "--workers", "1"])
        lines = buf.getvalue().splitlines()
        self.check("cli.main exits 0 with two JSON lines",
                   code == 0 and len(lines) == 2
                   and json.loads(lines[1])["trials"] == 4096)

    # -- tracing overhead ------------------------------------------------------

    def _probe(self) -> float:
        p = self.p
        t0 = time.perf_counter()
        for cfg in (p.GameConfig(n=32, trials=2000, seed=self.seed,
                                 strategy=p.latin_strategy(p.LatinSquare.cyclic(32))),
                    p.GameConfig(n=64, trials=8 * LANES, seed=self.seed,
                                 target_mode="sweep")):
            p.simulate.simulate_needle(cfg)
        return time.perf_counter() - t0

    def overhead(self) -> None:
        """Traced minus untraced wall time of the same calls, ABBA order."""
        probe = Tracer()
        plain, traced = [], []
        for order in ((False, True), (True, False)):
            for on in order:
                if on:
                    with instrumented(probe):
                        traced.append(self._probe())
                else:
                    plain.append(self._probe())
        self.put("trace.overhead_s", sum(traced) / 2 - sum(plain) / 2, "s")
        self.put("trace.overhead_ratio", sum(traced) / sum(plain), "ratio")
        self.put("trace.probe_spans", len(probe.spans) / 2, "count")

    def run(self) -> dict:
        steps = (self.rng, self.simulate, self.perms, self.strategies,
                 self.enumeration, self.structures, self.fields,
                 self.reporting, self.cli)
        with instrumented(self.tracer):
            for step in steps:
                t0 = time.perf_counter()
                try:
                    step()
                except Exception:   # report the failure, keep the other layers
                    traceback.print_exc()
                    self.check(f"traced step {step.__name__} raised", False)
                print(f"  {step.__name__:12s} {time.perf_counter() - t0:8.3f} s",
                      file=sys.stderr, flush=True)
        shuffles = [(t, end - start) for n, t, start, end, _ in self.tracer.spans
                    if n == "rng.permutations"]
        self.put("rng.draws_per_s",
                 sum(lanes * (n - 1) for (lanes, n), _ in shuffles)
                 / sum(d for _, d in shuffles), "1/s")
        layers = defaultdict(float)
        for name, own in self.tracer.self_times().items():
            layers[name.split(".")[0]] += own
        for layer in ("rng", "perms", "simulate", "strategies", "enumeration",
                      "structures", "fields", "counting", "reporting", "cli"):
            self.put(f"{layer}.self_s", layers[layer], "s")
        self.overhead()
        self.tracer.dump(W.WORK / "spans.json")
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": len(self.problems),
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in sorted(self.metrics.items())}}


def run_traced(seed: int) -> dict:
    return Suite(seed).run()
