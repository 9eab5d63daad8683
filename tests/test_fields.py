"""Partition magnets, fields, the exhaustive field search, and deduplication."""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from permlab import fields
from permlab.errors import (GuardRefusal, MalformedPartition, NotABijection,
                            ParameterOutOfRange, TooLargeForEnumeration)
from permlab.fields import (PartitionStrategy, aic_check, brute_force_field,
                            class_members, deduplicate_magnets,
                            field_of_partition, partition_from_hint,
                            success_upper_bound)
from permlab.perms import Permutation
from permlab.rng import Rng, derive_seed
from permlab.strategies import evaluate_success_exact, naive_strategy

F3_BY_M = {1: 6, 2: 10, 3: 12, 4: 14, 5: 16, 6: 18}  # from the search itself
# the first optimum the (4, 2) search meets, recorded from the recursive
# search with per-cell magneticity lists that the packed search replaced
WITNESS_N4M2 = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1)


def reference_field_search(n, m, restriction=None, budget=2_000_000):
    """The recursive search with per-cell magneticity lists, kept as the
    oracle: (field, nodes, witness assignment)."""
    perms = list(itertools.permutations(range(n)))
    total = len(perms)

    mag = [[[0] * n for _ in range(n)] for _ in range(m)]
    intensity = [[0] * n for _ in range(m)]
    assignment = [0] * total
    best_field = -1
    best_assignment = None
    nodes = 0

    def push(idx, h):
        gained = 0
        raised = []
        mh, ih = mag[h], intensity[h]
        for i, k in enumerate(perms[idx]):
            cell = mh[i]
            cell[k] += 1
            if cell[k] > ih[k]:
                ih[k] += 1
                gained += 1
                raised.append(k)
        return gained, raised

    def pop(idx, h, raised):
        mh, ih = mag[h], intensity[h]
        for i, k in enumerate(perms[idx]):
            mh[i][k] -= 1
        for k in raised:
            ih[k] -= 1

    def leaf_ok():
        if restriction != "aic":
            return True
        classes = [[] for _ in range(m)]
        for rank, h in enumerate(assignment):
            classes[h].append(perms[rank])
        nonempty = [c for c in classes if c]
        return any(all(any(all(img[i] != s for img in c) for c in nonempty)
                       for i in range(n)) for s in range(n))

    def dfs(depth, field, used):
        nonlocal best_field, best_assignment, nodes
        if depth == total:
            if field > best_field and leaf_ok():
                best_field = field
                best_assignment = tuple(assignment)
            return
        if field + n * (total - depth) <= best_field:
            return
        limit = min(m, used + 1)
        for h in range(limit):
            nodes += 1
            if nodes > budget:
                raise GuardRefusal(f"field search exceeded {budget} nodes")
            gained, raised = push(depth, h)
            assignment[depth] = h
            dfs(depth + 1, field + gained, max(used, h + 1))
            pop(depth, h, raised)
        assignment[depth] = 0

    dfs(0, 0, 0)
    if best_assignment is None:
        raise RuntimeError("search found no admissible partition")
    return best_field, nodes, best_assignment


def naive_partition(n):
    return partition_from_hint(n, n, lambda p: p.image[0])


def single_class_partition(n, m=1):
    return PartitionStrategy(n, m, (0,) * factorial(n))


def singleton_partition(n):
    total = factorial(n)
    return PartitionStrategy(n, total, tuple(range(total)))


# partitions with the labels that hold no permutation
EMPTY_LABELS = [(single_class_partition(3, m=2), (1,)),
                (PartitionStrategy(3, 4, (0, 0, 0, 2, 2, 2)), (1, 3))]


class TestPartitionSerialization:
    def test_round_trip(self):
        part = naive_partition(3)
        again = PartitionStrategy.from_json(part.to_json())
        assert again == part

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^assignment length 5 != 3!$"):
            PartitionStrategy(3, 2, (0,) * 5)      # wrong length
        with pytest.raises(ParameterOutOfRange,
                           match=r"^class indices must lie in 0\.\.1$"):
            PartitionStrategy(3, 2, (0, 0, 0, 0, 0, 2))  # class out of range

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_refused(self, n):
        # refused when built, not by a division or a factorial in a score
        with pytest.raises(ParameterOutOfRange,
                           match=f"^partition order n={n} is not positive$"):
            success_upper_bound(PartitionStrategy(n, 1, (0,)))

    @pytest.mark.parametrize("text", [
        "{not json",
        "[0, 1]",
        '{"n": 3, "assignment": [0, 0, 0, 0, 0, 0]}',
        '{"n": 3, "m": "2", "assignment": [0, 0, 0, 0, 0, 0]}',
        '{"n": 3.0, "m": 2, "assignment": [0, 0, 0, 0, 0, 0]}',
        '{"n": 3, "m": true, "assignment": [0, 0, 0, 0, 0, 0]}',
        '{"n": 3, "m": 2, "assignment": {"0": 0}}',
        '{"n": 3, "m": 2, "assignment": [0, 0, 0, 0, 0, null]}',
        '{"n": -1, "m": 2, "assignment": [0]}',
        '{"n": 0, "m": 1, "assignment": [0]}',
        '{"n": 3, "m": 2, "assignment": [0, 0, 1, 1, 1, 1' + "0" * 5000 + "]}",
    ], ids=["not-json", "array", "no-m", "m-string", "n-float", "m-bool",
            "assignment-object", "assignment-null", "n-negative", "n-zero",
            "5000-digit-entry"])
    def test_from_json_rejects_malformed(self, text):
        with pytest.raises(MalformedPartition):
            PartitionStrategy.from_json(text)


class TestField:
    def test_naive_n3(self):
        assert field_of_partition(naive_partition(3)) == 12

    def test_naive_is_twice_factorial(self):
        for n in range(2, 6):
            assert field_of_partition(naive_partition(n)) == 2 * factorial(n)

    def test_single_class_is_factorial(self):
        for n in range(1, 6):
            assert field_of_partition(single_class_partition(n)) == factorial(n)

    def test_singletons_full_information(self):
        for n in range(1, 5):
            assert field_of_partition(singleton_partition(n)) == n * factorial(n)

    def test_empty_labels_are_not_classes(self):
        # labels that hold no permutation are not listed as classes
        for part, empty in EMPTY_LABELS:
            assert set(class_members(part)).isdisjoint(empty)

    def test_upper_bound_values(self):
        assert success_upper_bound(naive_partition(3)) == Fraction(2, 3)
        assert success_upper_bound(single_class_partition(4)) == Fraction(1, 4)
        assert success_upper_bound(singleton_partition(4)) == 1

    def test_bound_tight_for_naive(self):
        for n in range(2, 7):
            bound = success_upper_bound(naive_partition(n))
            exact = evaluate_success_exact(naive_strategy(n)).overall
            assert bound == exact == Fraction(2, n)


class TestBruteForce:
    def test_one_class(self):
        assert brute_force_field(3, 1).field == 6

    def test_diagonal_n3(self):
        result = brute_force_field(3, 3)
        assert result.field == 12
        # independent re-score of the witness by its classes' intensities
        assert field_of_partition(result.witness) == 12

    def test_m_sweep_regression(self):
        for m, expect in F3_BY_M.items():
            assert brute_force_field(3, m).field == expect

    def test_aic_restricted_n3(self):
        result = brute_force_field(3, 3, restriction="aic")
        assert result.field == 12 == 2 * factorial(3)
        assert aic_check(result.witness)

    def test_unknown_restriction_refused(self):
        with pytest.raises(ParameterOutOfRange,
                           match="^unknown restriction 'x'$"):
            brute_force_field(3, 3, restriction="x")

    @pytest.mark.parametrize("call, what", [
        (lambda: brute_force_field(3.0, 2), "n, m or budget"),
        (lambda: brute_force_field(3, True), "n, m or budget"),
        (lambda: brute_force_field(3, 2, budget=1.5), "n, m or budget"),
        (lambda: brute_force_field(3, 2, guard=True), "guard"),
        (lambda: partition_from_hint(3.0, 2, lambda p: 0), "n"),
    ], ids=["search-n-float", "search-m-bool", "search-budget-float",
            "search-guard-bool", "hint-partition-n-float"])
    def test_integer_arguments_read(self, call, what):
        # read where they are received: no search runs, no traceback
        with pytest.raises(ParameterOutOfRange,
                           match=f"^{what} holds a non-integer$"):
            call()

    def test_every_partition_below_max_n3(self):
        best = brute_force_field(3, 3).field
        for assignment in itertools.product(range(3), repeat=6):
            part = PartitionStrategy(3, 3, assignment)
            assert field_of_partition(part) <= best

    def test_sampled_partitions_below_max_n4(self):
        result = brute_force_field(4, 2, budget=10_000_000)
        best = result.field
        assert best == 40
        assert result.nodes == 6_084_377
        assert result.witness.assignment == WITNESS_N4M2
        rng = Rng(derive_seed(77, 0))
        for _ in range(30):
            assignment = tuple(rng.randbelow(2) for _ in range(24))
            part = PartitionStrategy(4, 2, assignment)
            assert field_of_partition(part) <= best

    def test_budget_refusal(self):
        with pytest.raises(GuardRefusal,
                           match="^field search exceeded 10 nodes; re-run"):
            brute_force_field(3, 3, budget=10)

    def test_budget_boundary(self):
        # (3, 3) visits 128 nodes: a budget of 127 refuses, 128 completes
        with pytest.raises(GuardRefusal,
                           match="^field search exceeded 127 nodes; re-run"):
            brute_force_field(3, 3, budget=127)
        assert brute_force_field(3, 3, budget=128).nodes == 128

    @pytest.mark.parametrize("restriction", [None, "aic"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_search(self, n, m, restriction):
        try:
            want = reference_field_search(n, m, restriction)
        except RuntimeError:
            # no partition passes aic; the search now refuses up front
            with pytest.raises(ParameterOutOfRange):
                brute_force_field(n, m, restriction)
            return
        got = brute_force_field(n, m, restriction)
        assert (got.field, got.nodes, got.witness.assignment) == want
        assert field_of_partition(got.witness) == got.field

    @pytest.mark.parametrize("budget", [1, 40, 100, 127, 128])
    @pytest.mark.parametrize("restriction", [None, "aic"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_budget_matches_reference(self, m, restriction, budget):
        def outcome(search):
            try:
                return search(3, m, restriction, budget=budget)
            except GuardRefusal:
                return "refused"
        got = outcome(brute_force_field)
        want = outcome(reference_field_search)
        if got != "refused":
            got = (got.field, got.nodes, got.witness.assignment)
        assert got == want

    @pytest.mark.parametrize("n, m", [(3, 0), (3, -1), (0, 2), (-1, 2)])
    def test_rejects_empty_order_or_class_count(self, n, m):
        with pytest.raises(ParameterOutOfRange):
            brute_force_field(n, m)

    def test_guard_refusal(self):
        with pytest.raises(TooLargeForEnumeration):
            brute_force_field(9, 2, guard=8)

    @pytest.mark.parametrize("n, m, restriction", [
        (7, 2, None), (8, 2, None), (7, 2, "aic"), (8, 2, "aic"),
        (7, 1, None), (9, 3, None)])
    def test_recursion_refused_before_the_search(self, n, m, restriction):
        # the walk recurses once per permutation: 5040 levels at n = 7 pass
        # the interpreter's limit of 1000, so the search refuses at once
        # rather than end in a RecursionError; no guard or budget lifts it
        start = time.perf_counter()
        with pytest.raises(GuardRefusal, match=(
                f"^the field search at n={n} recurses once per permutation, "
                f"past the recursion limit of "
                f"{sys.getrecursionlimit()}$")) as info:
            brute_force_field(n, m, restriction, guard=9)
        assert type(info.value) is GuardRefusal
        assert time.perf_counter() - start < 1.0

    def test_n6_still_searches(self):
        # 720 levels stay under the limit: n = 6 walks until its budget
        with pytest.raises(GuardRefusal,
                           match="^field search exceeded 1000 nodes; re-run"):
            brute_force_field(6, 2, budget=1000)


def search_outcome(n, m, restriction=None, budget=2_000_000,
                   search=brute_force_field):
    """(field, nodes, witness assignment), or the refusal text."""
    try:
        got = search(n, m, restriction, budget=budget)
    except GuardRefusal as exc:
        return str(exc)
    if not hasattr(got, "witness"):   # the reference search's plain tuple
        return got
    return got.field, got.nodes, got.witness.assignment


@pytest.fixture(params=[4, 16])
def bulk_exits(request, monkeypatch):
    """Count subtrees in bulk from a few potential leaves up, so searches at
    n <= 3 with m <= 3 reach the bulk count; collects how each bulk count
    ended and how many ranks it had left."""
    monkeypatch.setattr(fields, "BULK_LEAVES", request.param)
    exits = []
    count = fields._bulk_count

    def spy(*args):
        got = count(*args)
        if got is not None:
            kind = "counted"
        elif count(*args[:-1], 1 << 62) is None:   # the last is the room
            kind = "beaten"
        else:
            kind = "budget"
        exits.append((kind, len(args[0])))   # the first holds the ranks left
        return got

    monkeypatch.setattr(fields, "_bulk_count", spy)
    return exits


# run under a 1 GB address-space limit, so a search that sized its class
# lists by m fails with MemoryError rather than filling the machine
_BILLION_LABELS = """
import json, resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from permlab.fields import brute_force_field
tracemalloc.start()
got = brute_force_field(3, 10 ** 9, sys.argv[1] or None)
print(json.dumps([got.field, got.nodes, got.witness.assignment,
                  got.witness.m, tracemalloc.get_traced_memory()[1]]))
"""


class TestLabelsPastNFactorial:
    """First-use labels never reach past n!, so a larger m changes nothing
    but the witness's m."""

    @pytest.mark.parametrize("restriction", [None, "aic"])
    @pytest.mark.parametrize("n, m", [(2, 3), (2, 100), (2, 10 ** 5),
                                      (3, 7), (3, 100), (3, 10 ** 5)])
    def test_same_search_as_m_n_factorial(self, n, m, restriction):
        got = brute_force_field(n, m, restriction)
        want = brute_force_field(n, factorial(n), restriction)
        assert (got.field, got.nodes, got.witness.assignment) == (
            want.field, want.nodes, want.witness.assignment)
        assert got.witness.m == m

    @pytest.mark.parametrize("restriction", [None, "aic"])
    def test_a_billion_labels_in_bounded_memory(self, restriction):
        proc = subprocess.run(
            [sys.executable, "-c", _BILLION_LABELS, restriction or ""],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        field, nodes, assignment, m, peak = json.loads(proc.stdout)
        want = brute_force_field(3, 6, restriction)
        assert (field, nodes, tuple(assignment)) == (
            want.field, want.nodes, want.witness.assignment)
        assert m == 10 ** 9
        assert peak < 32 << 20


class TestBulkCount:
    """The fixed-incumbent bulk count against the walk-only oracle."""

    @pytest.mark.parametrize("restriction", [None, "aic"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_search(self, bulk_exits, n, m, restriction):
        if restriction == "aic" and (n < 2 or m < 2):
            return   # refused up front, see TestBruteForce
        got = search_outcome(n, m, restriction)
        assert got == search_outcome(n, m, restriction,
                                     search=reference_field_search)
        if restriction == "aic" or m in (1, 4):   # m = 4: four labels
            assert bulk_exits == []

    @pytest.mark.parametrize("budget", [1, 40, 100, 127, 128])
    @pytest.mark.parametrize("restriction", [None, "aic"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_budget_matches_reference(self, bulk_exits, m, restriction,
                                      budget):
        got = search_outcome(3, m, restriction, budget)
        want = search_outcome(3, m, restriction, budget,
                              search=reference_field_search)
        if isinstance(want, str):   # the oracle's text lacks the advice
            assert got == f"{want}; re-run with a larger --budget"
        else:
            assert got == want

    def test_every_exit_taken(self, bulk_exits):
        kinds = set()
        for m in (2, 3, 4):
            for budget in (40, 100, 2_000_000):
                search_outcome(3, m, budget=budget)
            # a level holds fewer than BULK_LEAVES rows, whatever m is
            assert all(m ** (r - 1) < fields.BULK_LEAVES
                       for _, r in bulk_exits)
            kinds.update(kind for kind, _ in bulk_exits)
            bulk_exits.clear()
        assert kinds == {"counted", "beaten", "budget"}

    @pytest.mark.parametrize("bulk_exits", [16], indirect=True)
    def test_counted_again_below_a_takeback(self, bulk_exits):
        # the walk tries the bulk count again at each child of a subtree it
        # took back: in the (4, 2) search the second count, two ranks from
        # the leaves, is beaten, and the third, at its first child, counted
        search_outcome(4, 2, budget=100)
        assert bulk_exits[1:3] == [("beaten", 2), ("counted", 1)]


@pytest.fixture(params=["bulk", "walk"])
def bulk_on_off(request, monkeypatch):
    """The search as it is, and with no subtree large enough to count in
    bulk."""
    if request.param == "walk":
        monkeypatch.setattr(fields, "BULK_LEAVES", 1 << 200)


def walked_count(cells, width, ones, tops, deficits, field, best, room):
    """What the walk visits below a node where every label is open, on
    per-cell deficits unpacked from ``_bulk_count``'s arguments: its node
    count, or None where a leaf beats ``best`` or the count passes
    ``room``."""
    n, top = len(cells[0]), 1 << (width - 1)
    # deficit[h][i][k]; element k's n fields fill a 16-bit lane at n <= 4
    deficit = [[[(d >> (k * 16 + i * width)) % top for k in range(n)]
                for i in range(n)] for d in deficits]
    images = [[k for _, k in row] for row in cells]
    count = 0

    def walk(depth, field):
        nonlocal count
        img, last = images[depth], depth == len(images) - 1
        for d in deficit:
            count += 1
            if count > room:
                return False
            child = field + sum(d[i][k] == 0 for i, k in enumerate(img))
            if last:
                if child > best:
                    return False
                continue
            if child + n * (len(images) - depth - 1) <= best:
                continue
            saved = [row[:] for row in d]
            for i, k in enumerate(img):
                if d[i][k]:
                    d[i][k] -= 1
                else:   # a tight cell raises k's intensity
                    for other in range(n):
                        if other != i:
                            d[other][k] += 1
            ok = walk(depth + 1, child)
            d[:] = saved
            if not ok:
                return False
        return True

    return count if walk(0, field) else None


class TestBulkCountN4:
    @pytest.mark.parametrize("m, budget, calls", [(2, 10 ** 5, 113),
                                                  (3, 10 ** 5, 226)])
    def test_each_count_is_the_walks(self, monkeypatch, m, budget, calls):
        # every bulk count, counted, beaten or over budget, against a plain
        # walk of its subtree, and the outcome against the walk alone
        count = fields._bulk_count
        kinds = []

        def spy(*args):
            got = count(*args)
            assert got == walked_count(*args)
            kinds.append("counted" if got is not None else "back")
            return got

        monkeypatch.setattr(fields, "_bulk_count", spy)
        got = search_outcome(4, m, budget=budget)
        monkeypatch.setattr(fields, "BULK_LEAVES", 1 << 200)
        assert got == search_outcome(4, m, budget=budget)
        assert len(kinds) == calls and set(kinds) == {"counted", "back"}

    @pytest.mark.parametrize("m, field, nodes", [
        (21, 90, 773_771), (22, 92, 26_381), (23, 94, 3_886)])
    def test_four_labels_or_more_only_walk(self, monkeypatch, m, field,
                                           nodes):
        # four labels or more: the walk alone; the witness puts the first
        # 25 - m ranks in class 0 and each later rank in a class of its own
        calls = []
        monkeypatch.setattr(fields, "_bulk_count",
                            lambda *args: calls.append(args))
        witness = (0,) * (25 - m) + tuple(range(1, m))
        assert search_outcome(4, m) == (field, nodes, witness)
        assert calls == []

    @pytest.mark.parametrize("budget", [10 ** 5, 10 ** 6])
    def test_refusals_at_n4m3(self, bulk_on_off, budget):
        assert search_outcome(4, 3, budget=budget) == (
            f"field search exceeded {budget} nodes; "
            f"re-run with a larger --budget")

    def test_budget_edge_at_n4m2(self, bulk_on_off):
        assert search_outcome(4, 2, budget=6_084_376) == (
            "field search exceeded 6084376 nodes; "
            "re-run with a larger --budget")
        assert search_outcome(4, 2, budget=6_084_377) == (
            40, 6_084_377, WITNESS_N4M2)

    def test_restricted_search_walks(self, bulk_exits):
        assert search_outcome(4, 2, "aic", budget=10 ** 5).startswith(
            "field search exceeded 100000 nodes")
        assert bulk_exits == []


def random_cover(n, classes, seed):
    """Random disjoint classes covering the full group (possibly empty ones)."""
    rng = Rng(derive_seed(seed, 0))
    cover = [[] for _ in range(classes)]
    for img in itertools.permutations(range(n)):
        cover[rng.randbelow(classes)].append(Permutation(img))
    return cover


def intensity_vector(members, n):
    """Independent recomputation of per-element intensities for a class."""
    out = []
    for k in range(n):
        best = 0
        for i in range(n):
            best = max(best, sum(1 for img in members if img[i] == k))
        out.append(best)
    return tuple(out)


class TestDeduplicateMagnets:
    def test_already_distinct_untouched(self):
        cls = [Permutation((0, 1, 2))]
        result = deduplicate_magnets([cls])
        assert result.steps == ()
        assert result.classes == ((Permutation((0, 1, 2)),),)

    def test_mixed_orders_refused(self):
        with pytest.raises(NotABijection,
                           match="^class 1 mixes permutation orders$"):
            deduplicate_magnets([[(0, 1)], [(0, 1, 2), (1, 0)]])

    def test_two_member_class(self):
        result = deduplicate_magnets([[(0, 1, 2), (0, 2, 1)]])
        members = result.classes[0]
        assert len(members) == 2
        assert len(result.steps) >= 1
        assert sorted(result.final_magnets[0]) == [0, 1, 2]
        for step in result.steps:
            assert step.intensities_after >= step.intensities_before

    def test_properties_on_random_covers(self):
        n = 4
        for seed in range(20):
            cover = random_cover(n, 4, seed)
            sizes = [len(c) for c in cover]
            result = deduplicate_magnets(cover)
            assert [len(c) for c in result.classes] == sizes
            assert len(result.steps) <= n * factorial(n)
            # no intensity ever decreases, step over step
            for step in result.steps:
                assert all(a >= b for a, b in zip(step.intensities_after,
                                                  step.intensities_before))
            # each nonempty class ends with n pairwise distinct magnets,
            # every designated magnet attaining that element's intensity
            for members, magnets in zip(result.classes, result.final_magnets):
                if not members:
                    assert magnets is None
                    continue
                assert sorted(magnets) == list(range(n))
                imgs = [p.image for p in members]
                for k in range(n):
                    cols = [sum(1 for img in imgs if img[i] == k)
                            for i in range(n)]
                    assert cols[magnets[k]] == max(cols)

    def test_total_size_preserved_and_intensity_sum_grows(self):
        n = 4
        for seed in range(5):
            cover = random_cover(n, 4, seed + 100)
            before = sum(sum(intensity_vector([p.image for p in c], n))
                         for c in cover if c)
            result = deduplicate_magnets(cover)
            after = sum(sum(intensity_vector([p.image for p in c], n))
                        for c in result.classes if c)
            assert after >= before
