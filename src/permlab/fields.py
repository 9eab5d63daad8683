"""Partition view of advice strategies: magnets, intensities, fields.

A deterministic advice function is the same thing as a partition of all n!
permutations into m classes (class h = permutations that elicit message h).
For a class C, element k and position i:

* magneticity mag(C, i, k) = number of members of C placing k at i;
* the magnet of k is the position with the greatest magneticity (ties go to
  the lowest position);
* the intensity of k is that greatest magneticity.

The field of a partition is the sum of all its intensities; (field / n!) / n
bounds the success probability of the corresponding strategy from above.
``brute_force_field`` maximizes the field over all partitions by exhaustive
branch-and-bound search, optionally restricted to partitions that obey the
Alice-In-Chains rule.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .enumeration import SWEEP_GUARD, check_guard, factorial_past
from .errors import (GuardRefusal, MalformedPartition, NotABijection,
                     ParameterOutOfRange)
from .perms import Checked, Permutation, ints, make_permutation

DEFAULT_BUDGET = 2_000_000
BULK_LEAVES = 1 << 17   # potential leaves of a subtree the search counts in bulk


class PartitionStrategy(Checked, NamedTuple("PartitionStrategy", [
        ("n", int), ("m", int), ("assignment", tuple[int, ...])])):
    """Assignment of every permutation (by lex rank) to a class in 0..m-1."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, assignment: tuple[int, ...]):
        n, m, *assignment = ints((n, m, *assignment),
                                 ParameterOutOfRange, "the partition")
        if n < 1:
            raise ParameterOutOfRange(f"partition order n={n} is not positive")
        if len(assignment) != factorial_past(n, len(assignment)):
            raise ParameterOutOfRange(
                f"assignment length {len(assignment)} != {n}!")
        if m < 1 or min(assignment) < 0 or max(assignment) >= m:
            raise ParameterOutOfRange(f"class indices must lie in 0..{m - 1}")
        return super().__new__(cls, n, m, tuple(assignment))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "m": self.m, "assignment": list(self.assignment)})

    @classmethod
    def from_json(cls, text: str) -> "PartitionStrategy":
        try:
            data = json.loads(text)
        except ValueError as exc:   # bad JSON, or an int past str's digit limit
            raise MalformedPartition(
                f"partition file is not readable JSON: {exc}")
        if not (isinstance(data, dict)
                and isinstance(data.get("assignment"), list)):
            raise MalformedPartition('partition file must hold a JSON object '
                                     'with a list "assignment"')
        try:
            return cls(data.get("n"), data.get("m"), tuple(data["assignment"]))
        except ParameterOutOfRange as exc:
            raise MalformedPartition(str(exc))


def class_members(p: PartitionStrategy, guard: int = SWEEP_GUARD,
                  ) -> dict[int, list[tuple[int, ...]]]:
    """Image tuples of each used class by label, lex order within a class."""
    check_guard(p.n, guard, "listing a partition's classes")
    classes: dict[int, list[tuple[int, ...]]] = {}
    for h, img in zip(p.assignment, itertools.permutations(range(p.n))):
        classes.setdefault(h, []).append(img)
    return classes


def _magnetism(members: list[tuple[int, ...]], n: int,
               ) -> tuple[list[list[int]], list[int], list[int]]:
    """(mag[i][k], magnet[k], intensity[k]) for one class."""
    mag = [[0] * n for _ in range(n)]
    for img in members:
        for i, k in enumerate(img):
            mag[i][k] += 1
    magnets, intensities = [], []
    for k in range(n):
        column = [mag[i][k] for i in range(n)]
        best = max(column)
        magnets.append(column.index(best))
        intensities.append(best)
    return mag, magnets, intensities


def magneticity(p: PartitionStrategy, j: int, i: int, k: int,
                guard: int = SWEEP_GUARD) -> int:
    """How many members of class j place element k at position i."""
    j, i, k = ints((j, i, k), ParameterOutOfRange, "j, i or k")
    if not (0 <= j < p.m and 0 <= i < p.n and 0 <= k < p.n):
        raise ParameterOutOfRange(f"(j={j}, i={i}, k={k}) out of range")
    members = class_members(p, guard).get(j, ())
    return sum(1 for img in members if img[i] == k)


class MagnetTable(NamedTuple):
    """Per class j and element k: the magnet position and its intensity."""

    n: int
    m: int
    magnets: tuple[tuple[int, ...], ...]      # [j][k] -> position
    intensities: tuple[tuple[int, ...], ...]  # [j][k] -> count


def magnet_table(p: PartitionStrategy, guard: int = SWEEP_GUARD) -> MagnetTable:
    """One row per label; an empty class reads magnet 0, intensity 0."""
    empty = (0,) * p.n
    magnets, intensities = [empty] * p.m, [empty] * p.m
    for h, members in class_members(p, guard).items():
        _, mg, it = _magnetism(members, p.n)
        magnets[h], intensities[h] = tuple(mg), tuple(it)
    return MagnetTable(p.n, p.m, tuple(magnets), tuple(intensities))


def field_of_partition(p: PartitionStrategy, guard: int = SWEEP_GUARD) -> int:
    """Sum of the intensities of every element in every used class."""
    return sum(sum(_magnetism(members, p.n)[2])
               for members in class_members(p, guard).values())


def success_upper_bound(p: PartitionStrategy, guard: int = SWEEP_GUARD) -> Fraction:
    """(1/n) * field / n!: the best success probability the partition allows."""
    return Fraction(field_of_partition(p, guard),
                    p.n * factorial(p.n))


def aic_check(p: PartitionStrategy, guard: int = SWEEP_GUARD) -> bool:
    """Alice-In-Chains rule: some target s exists such that for every
    position i, some actually-used message class contains no permutation
    placing s at i.

    Empty classes are not valid warnings: a message that is never sent
    rules nothing out.
    """
    classes = class_members(p, guard).values()
    return any(all(any(all(img[i] != s for img in c) for c in classes)
                   for i in range(p.n)) for s in range(p.n))


def _bulk_count(cells: list[list[tuple[int, int]]], width: int, ones: int,
                tops: int, deficits: list[int], field: int, best: int,
                room: int) -> int | None:
    """Nodes of the field search below one node, counted in bulk, or None.

    The node leaves len(cells) ranks unassigned, and ``cells``, ``width``,
    ``ones`` and ``tops`` are the walk's for those ranks, in its layout with
    one 16-bit lane per element. ``deficits`` are the packed deficits of
    every class, each open to every row at every rank, and ``field`` is
    the node's field. A level is a set of rows, one per node: one uint64
    array of deficits per class and an array of the rows' fields, less n
    per rank assigned, so one floor serves every level. The incumbent
    ``best`` stays fixed, so the count equals the walk's when no leaf beats
    it; when one does, or when the count passes ``room``, the answer is
    None and the walk takes the node's children back.
    """
    import numpy as np
    u64 = np.uint64
    n = len(cells[0])
    ones_u, tops_u = u64(ones), u64(tops)
    fill = np.uint16(sum(1 << (i * width) for i in range(n)))
    classes = [np.array([d], dtype=u64) for d in deficits]
    scores = np.array([field], dtype=np.int64)
    # keep a child iff child + n * (ranks left) > best: its score >= floor;
    # on the last rank, a kept child is a leaf that beats the incumbent
    floor = best + 1 - n * len(cells)
    count = 0
    for left, rank in zip(range(len(cells) - 1, -1, -1), cells):
        count += len(scores) * len(classes)
        if count > room:
            return None
        mask = u64(sum(bit for bit, _ in rank) << (width - 1))
        # a push adds ones - cells, less the column of each cell whose
        # deficit is not 0 (mod 2**64): one lane per element, all n fields
        lift = u64(ones - sum(bit for bit, _ in rank))
        picks = []
        for deficit in classes:
            loose = deficit | tops_u
            loose -= ones_u
            loose &= mask   # top bits of the rank's cells not tight here
            after = scores - np.bitwise_count(loose)
            idx = (after >= floor).nonzero()[0]
            if not left and idx.size:
                return None
            spread = (loose[idx].view(np.uint16) != 0) * fill
            picks.append((idx, after[idx], lift - spread.view(u64)))
        src = np.concatenate([idx for idx, _, _ in picks])
        if not src.size:
            return count
        classes = [c[src] for c in classes]
        scores = np.concatenate([after for _, after, _ in picks])
        start = 0
        for deficit, (idx, _, delta) in zip(classes, picks):
            deficit[start:start + idx.size] += delta
            start += idx.size


class FieldSearchResult(NamedTuple):
    field: int
    witness: PartitionStrategy
    nodes: int
    restriction: str | None


def brute_force_field(n: int, m: int, restriction: str | None = None,
                      budget: int = DEFAULT_BUDGET,
                      guard: int = SWEEP_GUARD) -> FieldSearchResult:
    """Maximum field over all partitions of the n! permutations into m classes.

    Depth-first search in base-m counter order over the assignment vector,
    pruned by the bound field + n * (permutations still unassigned) and by
    canonical class labeling (labels appear in first-use order, which is
    harmless because the field ignores labels). ``restriction="aic"`` keeps
    only partitions passing :func:`aic_check`. Raises ``GuardRefusal`` after
    ``budget`` nodes or when n! levels of recursion pass the interpreter's
    limit (n >= 7), and ``ParameterOutOfRange`` for a negative budget.

    A class is two ints with a ``width``-bit field per cell (i, k): the
    deficit intensity[k] - mag[i][k], and ``tight``, the top bit of each field
    whose deficit is 0. Element k's n fields fill a lane of the int, 16 bits
    wide when n <= 4. Magneticity never exceeds intensity, so a permutation
    raises intensity exactly on its tight cells and a child's gain is a
    popcount, read without a push. The parent loop applies the child's prune
    or leaf test, so only children that recurse are pushed (a delta cached per
    rank and tight pattern is added) and popped; every child counts as a node.
    A class also carries its hit mask, the top bits of the cells its members
    place. Under the aic rule a leaf passes iff some target s meets no cell
    (i, s) that every used class hits; no leaf builds a partition.

    Without a restriction, when a class fits one uint64 (n <= 4) and at
    most three labels are in play (min(m, n!) <= 3), the walk counts
    subtrees in bulk: from the depth that leaves the fewest ranks r with
    min(m, n!)**r >= ``BULK_LEAVES`` potential leaves down, once an
    incumbent exists, :func:`_bulk_count` counts a node's subtree level by
    level with the incumbent held fixed and every label open to every row
    (first-use labelling opens them all there; see the comment at the
    gate). The nodes of a subtree depend only on the incumbent, which
    cannot change in a subtree where no leaf beats it, so that count is the
    walk's. If a leaf beats the incumbent, or the count passes the budget,
    the walk takes the node back: it searches the node's own children as
    above and tries each child's subtree in bulk again. Only the walk moves
    the incumbent, sets the witness or refuses. A stored level holds at
    most 3**(r-1) < ``BULK_LEAVES`` rows (the leaves are tested, not
    stored). numpy is imported only when a bulk count runs. With four or
    more labels the walk searches alone.
    Under the aic restriction every leaf above the incumbent that the rule
    rejects would send the subtree back, so restricted searches only walk.
    """
    n, m, budget = ints((n, m, budget), ParameterOutOfRange, "n, m or budget")
    if restriction not in (None, "aic"):
        raise ParameterOutOfRange(f"unknown restriction {restriction!r}")
    if n < 1 or m < 1:
        raise ParameterOutOfRange(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if budget < 0:
        raise ParameterOutOfRange(f"budget must be non-negative, got {budget}")
    if restriction == "aic" and (n < 2 or m < 2):
        # a single nonempty class puts every target at every position
        raise ParameterOutOfRange(
            "no partition passes the aic rule unless n >= 2 and m >= 2")
    check_guard(n, guard, "the field search")
    if factorial_past(n, limit := sys.getrecursionlimit()) >= limit:
        raise GuardRefusal(f"the field search at n={n} recurses once per "
                           f"permutation, past the recursion limit of {limit}")
    perms = list(itertools.permutations(range(n)))
    total = len(perms)

    width = (total // n).bit_length() + 1  # deficits <= (n-1)!, plus a top bit
    # element k's n fields start at bit k * lane; at n <= 4 a lane is 16 bits
    lane = max(16, n * width)
    column = [sum(1 << (k * lane + i * width) for i in range(n))
              for k in range(n)]
    ones = sum(column)
    tops = ones << (width - 1)
    cells = [[(1 << (k * lane + i * width), k) for i, k in enumerate(img)]
             for img in perms]
    under = [sum(bit for bit, _ in row) << (width - 1) for row in cells]
    deltas: list[dict[int, int]] = [{} for _ in perms]
    labels = min(m, total)   # first-use order never reaches a label past n!
    deficit = [0] * labels
    tight = [tops] * labels
    aic = restriction == "aic"
    hits = [0] * labels   # top bits of the cells a class's members place
    targets = [c << (width - 1) for c in column]
    assignment = [0] * total
    best_field = -1
    best_assignment: tuple[int, ...] | None = None
    nodes = 0
    bulk_depth = -1
    # The walk enters every all-0 prefix before the first leaf, so every
    # node after it has used labels 0 and 1, and with at most three labels
    # first-use labelling opens every label to it: the bulk count, which
    # needs an incumbent, then needs no first-use rule.
    if not aic and n * lane <= 64 and labels <= 3:
        bulk_depth = next((total - r for r in range(1, total + 1)
                           if labels ** r >= BULK_LEAVES), -1)

    def passes_aic(h: int, used: int, mask: int) -> bool:
        """The aic rule at a leaf that puts its last rank in class h: some
        target meets no cell that every used class hits."""
        common = hits[h] | mask
        for c in range(max(used, h + 1)):
            if c != h:
                common &= hits[c]
        return any(not common & target for target in targets)

    def dfs(depth: int, field: int, used: int) -> None:
        nonlocal best_field, best_assignment, nodes
        if 0 <= bulk_depth <= depth and best_assignment is not None:
            counted = _bulk_count(
                cells[depth:], width, ones, tops, deficit, field, best_field,
                budget - nodes)
            if counted is not None:
                nodes += counted
                return
        mask = under[depth]
        cached = deltas[depth]
        slack = n * (total - depth - 1)
        last = depth == total - 1
        for h in range(m if used >= m else used + 1):  # first-use labels
            nodes += 1
            if nodes > budget:
                raise GuardRefusal(
                    f"field search exceeded {budget} nodes; "
                    f"re-run with a larger --budget")
            pattern = tight[h] & mask
            child = field + pattern.bit_count()
            if last:
                if child > best_field and (not aic
                                           or passes_aic(h, used, mask)):
                    assignment[depth] = h
                    best_field = child
                    best_assignment = tuple(assignment)
                continue
            if child + slack <= best_field:
                continue
            delta = cached.get(pattern)
            if delta is None:
                delta = cached[pattern] = sum(
                    column[k] - bit if pattern & (bit << (width - 1))
                    else -bit for bit, k in cells[depth])
            saved = deficit[h], tight[h], hits[h]
            deficit[h] = d = saved[0] + delta
            # a field's top bit survives (d | tops) - ones iff its deficit > 0
            tight[h] = ~((d | tops) - ones) & tops
            hits[h] |= mask
            assignment[depth] = h
            dfs(depth + 1, child, used + 1 if h == used else used)
            deficit[h], tight[h], hits[h] = saved

    dfs(0, 0, 0)
    if best_assignment is None:
        # cannot happen: for n, m >= 2 the split "s at position 0 or not"
        # passes aic
        raise RuntimeError("search found no admissible partition")
    return FieldSearchResult(
        best_field, PartitionStrategy(n, m, best_assignment), nodes, restriction)


class DedupStep(NamedTuple):
    """One rewrite: elements (k1, k2) shared magnet i1; k2 re-anchored at i2."""

    class_index: int
    k1: int
    k2: int
    i1: int
    i2: int
    replaced: int                       # members rewritten by the transposition
    intensities_before: tuple[int, ...]
    intensities_after: tuple[int, ...]


class DedupResult(NamedTuple):
    classes: tuple[tuple[Permutation, ...], ...]
    steps: tuple[DedupStep, ...]
    final_magnets: tuple[tuple[int, ...] | None, ...]  # None for empty classes


def deduplicate_magnets(classes, guard: int = SWEEP_GUARD) -> DedupResult:
    """Rewrite each class until its n magnets are pairwise distinct.

    While two elements k1 < k2 share a magnet i1 (the smallest such pair is
    processed first), pick the smallest position i2 that is no element's
    magnet, and for every member placing k2 at i1 swap its images at i1 and
    i2 unless the result is already present. k2's magnet moves to i2. Class
    sizes are preserved and no intensity ever decreases; the audit trail
    records every step.
    """
    out_classes: list[tuple[Permutation, ...]] = []
    out_magnets: list[tuple[int, ...] | None] = []
    steps: list[DedupStep] = []
    for ci, raw in enumerate(classes):
        members = {p.image if isinstance(p, Permutation)
                   else make_permutation(p).image for p in raw}
        if members:
            n = len(next(iter(members)))
            if any(len(img) != n for img in members):
                raise NotABijection(f"class {ci} mixes permutation orders")
            check_guard(n, guard, "magnet deduplication")
            class_steps, magnets = _dedup_one_class(ci, members, n)
            steps.extend(class_steps)
            out_magnets.append(tuple(magnets))
        else:
            out_magnets.append(None)
        out_classes.append(tuple(Permutation(img) for img in sorted(members)))
    return DedupResult(tuple(out_classes), tuple(steps), tuple(out_magnets))


def _dedup_one_class(ci: int, members: set[tuple[int, ...]], n: int,
                     ) -> tuple[list[DedupStep], list[int]]:
    _, magnets, intensities = _magnetism(sorted(members), n)
    steps: list[DedupStep] = []
    cap = n * factorial(n) + n  # the rewrite provably terminates well before
    while True:
        pair = _first_shared_pair(magnets)
        if pair is None:
            return steps, magnets
        if len(steps) >= cap:
            raise RuntimeError("magnet deduplication failed to terminate")
        k1, k2 = pair
        i1 = magnets[k1]
        i2 = min(set(range(n)) - set(magnets))   # two elements share i1
        before = tuple(intensities)
        replaced = 0
        for img in sorted(m for m in members if m[i1] == k2):
            swapped = list(img)
            swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
            swapped = tuple(swapped)
            if swapped not in members:
                members.discard(img)
                members.add(swapped)
                replaced += 1
        mag, fresh_magnets, fresh_intensities = _magnetism(sorted(members), n)
        # keep designations sticky: move a magnet only when its old position
        # no longer attains the (possibly grown) maximum; k2 moves to i2,
        # which attains the maximum by construction.
        new_magnets = []
        for k in range(n):
            if k == k2:
                new_magnets.append(i2)
            elif mag[magnets[k]][k] == fresh_intensities[k]:
                new_magnets.append(magnets[k])
            else:
                new_magnets.append(fresh_magnets[k])
        magnets = new_magnets
        intensities = fresh_intensities
        steps.append(DedupStep(ci, k1, k2, i1, i2, replaced, before,
                               tuple(intensities)))


def _first_shared_pair(magnets: list[int]) -> tuple[int, int] | None:
    n = len(magnets)
    for k1 in range(n):
        for k2 in range(k1 + 1, n):
            if magnets[k1] == magnets[k2]:
                return k1, k2
    return None


def partition_from_hint(n: int, m: int, hint_fn,
                        guard: int = SWEEP_GUARD) -> PartitionStrategy:
    """Partition whose class h holds the permutations with hint_fn(p) == h."""
    (n,) = ints((n,), ParameterOutOfRange, "n")
    check_guard(n, guard, "partitioning by hint")
    assignment = tuple(hint_fn(Permutation(img))
                       for img in itertools.permutations(range(n)))
    return PartitionStrategy(n, m, assignment)
