"""Subfamilies of the boolean lattice and their interval partitions.

Sets over a ground set [n] are bitmasks: bit i - 1 stands for element i.
The module computes level counts and the depth of a family, validates
interval partitions, searches exhaustively for the best partition depth on
small instances, and builds a family realizing a given sequence as level
counts together with a partition certifying that both depths coincide.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence as SequenceABC
from itertools import combinations, islice

from . import engine
from .errors import DomainError, SchemaError
from .records import Record
from .sequences import DEFAULT_BRUTEFORCE_CAP, FiniteSequence, Sequence, _int

MAX_GROUND_SIZE = 63

Interval = tuple[int, int]


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= n:
            raise DomainError(f"element {e!r} is outside the ground set [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def _mask(value) -> int:
    """value itself when it is a set mask, a non-negative int; DomainError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"set mask must be a non-negative integer, got {value!r}")
    return value


def elements_from_mask(mask: int) -> tuple[int, ...]:
    _mask(mask)
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _submasks(free: int) -> Iterable[int]:
    sub = free
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def interval_members(bottom: int, top: int) -> Iterable[int]:
    """All sets between bottom and top, inclusive."""
    for sub in _submasks(top & ~bottom):
        yield bottom | sub


class Poset(Record):
    """A nonempty family of distinct subsets of [n], n at most 63."""

    n: int
    sets: frozenset

    def __post_init__(self):
        if not 1 <= _int(self.n, "ground size") <= MAX_GROUND_SIZE:
            raise DomainError(f"ground size must lie in [1, {MAX_GROUND_SIZE}], got {self.n}")
        object.__setattr__(self, "sets", frozenset(self.sets))
        if not self.sets:
            raise DomainError("family must be nonempty")
        for mask in self.sets:
            if _mask(mask) >> self.n:
                raise DomainError(f"set {elements_from_mask(mask)} exceeds the ground set [1, {self.n}]")

    @classmethod
    def from_iterables(cls, n: int, families: Iterable[Iterable[int]]) -> "Poset":
        return cls(n, frozenset(mask_from_elements(f, n) for f in families))

    def level_counts(self) -> dict:
        counts: dict[int, int] = {}
        for mask in self.sets:
            k = mask.bit_count()
            counts[k] = counts.get(k, 0) + 1
        return dict(sorted(counts.items()))

    def level_sequence(self) -> FiniteSequence:
        counts = self.level_counts()
        lo = min(counts)
        hi = max(counts)
        return FiniteSequence(lo, [counts.get(k, 0) for k in range(lo, hi + 1)])

    def sorted_masks(self) -> list[int]:
        return sorted(self.sets, key=lambda m: (m.bit_count(), m))

    def __len__(self) -> int:
        return len(self.sets)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": [list(elements_from_mask(m)) for m in self.sorted_masks()]}


def poset_qdepth(poset: Poset) -> engine.QDepthResult:
    """Depth of the family, computed on its level-count sequence."""
    return engine.qdepth(poset.level_sequence())


class IntervalPartition(Record):
    """An ordered list of intervals meant to partition the target family."""

    target: Poset
    intervals: tuple

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple((_mask(c), _mask(d)) for c, d in self.intervals))

    @property
    def sdepth(self) -> int:
        if not self.intervals:
            raise DomainError("no intervals given")
        return min(d.bit_count() for _, d in self.intervals)

    def to_json_dict(self) -> dict:
        return {
            "intervals": [
                {"C": list(elements_from_mask(c)), "D": list(elements_from_mask(d))}
                for c, d in self.intervals
            ]
        }


class ValidationReport(Record):
    """Verdict of validate_partition; reason names the first violated clause."""

    ok: bool
    sdepth: int | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {"valid": self.ok, "sdepth": self.sdepth, "reason": self.reason}


def _fmt(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_from_mask(mask)) + "}"


def validate_partition(partition: IntervalPartition) -> ValidationReport:
    """Check that the intervals exactly partition the target family.

    Clauses, in order: each bottom lies under its top, every interval stays
    inside the family, intervals are pairwise disjoint, and every family
    member is covered.  One pass, linear in the interval sizes, maps each
    member to its first interval and names the smallest overlapping pair.
    """
    target = partition.target
    intervals = partition.intervals
    if not intervals:
        return ValidationReport(False, None, "no intervals given")

    for c, d in intervals:
        if c & ~d:
            return ValidationReport(False, None, f"bottom {_fmt(c)} is not contained in top {_fmt(d)}")
        if d >> target.n:
            return ValidationReport(False, None, f"top {_fmt(d)} exceeds the ground set [1, {target.n}]")

    size = len(target.sets)
    owner: dict[int, int] = {}
    overlap = None
    for j, (c, d) in enumerate(intervals):
        span = 1 << (d.bit_count() - c.bit_count())
        if span > size:
            return ValidationReport(
                False, None,
                f"interval [{_fmt(c)},{_fmt(d)}] has {span} members but the family has only {size}",
            )
        for member in interval_members(c, d):
            if member not in target.sets:
                return ValidationReport(
                    False, None,
                    f"interval [{_fmt(c)},{_fmt(d)}] contains {_fmt(member)}, which is not in the family",
                )
            i = owner.setdefault(member, j)  # the smallest index holding member
            if i != j and (overlap is None or (i, j) < overlap):
                overlap = (i, j)

    if overlap is not None:
        (c1, d1), (c2, d2) = (intervals[i] for i in overlap)
        return ValidationReport(
            False, None, f"intervals [{_fmt(c1)},{_fmt(d1)}] and [{_fmt(c2)},{_fmt(d2)}] overlap"
        )
    for member in target.sets:
        if member not in owner:
            return ValidationReport(False, None, f"family member {_fmt(member)} is not covered")

    return ValidationReport(True, partition.sdepth, None)


class SdepthResult(Record):
    """Best partition depth of a family and a partition attaining it."""

    sdepth: int
    partition: IntervalPartition


def sdepth_bruteforce(poset: Poset, cap: int = DEFAULT_BRUTEFORCE_CAP) -> SdepthResult:
    """Exact best partition depth, by exhaustive search on small families.

    Works on the family sorted by size: the smallest unassigned set must be
    the bottom of its interval, so the search assigns it every admissible
    top in turn, largest first.  A descending threshold on the top sizes
    bounds the search.  Each bottom's whole intervals inside the family are
    listed once per family, the first time that bottom comes up, and serve
    every threshold; only the masks of unassigned sets proven impossible to
    cover are remembered, since a found cover ends the search.
    """
    masks = poset.sorted_masks()
    s = len(masks)
    if s > _int(cap, "cap"):
        raise DomainError(f"family has {s} members, exhaustive search is capped at {cap}")
    sizes = [m.bit_count() for m in masks]

    sup = [0] * s
    sub = [0] * s
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a & ~b == 0:
                sup[i] |= 1 << j
                sub[j] |= 1 << i

    t_hi = min(max(sizes[j] for j in range(s) if sup[i] >> j & 1) for i in range(s))
    t_lo = sizes[0]
    full = (1 << s) - 1
    # per bottom i: (top size, top j, members) of every whole interval [i, j], largest top first
    whole: list[list | None] = [None] * s

    def tops_of(i: int) -> list:
        tops = []
        for j in range(s):
            members = sup[i] & sub[j]
            if sup[i] >> j & 1 and members.bit_count() == 1 << (sizes[j] - sizes[i]):
                tops.append((sizes[j], j, members))
        tops.sort(key=lambda top: (-top[0], top[1]))
        return tops

    def cover(remaining: int) -> list | None:
        # t, cand and dead belong to the threshold being tried
        if remaining == 0:
            return []
        if remaining in dead:
            return None
        rem = remaining
        while rem:
            low = rem & -rem
            if cand[low.bit_length() - 1] & remaining == 0:
                dead.add(remaining)
                return None
            rem ^= low
        i = (remaining & -remaining).bit_length() - 1
        tops = whole[i]
        if tops is None:
            tops = whole[i] = tops_of(i)
        for size, j, members in tops:
            if size < t:
                break
            if members & remaining == members:
                rest = cover(remaining ^ members)
                if rest is not None:
                    return [(i, j)] + rest
        dead.add(remaining)
        return None

    for t in range(t_hi, t_lo - 1, -1):
        sizemask = sum(1 << j for j in range(s) if sizes[j] >= t)
        cand = [sup[i] & sizemask for i in range(s)]
        dead: set[int] = set()
        found = cover(full)
        if found is not None:
            intervals = tuple((masks[i], masks[j]) for i, j in found)
            return SdepthResult(t, IntervalPartition(poset, intervals))

    raise AssertionError("unreachable: singleton intervals always cover the family")


class RealizationResult(Record):
    """Family realizing a sequence window, plus the certifying partition.

    m is the shift applied to the input, depth the invariant of the shifted
    sequence, b its transform values at the accepted depth, and ground_size
    the realized ground set size N.
    """

    m: int
    depth: int
    ground_size: int
    b: tuple
    poset: Poset
    partition: IntervalPartition
    validation: ValidationReport

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.depth,
            "N": self.ground_size,
            "b": [str(v) for v in self.b],
            "poset": self.poset.to_json_dict(),
            "partition": self.partition.to_json_dict(),
            "sdepth": self.partition.sdepth,
            "valid": self.validation.ok,
        }


def _block_intervals(d: int, b: SequenceABC) -> list[Interval]:
    """One fresh block of d elements per interval; bottoms are block prefixes."""
    intervals = []
    base = 0
    for j in range(1, d + 1):
        for _ in range(b[j - 1]):
            top = ((1 << d) - 1) << base
            bottom = ((1 << j) - 1) << base
            intervals.append((bottom, top))
            base += d
    return intervals


def _pool_holds(counts: Mapping[int, int], size: int) -> bool:
    """Whether size elements have counts[k] distinct k-sets for every level k."""
    return all(math.comb(size, k) >= c for k, c in counts.items())


def _pool_size(counts: Mapping[int, int], room: int) -> int:
    """Smallest pool of fresh elements for the one-set intervals of counts.

    The search stops once the pool outgrows room, so the size returned
    is exact only when it fits.
    """
    size = max((k for k, c in counts.items() if c), default=0)
    while size <= room and not _pool_holds(counts, size):
        size += 1
    return size


def _fresh_level_singletons(counts: Mapping[int, int], base: int, pool_size: int) -> list[Interval]:
    """Distinct sets of prescribed sizes over the pool_size elements after base.

    They come back as one-set intervals.  A single shared pool suffices
    because sets of different sizes never coincide.
    """
    pool = range(base + 1, base + pool_size + 1)
    intervals = []
    for k in sorted(counts):
        for combo in islice(combinations(pool, k), counts[k]):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            intervals.append((mask, mask))
    return intervals


def realize(h: Sequence) -> RealizationResult:
    """Build a family whose level counts match h after shifting, with a
    partition whose depth equals the family depth.

    The input is shifted by m = k0 - 1 so the window starts at level 1.
    Levels 1..d are covered by intervals with tops of size d, b[j] of them
    with bottoms of size j, each on its own block of d fresh elements; for
    finitely supported input, every level above d is filled with one-set
    intervals over a shared pool of fresh elements, so the whole support is
    realized.  The ground size is known before any set is built, and inputs
    needing more than MAX_GROUND_SIZE elements are rejected up front.  The
    intervals are disjoint by construction; the postconditions are checked.
    """
    m = h.stats().k0 - 1
    g = h.shifted(m)
    result = engine.qdepth(g)
    d = result.qdepth
    b = tuple(result.accepted_table.entries[j] for j in range(1, d + 1))

    window_counts = {j: g.value_at(j) for j in range(1, d + 1)}
    if isinstance(g, FiniteSequence):
        upper_counts = {j: g.value_at(j) for j in range(d + 1, g.support_end + 1)}
        window_counts.update(upper_counts)
    else:
        upper_counts = {}
    used = d * sum(b)
    pool_size = _pool_size(upper_counts, MAX_GROUND_SIZE - used)
    ground_size = used + pool_size
    if ground_size > MAX_GROUND_SIZE:
        need = ground_size if _pool_holds(upper_counts, pool_size) else f"more than {MAX_GROUND_SIZE}"
        raise DomainError(
            f"realization needs {need} ground elements, beyond the {MAX_GROUND_SIZE} cap"
        )

    all_intervals = _block_intervals(d, b) + _fresh_level_singletons(upper_counts, used, pool_size)
    members = set()
    for c, dd in all_intervals:
        members.update(interval_members(c, dd))
    poset = Poset(ground_size, frozenset(members))
    partition = IntervalPartition(poset, all_intervals)
    report = validate_partition(partition)

    if not report.ok:
        raise AssertionError(f"realization failed validation: {report.reason}")
    if poset.level_counts() != {k: v for k, v in window_counts.items() if v}:
        raise AssertionError("realization does not reproduce the level counts")
    if partition.sdepth != d:
        raise AssertionError("realization partition depth differs from the sequence depth")
    if poset_qdepth(poset).qdepth != d:
        raise AssertionError("realization family depth differs from the sequence depth")

    return RealizationResult(m, d, ground_size, b, poset, partition, report)


def poset_from_json_dict(obj) -> Poset:
    """Parse {"n": int, "sets": [[elements], ...]}."""
    if not isinstance(obj, dict):
        raise SchemaError("poset: expected a JSON object")
    if set(obj) != {"n", "sets"}:
        raise SchemaError('poset: expected exactly the keys "n" and "sets"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError("poset: n must be an integer")
    raw = obj["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise SchemaError("poset: sets must be a list of element lists")
    try:
        return Poset.from_iterables(n, raw)
    except DomainError as e:
        raise SchemaError(f"invalid poset: {e}") from None


def partition_from_json_dict(obj, target: Poset) -> IntervalPartition:
    """Parse {"intervals": [{"C": [...], "D": [...]}, ...]} against a target family."""
    if not isinstance(obj, dict):
        raise SchemaError("partition: expected a JSON object")
    if set(obj) != {"intervals"}:
        raise SchemaError('partition: expected exactly the key "intervals"')
    raw = obj["intervals"]
    if not isinstance(raw, list):
        raise SchemaError("partition: intervals must be a list")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"C", "D"}:
            raise SchemaError(f'partition: interval {i} must have exactly the keys "C" and "D"')
        if not isinstance(item["C"], list) or not isinstance(item["D"], list):
            raise SchemaError(f"partition: interval {i} bounds must be element lists")
        try:
            pairs.append(
                (mask_from_elements(item["C"], target.n), mask_from_elements(item["D"], target.n))
            )
        except DomainError as e:
            raise SchemaError(f"invalid partition: {e}") from None
    return IntervalPartition(target, tuple(pairs))
