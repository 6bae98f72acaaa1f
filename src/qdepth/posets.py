"""Subfamilies of the boolean lattice and their interval partitions.

Sets over a ground set [n] are bitmasks: bit i - 1 stands for element i.
The module computes level counts and the depth of a family, validates
interval partitions, searches exhaustively for the best partition depth on
small instances, and builds a family realizing a given sequence as level
counts together with a partition certifying that both depths coincide.
"""

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from itertools import chain, combinations, islice, starmap
from operator import itemgetter

import qdepth

from .errors import DomainError, SchemaError
from .records import Record
from .sequences import DEFAULT_BRUTEFORCE_CAP, FiniteSequence, Sequence, _int, _trimmed

MAX_GROUND_SIZE = 63


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= _int(e, "element") <= n:
            raise DomainError(f"element {e!r} is outside the ground set [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_from_mask(mask: int) -> tuple[int, ...]:
    _int(mask, "set mask", 0)
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def interval_members(bottom: int, top: int) -> Iterable[int]:
    """All sets between bottom and top, inclusive; none when bottom is not under top."""
    if bottom & ~top:
        return
    sub = free = top & ~bottom
    while sub:
        yield bottom | sub
        sub = (sub - 1) & free
    yield bottom


def _ground_size(n: int) -> int:
    if not 1 <= _int(n, "ground size") <= MAX_GROUND_SIZE:
        raise DomainError(f"ground size must lie in [1, {MAX_GROUND_SIZE}], got {n}")
    return n


class Poset(Record):
    """A nonempty family of distinct subsets of [n], n at most 63; the pass checking it also counts its levels."""

    n: int
    sets: frozenset

    def __post_init__(self):
        n = _ground_size(self.n)
        sets = frozenset(self.sets)
        if not sets:
            raise DomainError("family must be nonempty")
        levels = [0] * (n + 1)
        for mask in sets:
            # a good mask passes the plain test; _int names a bool, non-int or negative one
            if (type(mask) is not int or mask < 0 or mask >> n) and _int(mask, "set mask", 0) >> n:
                raise DomainError(f"set {elements_from_mask(mask)} exceeds the ground set [1, {n}]")
            levels[mask.bit_count()] += 1
        self.__dict__.update(sets=sets, _levels=tuple(levels))

    @classmethod
    def from_iterables(cls, n: int, families: Iterable[Iterable[int]]) -> "Poset":
        """The family of the listed element sets; a set listed twice is refused, not folded into one member."""
        n = _ground_size(n)  # before the first mask is built, so a huge n cannot build a huge mask
        sets = set()
        for f in families:
            mask = mask_from_elements(f, n)
            if mask in sets:
                raise DomainError(f"set {elements_from_mask(mask)} is listed twice")
            sets.add(mask)
        return cls(n, frozenset(sets))

    def level_counts(self) -> dict:
        return {k: v for k, v in enumerate(self._levels) if v}

    def level_sequence(self) -> FiniteSequence:
        return FiniteSequence._checked(**_trimmed(0, self._levels))  # trimmed to the lowest and highest levels

    def sorted_masks(self) -> list[int]:
        return sorted(sorted(self.sets), key=int.bit_count)

    def __len__(self) -> int:
        return len(self.sets)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": [list(elements_from_mask(m)) for m in self.sorted_masks()]}


def poset_qdepth(poset: Poset) -> "qdepth.engine.QDepthResult":
    """Depth of the family, computed on its level-count sequence."""
    return qdepth.engine.qdepth(poset.level_sequence())  # engine loads on first use: sdepth never needs it


class IntervalPartition(Record):
    """An ordered list of intervals meant to partition the target family."""

    target: Poset
    intervals: tuple

    def __post_init__(self):
        bounds = []
        for i, pair in enumerate(self.intervals):
            try:
                c, d = pair
            except (TypeError, ValueError):
                raise DomainError(f"interval {i} must be a (bottom, top) pair") from None
            bounds.append((_int(c, "set mask", 0), _int(d, "set mask", 0)))
        object.__setattr__(self, "intervals", tuple(bounds))

    @property
    def sdepth(self) -> int:
        if not self.intervals:
            raise DomainError("no intervals given")
        return min(map(int.bit_count, map(itemgetter(1), self.intervals)))

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
    member is covered.  The last three are decided on one unordered stream
    of members, by a subset test and by comparing the member count, the
    distinct count and the family size.  A one-set interval [c, c] gives c,
    a wider one at most len(family) + 1 members, by when one lies outside
    the family.  Intervals holding more than max(len(family), ENTRY_BUDGET)
    such members raise DomainError before any is read.  A failed clause is
    walked again, in index order, to name its first offender.
    """
    target = partition.target
    intervals = partition.intervals
    if not intervals:
        return ValidationReport(False, None, "no intervals given")
    singles = [c for c, d in intervals if c == d]
    wide = [bounds for bounds in intervals if bounds[0] != bounds[1]]  # the pairs themselves, not copies
    if max(singles, default=0) >> target.n or any(c & ~d or d >> target.n for c, d in wide):
        for c, d in intervals:
            if c & ~d:
                return ValidationReport(False, None, f"bottom {_fmt(c)} is not contained in top {_fmt(d)}")
            if d >> target.n:
                return ValidationReport(False, None, f"top {_fmt(d)} exceeds the ground set [1, {target.n}]")

    family = target.sets
    read = len(family) + 1  # by then an interval must hold a set outside the family
    total = len(singles) + sum(min(1 << (d ^ c).bit_count(), read) for c, d in wide)
    budget = max(len(family), qdepth.sequences.ENTRY_BUDGET)
    if total > budget:
        raise DomainError(f"intervals hold at least {total} members, over the budget of {budget}")

    def members_of(c: int, d: int) -> Iterable[int]:  # at most len(family) + 1 of them
        return (c,) if c == d else islice(interval_members(c, d), read)

    def members() -> Iterable[int]:  # every interval's, unordered
        return chain(singles, chain.from_iterable(starmap(members_of, wide)))

    if not family.issuperset(members()):
        c, d, m = next((c, d, m) for c, d in intervals for m in members_of(c, d) if m not in family)
        reason = f"interval [{_fmt(c)},{_fmt(d)}] contains {_fmt(m)}, which is not in the family"
        return ValidationReport(False, None, reason)
    covered = set(members()) if total <= len(family) else ()  # else some member is held twice
    if len(covered) < total:
        # the first interval holding a member held twice, and the first later one it meets
        twice = {m for m, k in Counter(members()).items() if k > 1}
        i = next(i for i, (c, d) in enumerate(intervals) if not twice.isdisjoint(members_of(c, d)))
        c1, d1 = intervals[i]
        c2, d2 = next((c, d) for c, d in intervals[i + 1:] if not (c | c1) & ~(d & d1))
        return ValidationReport(False, None, f"intervals [{_fmt(c1)},{_fmt(d1)}] and [{_fmt(c2)},{_fmt(d2)}] overlap")
    if len(covered) < len(family):
        missing = next(m for m in family if m not in covered)
        return ValidationReport(False, None, f"family member {_fmt(missing)} is not covered")

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
    bounds the search.  It starts at a bound that comes from the partition
    structure alone, never from the family's depth: a set with no other
    member below it is the bottom of its own interval in every partition,
    and that interval lies whole inside the family, so no cover has all
    tops above the smallest, over such sets, of their largest whole
    interval's top.  Each bottom's whole intervals inside the family are
    listed once per family, the first time that bottom comes up, and serve
    every threshold; only the masks of unassigned sets proven impossible to
    cover are remembered, since a found cover ends the search.  A state is
    also dead when some unassigned set x below the threshold t lies in no
    whole interval [x, D] with |D| = t among the unassigned sets: any cover
    puts x in some [C, D'] with |D'| >= t, and so in such an [x, D].  After
    [i, j] is taken only the sets under j can have lost one, so only they
    are rechecked.  A set's supersets are the AND of the sets holding each
    of its elements, and its non-subsets the OR of those holding an element
    it lacks.  The search keeps its own stack, so a family of many one-set
    intervals needs no deeper recursion.
    """
    s = len(poset)
    if s > _int(cap, "cap"):
        raise DomainError(f"family has {s} members, exhaustive search is capped at {cap}")
    masks = poset.sorted_masks()
    sizes = list(map(int.bit_count, masks))
    full = (1 << s) - 1
    # has[bit]: the sets holding that element; elements no set holds get no entry
    has: dict[int, int] = {}
    own = 1
    for m in masks:
        while m:
            low = m & -m
            has[low] = has.get(low, 0) | own
            m ^= low
        own <<= 1
    sup, sub = [], []
    holders_of = list(has.items())  # a list reads faster than the dict's items view, once per set
    for m in masks:
        above, below = full, 0
        for bit, holders in holders_of:
            if m & bit:
                above &= holders
            else:
                below |= holders
        sup.append(above)
        sub.append(full ^ below)

    # per bottom i: its whole intervals, listed when it first comes up (the helpers are unnested: it is faster)
    whole: list[list | None] = [None] * s
    t_hi, t_lo = sizes[-1], sizes[0]
    # a set with no other member below it is the bottom of its own interval in every partition
    for i in range(s):
        if sub[i] == 1 << i:
            whole[i] = _whole_tops(i, sup, sub, sizes)
            t_hi = min(t_hi, whole[i][0][0])

    for t in range(t_hi, t_lo - 1, -1):
        intervals = _cover(t, masks, sizes, sup, sub, whole)
        if intervals is not None:
            return SdepthResult(t, IntervalPartition._checked(target=poset, intervals=intervals))

    raise AssertionError("unreachable: singleton intervals always cover the family")


def _whole_tops(i: int, sup: list, sub: list, sizes: list) -> list:
    """(top size, top j, members) of every whole interval [i, j] inside the family, largest top first."""
    tops = []
    above = rest = sup[i]
    size = sizes[i]
    while rest:
        j = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        members = above & sub[j]
        if members.bit_count() == 1 << (sizes[j] - size):
            tops.append((sizes[j], j, members))
    tops.sort(key=itemgetter(0), reverse=True)  # stable: equal sizes keep j ascending
    return tops


def _coverable(rest: int, check: int, t: int, options: list, whole: list, sup: list, sub: list, sizes: list) -> bool:
    """Whether rest holds, for each set x in check, all below t, a whole [x, D] with |D| = t: a cover of rest
    puts each such x in some [C, D'] with |D'| >= t, and so in such an [x, D] with D <= D'."""
    while check:
        low = check & -check
        check ^= low
        x = low.bit_length() - 1
        opts = options[x]
        if opts is None:
            if whole[x] is None:
                whole[x] = _whole_tops(x, sup, sub, sizes)
            opts = options[x] = [members for size, _, members in whole[x] if size == t]
        for members in opts:
            if members & rest == members:
                break
        else:
            return False
    return True


def _cover(t: int, masks: list, sizes: list, sup: list, sub: list, whole: list) -> tuple | None:
    """A partition of the family into whole intervals with tops of t or more elements, as mask pairs, or None."""
    s = len(masks)
    dead: set[int] = set()
    below = (1 << bisect_left(sizes, t)) - 1  # the sets of size below t, a prefix
    # per set x below t: the members of every whole [x, D] with |D| = t, built on first use
    options: list[list | None] = [None] * s
    stack = []  # (unassigned sets, bottom, untried tops, top taken) of each state on the path
    remaining = (1 << s) - 1
    while remaining:
        i = (remaining & -remaining).bit_length() - 1
        tops = whole[i]
        if tops is None:
            tops = whole[i] = _whole_tops(i, sup, sub, sizes)
        untried = iter(tops)
        # take the next top that fits and leaves a coverable state, else backtrack
        while True:
            rest = None
            for size, j, members in untried:
                if size < t:
                    break
                if members & remaining == members and remaining ^ members not in dead:
                    rest = remaining ^ members
                    # only the sets under j can have lost a whole interval
                    check = sub[j] & rest & below
                    if not check or _coverable(rest, check, t, options, whole, sup, sub, sizes):
                        break
                    dead.add(rest)
                    rest = None
            if rest is not None:
                break
            dead.add(remaining)
            if not stack:
                return None
            remaining, i, untried, _ = stack.pop()
        stack.append((remaining, i, untried, j))
        remaining = rest
    return tuple([(masks[i], masks[j]) for _, i, _, j in stack])


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


def realize(h: Sequence) -> RealizationResult:
    """Build a family whose level counts match h after shifting, with a
    partition whose depth equals the family depth.

    The input is shifted by m = k0 - 1 so the window starts at level 1.
    Levels 1..d are covered by sum(b) intervals on one ground: numbered
    i = 0, 1, ... with their bottom sizes j ascending, interval i is the
    window [{i+1..i+j}, {i+1..i+d}].  Windows share elements but no member:
    interval i's bottom holds element i + 1, which no later top holds.  For
    finitely supported input each level k above d, which no window reaches,
    takes the first h(k) k-sets of the ground as one-set intervals.  The
    ground, max(sum(b) + d - 1, the smallest n with C(n, k) >= h(k) above
    d), and the family size are known before any set is built: a need of
    more than MAX_GROUND_SIZE elements, or then of more than ENTRY_BUDGET
    members, is refused up front.  The partition, the level counts and the
    partition depth are checked; level counts equal to the shifted window
    give the family depth d without a second depth search.
    """
    m = h.stats().k0 - 1
    g = h.shifted(m)
    result = qdepth.engine.qdepth(g)
    d = result.qdepth
    b = tuple(result.accepted_table.entries[j] for j in range(1, d + 1))

    # the window 1..d, and a finite sequence's levels past it up to its support end (depth <= kf)
    counts = dict(enumerate(g.iter_values(d if g.support_end is None else g.support_end), 1))
    upper = {k: c for k, c in counts.items() if k > d and c}
    # the windows end at element sum(b) + d - 1; the smallest n past it holding every upper level, up to the cap + 1
    ground_size = max(sum(b) + d - 1, max(upper, default=0))
    while ground_size <= MAX_GROUND_SIZE + 1 and any(math.comb(ground_size, k) < c for k, c in upper.items()):
        ground_size += 1
    if ground_size > MAX_GROUND_SIZE:
        need = ground_size if ground_size == MAX_GROUND_SIZE + 1 or not upper else f"more than {MAX_GROUND_SIZE}"
        raise DomainError(f"realization needs {need} ground elements, beyond the {MAX_GROUND_SIZE} cap")
    members, budget = sum(counts.values()), qdepth.sequences.ENTRY_BUDGET
    if members > budget:
        raise DomainError(f"realization needs {members} family members, over the budget of {budget}")

    bottoms = [(1 << j) - 1 for j, count in enumerate(b, 1) for _ in range(count)]  # sizes ascending
    top = (1 << d) - 1
    intervals = [(bottom << i, top << i) for i, bottom in enumerate(bottoms)]
    bits = [1 << e for e in range(ground_size)]
    intervals += [(s, s) for k, c in upper.items() for s in map(sum, islice(combinations(bits, k), c))]
    poset = Poset(ground_size, frozenset(chain.from_iterable(starmap(interval_members, intervals))))
    partition = IntervalPartition(poset, intervals)
    report = validate_partition(partition)

    if not report.ok:
        raise AssertionError(f"realization failed validation: {report.reason}")
    if poset.level_counts() != {k: v for k, v in counts.items() if v}:
        raise AssertionError("realization does not reproduce the level counts")
    if report.sdepth != d:
        raise AssertionError("realization partition depth differs from the sequence depth")

    return RealizationResult(m, d, ground_size, b, poset, partition, report)


def poset_from_json_dict(obj) -> Poset:
    """Parse {"n": int, "sets": [[elements], ...]}."""
    if not isinstance(obj, dict):
        raise SchemaError("poset: expected a JSON object")
    if set(obj) != {"n", "sets"}:
        raise SchemaError('poset: expected exactly the keys "n" and "sets"')
    raw = obj["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise SchemaError("poset: sets must be a list of element lists")
    try:
        return Poset.from_iterables(obj["n"], raw)
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
