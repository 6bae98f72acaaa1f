"""Families of subsets, interval partitions, search, and realization."""

import random
import re
import time
import tracemalloc
from itertools import combinations, islice

import pytest

from helpers import (
    counting_identity_check,
    intervals_disjoint,
    oracle_partition_report,
    oracle_qdepth,
    oracle_sdepth_search,
    plain_sdepth,
    random_finite,
)
from qdepth import (
    DomainError,
    FiniteSequence,
    GeometricSequence,
    IntervalPartition,
    PolynomialSequence,
    Poset,
    SchemaError,
    binomial,
    elements_from_mask,
    interval_members,
    mask_from_elements,
    partition_from_json_dict,
    poset_from_json_dict,
    poset_qdepth,
    qdepth_value,
    realize,
    sdepth_bruteforce,
    validate_partition,
)
from qdepth import posets, sequences

WORKED_FAMILY = [
    [1], [2], [1, 2], [1, 3], [2, 3], [1, 4],
    [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 4, 5],
    [1, 2, 3, 4], [1, 2, 3, 5], [1, 3, 4, 5],
    [1, 2, 3, 4, 5],
]


def worked_poset() -> Poset:
    return Poset.from_iterables(7, WORKED_FAMILY)


def make_partition(poset, pairs):
    intervals = tuple(
        (mask_from_elements(c, poset.n), mask_from_elements(d, poset.n)) for c, d in pairs
    )
    return IntervalPartition(poset, intervals)


def random_poset(rng, n=5, max_sets=14) -> Poset:
    count = rng.randint(1, max_sets)
    universe = list(range(1 << n))
    masks = rng.sample(universe, count)
    return Poset(n, frozenset(masks))


def test_level_counts_examples():
    assert worked_poset().level_counts() == {1: 2, 2: 4, 3: 7, 4: 3, 5: 1}
    full = Poset(3, frozenset(range(8)))
    assert full.level_counts() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert Poset.from_iterables(2, [[1, 2]]).level_counts() == {2: 1}


def test_level_sequence_matches_level_counts():
    rng = random.Random(223)
    empty_ends = [0, 0]
    for _ in range(400):
        n = rng.randint(1, 7)
        levels = rng.sample(range(n + 1), rng.randint(1, n + 1))
        sets = [m for m in range(1 << n) if m.bit_count() in levels and rng.random() < 0.5]
        poset = Poset(n, frozenset(sets or [rng.randrange(1 << n)]))
        counts = poset.level_counts()
        seq = poset.level_sequence()
        assert seq.offset == min(counts)
        assert seq.values == tuple(counts.get(k, 0) for k in range(min(counts), max(counts) + 1))
        empty_ends[0] += min(counts) > 0
        empty_ends[1] += max(counts) < n
    assert min(empty_ends) > 100


def test_poset_validation():
    with pytest.raises(DomainError):
        Poset(0, frozenset({1}))
    with pytest.raises(DomainError):
        Poset(64, frozenset({1}))
    with pytest.raises(DomainError):
        Poset(2, frozenset())
    with pytest.raises(DomainError, match="ground size must be an integer"):
        Poset(2.0, frozenset({1}))
    with pytest.raises(DomainError, match="set mask must be at least 0, got -1"):
        Poset(2, frozenset({-1}))
    with pytest.raises(DomainError):
        Poset(2, frozenset({8}))
    with pytest.raises(DomainError):
        Poset.from_iterables(2, [[3]])


def test_a_set_listed_twice_is_refused_not_folded():
    assert len(Poset.from_iterables(2, [[1], [2], [1, 2]])) == 3
    for sets, named in (([[1], [1]], "(1,)"), ([[2, 1], [2], [1, 2]], "(1, 2)")):
        with pytest.raises(DomainError, match=f"^{re.escape(f'set {named} is listed twice')}$"):
            Poset.from_iterables(2, sets)
    # an element repeated inside one set is refused before the set meets the others
    with pytest.raises(DomainError, match="^element 1 is listed twice in one set$"):
        Poset.from_iterables(2, [[1, 1], [1]])
    with pytest.raises(SchemaError, match=r"^invalid poset: set \(1,\) is listed twice$"):
        poset_from_json_dict({"n": 2, "sets": [[1], [2], [1]]})


def _first_bad_mask_message(family, n: int) -> str:
    """The refusal of the first bad mask in the order the family iterates, from the guards' definitions."""
    for m in family:
        if isinstance(m, bool) or not isinstance(m, int):
            return f"set mask must be an integer, got {m!r}"
        if m < 0:
            return f"set mask must be at least 0, got {m}"
        if m >> n:
            return f"set {tuple(e + 1 for e in range(m.bit_length()) if m >> e & 1)} exceeds the ground set [1, {n}]"
    raise AssertionError("no bad mask")


@pytest.mark.parametrize("bad", [[True], [2.5], ["7"], [-3], [1 << 9], [True, -3, 2.5, 1 << 9, "7", -1 << 70]],
                         ids=["bool", "float", "string", "negative", "oversized", "several"])
def test_poset_refuses_the_first_bad_mask_in_its_walk(bad):
    # every subfamily of the bad masks beside good ones, so each order the walk meets them in is tried
    for k in range(1, len(bad) + 1):
        for chosen in combinations(bad, k):
            family = frozenset((3, 6, *chosen))
            with pytest.raises(DomainError) as caught:
                Poset(3, family)
            assert str(caught.value) == _first_bad_mask_message(family, 3), family
    # the ground size, then emptiness, come before any mask
    with pytest.raises(DomainError, match="^ground size must lie in"):
        Poset(0, frozenset(bad))
    with pytest.raises(DomainError, match="^family must be nonempty$"):
        Poset(3, ())


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((-1, 3), "at least 0, got -1"),
        ((1, -3), "at least 0, got -3"),
        ((1.9, 3.7), "an integer, got 1.9"),
        ((True, 3), "an integer, got True"),
        (("1", "3"), "an integer, got '1'"),
    ],
    ids=["negative", "negative-top", "float", "bool", "string"],
)
def test_interval_bounds_must_be_set_masks(bounds, message):
    with pytest.raises(DomainError, match=re.escape(f"set mask must be {message}")):
        IntervalPartition(Poset(3, frozenset({1, 3})), [bounds])


def test_mask_from_elements_refuses_an_element_listed_twice():
    assert mask_from_elements([3, 1], 3) == 0b101
    for elements, e in (([1, 1], 1), ([2, 3, 2], 2), ([3, 1, 3, 1], 3)):
        with pytest.raises(DomainError, match=f"^element {e} is listed twice in one set$"):
            mask_from_elements(elements, 3)
    with pytest.raises(SchemaError, match="^invalid partition: element 2 is listed twice in one set$"):
        partition_from_json_dict({"intervals": [{"C": [2, 2], "D": [2]}]}, Poset.from_iterables(2, [[2]]))


def _elements_bit_by_bit(mask: int) -> tuple[int, ...]:
    """Every bit up to the highest set one, in turn: the walk the set-bit loop replaced."""
    out, i = [], 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def test_elements_from_mask_walks_only_the_set_bits():
    rng = random.Random(61)
    masks = [0, 1, 1 << 62, 1 << 60 | 5, (1 << 63) - 1, 1 << 200 | 1 << 3]
    masks += [sum(1 << rng.randrange(64) for _ in range(rng.randint(0, 6))) for _ in range(300)]
    for mask in masks:
        assert elements_from_mask(mask) == _elements_bit_by_bit(mask)
    assert elements_from_mask(1 << 60 | 5) == (1, 3, 61)


def test_elements_from_mask_refuses_a_negative_mask():
    assert elements_from_mask(0b1011) == (1, 2, 4)
    with pytest.raises(DomainError, match="set mask must be at least 0, got -1"):
        elements_from_mask(-1)


@pytest.mark.parametrize("element", ["1", 1.0, True], ids=["string", "float", "bool"])
def test_poset_elements_must_be_integers(element):
    with pytest.raises(DomainError, match=re.escape(f"element must be an integer, got {element!r}")):
        Poset.from_iterables(3, [[element]])
    with pytest.raises(DomainError, match=re.escape(f"element must be an integer, got {element!r}")):
        mask_from_elements([2, element], 3)


def test_ground_size_is_checked_before_any_mask_is_built():
    # a mask for element 10**29 would need 10**29 bits
    with pytest.raises(DomainError, match="ground size must lie in"):
        Poset.from_iterables(10**30, [[10**29]])
    with pytest.raises(DomainError, match="ground size must be an integer, got '3'"):
        Poset.from_iterables("3", [[1]])


def test_poset_qdepth_examples():
    assert poset_qdepth(worked_poset()).qdepth == 3
    assert poset_qdepth(Poset(1, frozenset({0}))).qdepth == 0
    proper = Poset.from_iterables(2, [[1], [2], [1, 2]])
    assert poset_qdepth(proper).qdepth == 1


def test_interval_disjointness_rule():
    c1 = mask_from_elements([1], 4)
    d1 = mask_from_elements([1, 3, 4], 4)
    c2 = mask_from_elements([2], 4)
    d2 = mask_from_elements([2, 3, 4], 4)
    assert intervals_disjoint(c1, d1, c2, d2)
    assert not intervals_disjoint(0, c1, c1, c1)
    assert set(interval_members(c1, d1)) == {
        mask_from_elements(e, 4) for e in ([1], [1, 3], [1, 4], [1, 3, 4])
    }


def test_interval_members_is_empty_when_bottom_is_not_under_top():
    assert list(interval_members(1, 2)) == []
    assert list(interval_members(0b101, 0b011)) == []
    assert list(interval_members(0b001, 0b011)) == [0b011, 0b001]
    assert list(interval_members(0b110, 0b110)) == [0b110]


@pytest.mark.parametrize("pair", [(1,), (1, 3, 3), 5, None], ids=["one", "three", "int", "none"])
def test_interval_partition_refuses_an_interval_that_is_not_a_pair(pair):
    with pytest.raises(DomainError, match=r"^interval 1 must be a \(bottom, top\) pair$"):
        IntervalPartition(Poset(3, frozenset({1, 3})), [(1, 3), pair])


def test_validate_partition_accepts_depth_three_cover():
    poset = worked_poset()
    partition = make_partition(
        poset,
        [
            ([1], [1, 3, 4]),
            ([2], [1, 2, 3]),
            ([1, 2, 4], [1, 2, 3, 4]),
            ([1, 2, 5], [1, 2, 3, 5]),
            ([1, 3, 5], [1, 3, 4, 5]),
            ([1, 4, 5], [1, 4, 5]),
            ([2, 4, 5], [2, 4, 5]),
            ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
        ],
    )
    report = validate_partition(partition)
    assert report.ok
    assert report.sdepth == 3


def test_validate_partition_rejects_member_outside_family():
    poset = worked_poset()
    pairs = [([1], [1, 3, 4]), ([2], [2, 3, 4])]
    covered = set()
    for c, d in pairs:
        covered |= set(interval_members(mask_from_elements(c, 7), mask_from_elements(d, 7)))
    singles = [(m, m) for m in sorted(poset.sets - covered)]
    partition = IntervalPartition(
        poset,
        tuple((mask_from_elements(c, 7), mask_from_elements(d, 7)) for c, d in pairs) + tuple(singles),
    )
    report = validate_partition(partition)
    assert not report.ok
    assert "not in the family" in report.reason


def test_validate_partition_rejects_overlap():
    poset = Poset.from_iterables(2, [[1], [1, 2]])
    empty = 0
    one = mask_from_elements([1], 2)
    partition = IntervalPartition(poset, ((empty, one), (one, one)))
    report = validate_partition(partition)
    assert not report.ok
    assert "overlap" in report.reason or "not in the family" in report.reason


def test_validate_partition_rejects_uncovered_member():
    poset = Poset.from_iterables(2, [[1], [2]])
    partition = make_partition(poset, [([1], [1])])
    report = validate_partition(partition)
    assert not report.ok
    assert "not covered" in report.reason


def test_validate_partition_rejects_inverted_bounds():
    poset = Poset.from_iterables(2, [[1], [1, 2]])
    partition = make_partition(poset, [([1, 2], [1]), ([1], [1])])
    report = validate_partition(partition)
    assert not report.ok
    assert "not contained" in report.reason


def test_empty_partition_has_no_sdepth():
    partition = IntervalPartition(Poset.from_iterables(2, [[1]]), ())
    assert validate_partition(partition).reason == "no intervals given"
    with pytest.raises(DomainError, match="no intervals given"):
        partition.sdepth


def _random_valid_partition(rng, family: list[int]) -> list:
    """Greedy partition: each unassigned set grows to a random free top in the family."""
    free = set(family)
    intervals = []
    for bottom in rng.sample(family, len(family)):
        if bottom not in free:
            continue
        tops = [d for d in free if d & bottom == bottom
                and all(m in free for m in interval_members(bottom, d))]
        top = rng.choice(tops)
        free.difference_update(interval_members(bottom, top))
        intervals.append((bottom, top))
    return intervals


def _corrupt(rng, n: int, family: list[int], intervals: list, roll: float | None = None) -> None:
    """One corruption: a duplicate, a dropped or an arbitrary interval; roll picks the kind."""
    roll = rng.random() if roll is None else roll
    if roll < 0.3:
        intervals.insert(rng.randint(0, len(intervals)), rng.choice(intervals))
    elif roll < 0.5 and len(intervals) > 1:
        intervals.pop(rng.randrange(len(intervals)))
    elif roll < 0.8:
        c = rng.choice(family)
        d = c | rng.choice(family) if rng.random() < 0.7 else c | rng.randrange(1 << n)
        intervals.insert(rng.randint(0, len(intervals)), (c, d))
    else:
        intervals.insert(rng.randint(0, len(intervals)), (rng.randrange(1 << n), rng.randrange(2 << n)))


def test_validate_partition_matches_pairwise_oracle():
    rng = random.Random(151)
    seen = set()
    for _ in range(10_000):
        n = rng.randint(1, 5)
        family = rng.sample(range(1 << n), rng.randint(1, min(1 << n, 14)))
        intervals = _random_valid_partition(rng, family)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            _corrupt(rng, n, family, intervals)
        poset = Poset(n, frozenset(family))
        report = validate_partition(IntervalPartition(poset, tuple(intervals)))
        expected = oracle_partition_report(n, poset.sets, intervals)
        assert (report.ok, report.sdepth, report.reason) == expected, intervals
        seen.add(expected[2].split()[0] if expected[2] else "valid")
    assert {"valid", "bottom", "top", "interval", "intervals", "family"} <= seen

    # up to 128 sets over [7], mostly one-set intervals in random order: there the checks on all
    # members at once differ most from a member-by-member scan; each kind of corruption once and twice
    seen.clear()
    for roll in (None, 0.1, 0.4, 0.6, 0.9):
        for count in (1, 2):
            family = rng.sample(range(1 << 7), rng.randint(64, 128))
            intervals = []
            for c, d in _random_valid_partition(rng, family):
                intervals += [(c, d)] if rng.random() < 0.2 else [(m, m) for m in interval_members(c, d)]
            rng.shuffle(intervals)
            for _ in range(0 if roll is None else count):
                _corrupt(rng, 7, family, intervals, roll)
            poset = Poset(7, frozenset(family))
            report = validate_partition(IntervalPartition(poset, tuple(intervals)))
            expected = oracle_partition_report(7, poset.sets, intervals)
            assert (report.ok, report.sdepth, report.reason) == expected, intervals
            seen.add(expected[2].split()[0] if expected[2] else "valid")
    assert {"valid", "interval", "intervals", "family"} <= seen

    # one wider interval among about 300 one-set intervals over [9], in random order, the shape of
    # realize's upper levels; each kind of corruption once and twice
    seen.clear()
    for roll in (None, 0.1, 0.4, 0.6, 0.9):
        for count in (1, 2):
            p = rng.randrange(7)
            d = rng.randrange(1 << 9) | 0b111 << p
            c = d & ~(rng.choice((0b011, 0b101, 0b111)) << p)  # two or three free elements
            inner = set(interval_members(c, d))
            family = list(inner | set(rng.sample(range(1 << 9), 300)))
            intervals = [(c, d)] + [(m, m) for m in family if m not in inner]
            rng.shuffle(intervals)
            for _ in range(0 if roll is None else count):
                _corrupt(rng, 9, family, intervals, roll)
            poset = Poset(9, frozenset(family))
            report = validate_partition(IntervalPartition(poset, tuple(intervals)))
            expected = oracle_partition_report(9, poset.sets, intervals)
            assert (report.ok, report.sdepth, report.reason) == expected, intervals
            seen.add(expected[2].split()[0] if expected[2] else "valid")
    assert {"valid", "interval", "intervals", "family"} <= seen


def test_validate_partition_never_reads_a_one_set_interval_through_interval_members(monkeypatch):
    rng = random.Random(27)
    family = rng.sample(range(1 << 7), 100)
    valid = []
    for c, d in _random_valid_partition(rng, family):
        valid += [(c, d)] if c != d and rng.random() < 0.5 else [(m, m) for m in interval_members(c, d)]
    rng.shuffle(valid)
    wide = [(c, d) for c, d in valid if c != d]
    outside = next(m for m in range(1 << 7) if m not in family)
    # a repeated wider interval and a repeated one-set interval, both last, so the walk passes every interval
    cases = {
        "valid": valid,
        "outside": valid + [(outside, outside)],
        "overlap": valid + wide[-1:],
        "overlap-single": valid + [next((c, d) for c, d in valid if c == d)],
        "missing": [iv for iv in valid if iv != wide[-1]],
    }
    real = posets.interval_members
    read = []

    def members(c, d):
        if c == d:
            pytest.fail(f"interval_members read the one-set interval [{c}, {d}]")
        read.append((c, d))
        return real(c, d)

    monkeypatch.setattr(posets, "interval_members", members)
    reasons = set()
    for name, intervals in cases.items():
        poset = Poset(7, frozenset(family))
        report = validate_partition(IntervalPartition(poset, tuple(intervals)))
        assert (report.ok, report.sdepth, report.reason) == oracle_partition_report(7, poset.sets, intervals), name
        reasons.add(report.reason.split()[0] if report.reason else "valid")
    assert reasons == {"valid", "interval", "intervals", "family"}
    assert len(wide) >= 3 and set(read) == set(wide)


def test_validate_partition_refuses_a_huge_interval_before_enumerating_it():
    poset = Poset.from_iterables(60, [[1], [2], [1, 2]])
    partition = IntervalPartition(poset, ((0, (1 << 60) - 1),))
    tracemalloc.start()
    try:
        report = validate_partition(partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    top = ",".join(str(e) for e in range(1, 61))
    assert report.reason == f"interval [{{}},{{{top}}}] contains {{{top}}}, which is not in the family"
    assert peak < 1_000_000


def test_validate_partition_reads_at_most_one_more_member_than_the_family(monkeypatch):
    # the family is the first five of the 2048 sets [{1}, [12]] lists, so the sixth lies outside it
    family = list(islice(interval_members(1, 4095), 5))
    sixth = list(islice(interval_members(1, 4095), 6))[-1]
    read = []
    real = posets.interval_members
    monkeypatch.setattr(posets, "interval_members", lambda c, d: (read.append(m) or m for m in real(c, d)))
    report = validate_partition(IntervalPartition(Poset(12, frozenset(family)), ((1, 4095),)))
    outside = ",".join(map(str, elements_from_mask(sixth)))
    assert report.reason == f"interval [{{1}},{{1,2,3,4,5,6,7,8,9,10,11,12}}] contains {{{outside}}}, which is not in the family"
    assert len(read) <= 2 * 6  # the subset test, then the scan naming the offender


def test_validate_partition_reads_each_member_of_a_valid_partition_once(monkeypatch):
    rng = random.Random(33)
    real = posets.interval_members
    read, wide_members = [], 0
    monkeypatch.setattr(posets, "interval_members", lambda c, d: (read.append(m) or m for m in real(c, d)))
    for _ in range(20):
        family = rng.sample(range(1 << 7), rng.randint(1, 100))
        intervals = _random_valid_partition(rng, family)
        read.clear()
        report = validate_partition(IntervalPartition(Poset(7, frozenset(family)), tuple(intervals)))
        assert report.ok
        # one-set intervals give their set without interval_members; every wider member is read once
        assert sorted(read) == sorted(m for c, d in intervals if c != d for m in real(c, d))
        wide_members += len(read)
    assert wide_members > 100


def test_validate_partition_refuses_over_budget_before_reading_a_member(monkeypatch):
    poset = Poset(12, frozenset(range(1 << 12)))
    whole = (0, (1 << 12) - 1)
    real = posets.interval_members
    monkeypatch.setattr(posets, "interval_members", lambda c, d: pytest.fail("a member was read"))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^intervals hold at least 40960000 members, over the budget of 2000000$"):
        validate_partition(IntervalPartition(poset, (whole,) * 10_000))
    assert time.perf_counter() - start < 0.5
    # each interval counts up to len(family) + 1 members, however large it is
    big = Poset(40, frozenset(range(1 << 12)))
    with pytest.raises(DomainError, match="at least 8194000 members"):
        validate_partition(IntervalPartition(big, ((0, (1 << 40) - 1),) * 2000))
    monkeypatch.setattr(posets, "interval_members", real)
    # at the budget the overlap is named, one interval past it the call is refused
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 2 << 12)
    report = validate_partition(IntervalPartition(poset, (whole,) * 2))
    assert report.reason == "intervals [{},{1,2,3,4,5,6,7,8,9,10,11,12}] and [{},{1,2,3,4,5,6,7,8,9,10,11,12}] overlap"
    with pytest.raises(DomainError, match="at least 12288 members, over the budget of 8192"):
        validate_partition(IntervalPartition(poset, (whole,) * 3))
    # a valid partition holds exactly len(family) members, so no budget refuses it
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 1)
    assert validate_partition(IntervalPartition(poset, (whole,))).ok
    assert validate_partition(IntervalPartition(poset, tuple((m, m) for m in range(1 << 12)))).ok
    with pytest.raises(DomainError, match="at least 4097 members, over the budget of 4096"):
        validate_partition(IntervalPartition(poset, (whole, (0, 0))))


def test_trivial_partition_is_valid():
    rng = random.Random(131)
    for _ in range(25):
        poset = random_poset(rng)
        partition = IntervalPartition(poset, tuple((m, m) for m in poset.sorted_masks()))
        report = validate_partition(partition)
        assert report.ok
        assert report.sdepth == min(poset.level_counts())


def test_sdepth_bruteforce_examples():
    proper = Poset.from_iterables(2, [[1], [2], [1, 2]])
    assert sdepth_bruteforce(proper).sdepth == 1
    result = sdepth_bruteforce(worked_poset())
    assert result.sdepth == 3
    assert validate_partition(result.partition).ok
    assert result.partition.sdepth == 3


def test_sdepth_bruteforce_of_full_interval_is_top_size():
    rng = random.Random(137)
    for _ in range(25):
        n = rng.randint(2, 6)
        top = rng.randrange(1, 1 << n)
        free = rng.randint(0, top.bit_count())
        bottom = top
        while bottom.bit_count() > top.bit_count() - free:
            bottom &= bottom - 1
        poset = Poset(n, frozenset(interval_members(bottom, top)))
        result = sdepth_bruteforce(poset)
        assert result.sdepth == top.bit_count()
        assert len(result.partition.intervals) == 1


def test_sdepth_bruteforce_respects_cap():
    poset = Poset(5, frozenset(range(1, 20)))
    with pytest.raises(DomainError):
        sdepth_bruteforce(poset, cap=10)


def test_sdepth_bruteforce_refuses_a_negative_cap():
    with pytest.raises(DomainError, match="^cap must be at least 0, got -1$"):
        sdepth_bruteforce(Poset.from_iterables(3, [[1]]), cap=-1)


def test_sdepth_bruteforce_checks_cap_before_sorting(monkeypatch):
    poset = Poset(20, frozenset(range(1 << 20)))

    def refuse(self):
        raise AssertionError("the family was sorted before the cap was checked")

    monkeypatch.setattr(Poset, "sorted_masks", refuse)
    with pytest.raises(DomainError, match=r"^family has 1048576 members, exhaustive search is capped at 24$"):
        sdepth_bruteforce(poset)


def test_sdepth_never_exceeds_poset_depth():
    rng = random.Random(139)
    for _ in range(120):
        poset = random_poset(rng)
        assert sdepth_bruteforce(poset).sdepth <= poset_qdepth(poset).qdepth


def test_squarefree_veronese_depth():
    # P_{n,k}, all subsets of [n] with at least k elements: Cimpoeas's k + (n - k) // (k + 1)
    for n in range(1, 11):
        for k in range(1, n + 1):
            poset = Poset(n, frozenset(m for m in range(1 << n) if m.bit_count() >= k))
            assert poset_qdepth(poset).qdepth == k + (n - k) // (k + 1), (n, k)


def test_squarefree_veronese_partition_depth():
    # the same formula for sdepth, on every P_{n,k} the search finishes in under a second:
    # about 1.5 s for all of them (CPython 3.11, shared 2-vCPU host)
    cases = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    cases += [(7, 1), *((7, k) for k in range(4, 8)), *((8, k) for k in range(5, 9))]
    for n, k in cases:
        poset = Poset(n, frozenset(m for m in range(1 << n) if m.bit_count() >= k))
        result = sdepth_bruteforce(poset, cap=len(poset))
        assert result.sdepth == k + (n - k) // (k + 1), (n, k)
        assert validate_partition(result.partition).ok, (n, k)


def test_sdepth_of_a_large_antichain():
    # 1,287 one-set intervals, one per five-element subset of [13]: more intervals
    # than the interpreter's default recursion limit of 1,000
    sets = frozenset(mask_from_elements(c, 13) for c in combinations(range(1, 14), 5))
    poset = Poset(13, sets)
    result = sdepth_bruteforce(poset, cap=len(poset))
    assert result.sdepth == 5
    assert result.partition.intervals == tuple((m, m) for m in poset.sorted_masks())
    assert validate_partition(result.partition).ok


def _upsets(n: int) -> list:
    """Every up-set of subsets of [n], the empty one included, as frozensets of masks.

    An up-set over [n] is a pair U0 <= U1 of up-sets over [n - 1]: the sets
    without element n, and the sets with it, with n removed.
    """
    if n == 0:
        return [frozenset(), frozenset({0})]
    smaller, bit = _upsets(n - 1), 1 << (n - 1)
    return [low | {m | bit for m in high} for high in smaller for low in smaller if low <= high]


def test_no_sdepth_gap_among_upsets_over_four():
    upsets = [u for u in _upsets(4) if u]
    assert len(upsets) == 167
    for sets in upsets:
        poset = Poset(4, sets)
        assert sdepth_bruteforce(poset, cap=len(poset)).sdepth == poset_qdepth(poset).qdepth, sorted(sets)


def test_sdepth_census_of_upsets_over_five():
    upsets = [u for u in _upsets(5) if u]
    assert len(upsets) == 7580
    gaps = []
    for sets in upsets:
        poset = Poset(5, sets)
        result = sdepth_bruteforce(poset, cap=len(poset))
        assert (result.sdepth, result.partition.intervals) == oracle_sdepth_search(sorted(sets)), sorted(sets)
        gap = poset_qdepth(poset).qdepth - result.sdepth
        assert gap in (0, 1), sorted(sets)
        if gap:
            gaps.append(sets)
    assert len(gaps) == 670
    generators = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 4, 5]]
    masks = [mask_from_elements(g, 5) for g in generators]
    example = frozenset(m for m in range(32) if any(m & g == g for g in masks))
    assert example in gaps
    poset = Poset(5, example)
    assert (len(poset), poset.level_counts()) == (11, {3: 5, 4: 5, 5: 1})
    assert (poset_qdepth(poset).qdepth, sdepth_bruteforce(poset).sdepth) == (4, 3)


def _families(rng, n: int, count: int):
    for _ in range(count):
        sets = [m for m in range(1 << n) if rng.random() < 0.5]
        yield n, sets or [rng.randrange(1 << n)]


def test_sdepth_bruteforce_matches_memo_oracle():
    rng = random.Random(157)
    every_over_3 = [(3, [m for m in range(8) if f >> m & 1]) for f in range(1, 256)]
    hard = [(6, [m for m in range(64) if m.bit_count() >= k]) for k in (1, 2, 3)]
    # every family over [4] is checked against the same oracle in the census test below
    for n, sets in [*every_over_3, *_families(rng, 5, 150), *hard]:
        result = sdepth_bruteforce(Poset(n, frozenset(sets)), cap=len(sets))
        assert (result.sdepth, result.partition.intervals) == oracle_sdepth_search(sets), sets
        if n == 3:
            assert result.sdepth == plain_sdepth(sets), sets
        if n == 6:
            assert result.sdepth == 3
    # sparse families over [63]: ground elements no set holds, and element 63
    for _, sets in _families(rng, 4, 300):
        spots = [*sorted(rng.sample(range(62), 3)), 62]
        spread = {m: sum(1 << spots[e] for e in range(4) if m >> e & 1) for m in sets}
        sdepth, intervals = oracle_sdepth_search(sets)
        result = sdepth_bruteforce(Poset(63, frozenset(spread.values())), cap=len(sets))
        assert result.sdepth == sdepth, (spots, sets)
        assert result.partition.intervals == tuple((spread[c], spread[d]) for c, d in intervals), (spots, sets)
    # P_{6,2} and P_{6,3} less 1-4 sets: the whole-interval check prunes most here
    for _ in range(10):
        sets = [m for m in range(64) if m.bit_count() >= rng.choice((2, 3))]
        for m in rng.sample(sets, rng.randint(1, 4)):
            sets.remove(m)
        result = sdepth_bruteforce(Poset(6, frozenset(sets)), cap=len(sets))
        assert (result.sdepth, result.partition.intervals) == oracle_sdepth_search(sets), sets


def _forced_bottom_bound(family) -> int:
    """The forced-bottom bound of a family over [4], from its definition.

    The least, over the members with no other member below them, of the
    largest top D of an interval [C, D] whose every set lies in the family.
    """
    def whole(c, d):
        free = d & ~c
        return all(c | m in family for m in range(free + 1) if m & ~free == 0)

    minimal = [c for c in family if not any(b != c and b & ~c == 0 for b in family)]
    return min(max(d.bit_count() for d in family if c & ~d == 0 and whole(c, d)) for c in minimal)


def test_sdepth_bruteforce_matches_memo_oracle_on_every_family_over_four(census_over_four):
    # beside the search, the level counts the Poset takes in its own pass: the level sequence and
    # poset_qdepth match a FiniteSequence built publicly from the popcount levels, and its depth oracle
    sizes = [bin(m).count("1") for m in range(16)]
    public = {}  # level vector -> (FiniteSequence, oracle depth); at most 2 * 5 * 7 * 5 * 2 = 700 of them
    assert len(census_over_four) == (1 << 16) - 1
    for sets, sdepth, intervals, poset_depth in census_over_four:
        assert (sdepth, intervals) == oracle_sdepth_search(sets), sets
        levels = [0] * 5
        for m in sets:
            levels[sizes[m]] += 1
        key = tuple(levels)
        if key not in public:
            h = FiniteSequence(0, levels)
            public[key] = h, oracle_qdepth(h)
        h, depth = public[key]
        assert Poset(4, frozenset(sets)).level_sequence() == h, sets
        assert poset_depth == depth, sets
    assert len(public) == 699  # every vector but the empty family's


# the ids give where the least, over the sets, of their largest superset's size would start the search
@pytest.mark.parametrize("family, tried", [
    ([[], [1, 2, 3, 4]], [0]),
    ([[1], [2], [1, 2], [1, 2, 3, 4]], [2, 1]),
    ([[], [1], [2], [1, 2], [3], [1, 3], [2, 3], [1, 2, 3], [4], [1, 2, 3, 4]], [3, 2, 1]),
    ([[], [1], [2], [1, 2], [3]], [2, 1]),
], ids=["superset-bound-4", "superset-bound-4-sdepth-1", "superset-bound-4-sdepth-1-of-10", "superset-bound-1"])
def test_sdepth_bruteforce_first_threshold_is_the_forced_bottom_bound(monkeypatch, family, tried):
    # cover bisects the sizes once per threshold, so the calls list the thresholds tried
    thresholds = []
    real = posets.bisect_left
    monkeypatch.setattr(posets, "bisect_left", lambda a, t: thresholds.append(t) or real(a, t))
    poset = Poset.from_iterables(4, family)
    result = sdepth_bruteforce(poset)
    assert _forced_bottom_bound(poset.sets) == tried[0]
    assert thresholds == tried
    assert result.sdepth == tried[-1] == plain_sdepth(poset.sets)


def test_sdepth_of_a_product_is_at_least_the_sum():
    # P x Q = {A | B << 2} over [5]; the products of the intervals of partitions
    # of P and Q partition it, with depth the sum of theirs
    rng = random.Random(163)
    pairs = 0
    while pairs < 300:
        p = [m for m in range(4) if rng.random() < 0.5]
        q = [m for m in range(8) if rng.random() < 0.5]
        if not p or not q or len(p) * len(q) > 24:
            continue
        pairs += 1
        left = sdepth_bruteforce(Poset(2, frozenset(p)))
        right = sdepth_bruteforce(Poset(3, frozenset(q)))
        product = [a | b << 2 for a in p for b in q]
        intervals = tuple(
            (c | e << 2, d | f << 2) for c, d in left.partition.intervals for e, f in right.partition.intervals
        )
        partition = IntervalPartition(Poset(5, frozenset(product)), intervals)
        assert validate_partition(partition).ok, (p, q)
        assert partition.sdepth == left.sdepth + right.sdepth
        result = sdepth_bruteforce(partition.target)
        assert (result.sdepth, result.partition.intervals) == oracle_sdepth_search(product), (p, q)
        assert result.sdepth >= partition.sdepth, (p, q)


def test_counting_identity_examples():
    assert counting_identity_check(3, (2, 0, 5), {1: 2, 2: 4, 3: 7})
    assert not counting_identity_check(3, (2, 0, 5), {1: 2, 2: 5, 3: 7})
    d = 5
    k0 = 2
    levels = {k: binomial(d - k0, k - k0) for k in range(k0, d + 1)}
    assert counting_identity_check(d, {k0: 1}, levels)


def test_counting_identity_against_enumeration():
    rng = random.Random(149)
    for _ in range(40):
        d = rng.randint(1, 5)
        b = [rng.randint(0, 3) for _ in range(d)]
        if not any(b):
            b[rng.randrange(d)] = 1
        levels = {}
        base = 0
        for j in range(1, d + 1):
            for _ in range(b[j - 1]):
                bottom = ((1 << j) - 1) << base
                top = ((1 << d) - 1) << base
                for member in interval_members(bottom, top):
                    k = member.bit_count()
                    levels[k] = levels.get(k, 0) + 1
                base += d
        assert counting_identity_check(d, b, levels)


def test_realize_worked_example():
    result = realize(FiniteSequence(-2, [2, 4, 7, 3, 1]))
    assert result.m == -3
    assert result.depth == 3
    assert result.b == (2, 0, 5)
    assert result.validation.ok
    assert result.poset.level_counts() == {1: 2, 2: 4, 3: 7, 4: 3, 5: 1}
    assert result.partition.sdepth == 3
    assert poset_qdepth(result.poset).qdepth == 3
    confirmed = sdepth_bruteforce(result.poset)
    assert confirmed.sdepth == 3


def test_realize_single_point():
    result = realize(FiniteSequence(0, [1]))
    assert result.depth == 1
    assert result.b == (1,)
    assert result.partition.intervals == ((1, 1),)
    assert result.poset.level_counts() == {1: 1}


def test_realize_small_example():
    result = realize(FiniteSequence(1, [2, 1]))
    assert result.validation.ok
    assert result.poset.level_counts() == {1: 2, 2: 1}
    assert result.partition.sdepth == result.depth == poset_qdepth(result.poset).qdepth


def test_realize_random_round_trip():
    rng = random.Random(151)
    for _ in range(40):
        width = rng.randint(1, 6)
        values = [rng.randint(0, 8) for _ in range(width)]
        if not any(values):
            values[rng.randrange(width)] = rng.randint(1, 8)
        h = FiniteSequence(rng.randint(-4, 4), values)
        result = realize(h)
        assert result.validation.ok
        expected = {
            j - result.m: h.value_at(j)
            for j in range(h.offset, h.support_end + 1)
            if h.value_at(j)
        }
        assert result.poset.level_counts() == expected
        assert result.partition.sdepth == result.depth
        assert poset_qdepth(result.poset).qdepth == result.depth
        assert result.depth == qdepth_value(h) - result.m
        if len(result.poset) <= 20:
            assert sdepth_bruteforce(result.poset).sdepth == result.depth


def test_realize_tail_covers_window_only():
    tails = [
        GeometricSequence(1, 2),
        GeometricSequence(1, 1),
        GeometricSequence(2, 2, 2),
        PolynomialSequence([1, 1]),
        PolynomialSequence([1, 0, 1], 1),
        PolynomialSequence([1, 1, 1]),  # depth 4 on 52 ground elements
    ]
    for h in tails:
        result = realize(h)
        assert result.validation.ok
        assert result.depth == qdepth_value(h) - result.m
        g = h.shifted(result.m)
        assert result.poset.level_counts() == {
            j: g.value_at(j) for j in range(1, result.depth + 1)
        }
        assert poset_qdepth(result.poset).qdepth == result.depth, h


def test_realize_respects_ground_cap():
    # b = (1, 61): 62 windows of two elements end at element 63; b = (1, 62) would reach element 64
    result = realize(FiniteSequence(1, [1, 62]))
    assert (result.ground_size, result.b, result.validation.ok) == (63, (1, 61), True)
    with pytest.raises(DomainError, match="^realization needs 64 ground elements, beyond the 63 cap$"):
        realize(FiniteSequence(1, [1, 63]))


def _smallest_ground(counts: dict, start: int) -> int:
    """The smallest n >= start with C(n, k) >= counts[k] on every level k."""
    n = start
    while any(binomial(n, k) < c for k, c in counts.items()):
        n += 1
    return n


def test_realize_lays_windows_on_one_ground():
    rng = random.Random(2001)  # the inputs of acceptance criterion 8
    for _ in range(100):
        result = realize(random_finite(rng, 6, 8, -4, 4))
        d, b, counts = result.depth, result.b, result.poset.level_counts()
        upper = {k: c for k, c in counts.items() if k > d}
        windows = result.partition.intervals[:sum(b)]
        assert [(c.bit_count(), t.bit_count()) for c, t in windows] == [
            (j, d) for j in range(1, d + 1) for _ in range(b[j - 1])
        ]
        # the windows' span, or the smallest ground past the top level holding every level above d
        assert result.ground_size == max(sum(b) + d - 1, _smallest_ground(upper, max(upper, default=0)))
        # interval i's bottom holds element i + 1, and no later top holds it
        for i, (c, _) in enumerate(windows):
            assert c >> i & 1
            assert not any(t >> i & 1 for _, t in windows[i + 1:])
        lower = max(d, max(counts), _smallest_ground(counts, 0))
        assert lower <= result.ground_size <= 2 * lower
        # never more than the d * sum(b) elements of one block per interval, plus a pool for the upper levels
        assert result.ground_size <= d * sum(b) + _smallest_ground(upper, max(upper, default=0))


@pytest.mark.parametrize("h, ground", [
    (PolynomialSequence([1, 3]), 17), (PolynomialSequence([1, 5]), 19), (GeometricSequence(1, 3), 30),
], ids=["1+3j", "1+5j", "3^j"])
def test_realize_fits_tails_a_block_per_interval_could_not(h, ground):
    # one block of d elements per interval took 65, 64 and 108 elements, past the 63 cap
    result = realize(h)
    assert result.ground_size == ground
    assert validate_partition(result.partition).ok
    g = h.shifted(result.m)
    assert result.poset.level_counts() == {j: g.value_at(j) for j in range(1, result.depth + 1)}
    assert poset_qdepth(result.poset).qdepth == result.depth == qdepth_value(h) - result.m


@pytest.mark.parametrize("values", [[1, 10**9], [1, 0, 10**9]], ids=["blocks", "singletons"])
def test_realize_rejects_over_cap_before_allocating(values):
    h = FiniteSequence(1, values)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="beyond the 63 cap"):
            realize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_realize_refuses_a_family_over_the_budget_before_building_a_set():
    # the level counts C(25, k) fit 26 ground elements, as one interval of 2^25 members
    h = FiniteSequence(1, [binomial(25, k) for k in range(26)])
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^realization needs 33554432 family members, over the budget of 2000000$"):
            realize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_realize_family_budget_admits_a_family_at_the_budget(monkeypatch):
    # budget 8 leaves an entry span of 2, and budget 1 a span of 0: depth-1 inputs, one row each
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 8)
    assert len(realize(FiniteSequence(1, [8])).poset) == 8
    with pytest.raises(DomainError, match="^realization needs 9 family members, over the budget of 8$"):
        realize(FiniteSequence(1, [9]))
    # the ground check comes first, so its message stays
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 1)
    with pytest.raises(DomainError, match="^realization needs 100 ground elements, beyond the 63 cap$"):
        realize(FiniteSequence(1, [100]))


def test_poset_json_round_trip():
    poset = worked_poset()
    assert poset_from_json_dict(poset.to_json_dict()) == poset
    partition = sdepth_bruteforce(poset).partition
    parsed = partition_from_json_dict(partition.to_json_dict(), poset)
    assert parsed.intervals == partition.intervals


def test_poset_json_schema_violations():
    for bad in [
        7,
        {"n": 2},
        {"n": 2, "sets": "nope"},
        {"n": 2, "sets": [[1]], "extra": 1},
        {"n": 2, "sets": [[3]]},
        {"n": True, "sets": [[1]]},
    ]:
        with pytest.raises(SchemaError):
            poset_from_json_dict(bad)
    poset = Poset.from_iterables(2, [[1]])
    for bad in [
        7,
        {"intervals": 3},
        {"intervals": [], "extra": 1},
        {"intervals": [{"C": [1]}]},
        {"intervals": [{"C": 1, "D": [1]}]},
        {"intervals": [{"C": [1], "D": [3]}]},
    ]:
        with pytest.raises(SchemaError):
            partition_from_json_dict(bad, poset)
