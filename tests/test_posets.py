"""Families of subsets, interval partitions, search, and realization."""

import random
import tracemalloc

import pytest

from helpers import (
    counting_identity_check,
    intervals_disjoint,
    oracle_partition_report,
    oracle_sdepth_search,
    plain_sdepth,
)
from qdepth import (
    DomainError,
    FiniteSequence,
    GeometricSequence,
    IntervalPartition,
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


def test_poset_validation():
    with pytest.raises(DomainError):
        Poset(0, frozenset({1}))
    with pytest.raises(DomainError):
        Poset(64, frozenset({1}))
    with pytest.raises(DomainError):
        Poset(2, frozenset())
    with pytest.raises(DomainError, match="ground size must be an integer"):
        Poset(2.0, frozenset({1}))
    with pytest.raises(DomainError, match="set mask must be a non-negative integer, got -1"):
        Poset(2, frozenset({-1}))
    with pytest.raises(DomainError):
        Poset(2, frozenset({8}))
    with pytest.raises(DomainError):
        Poset.from_iterables(2, [[3]])


@pytest.mark.parametrize(
    "bounds", [(-1, 3), (1, -3), (1.9, 3.7), (True, 3), ("1", "3")],
    ids=["negative", "negative-top", "float", "bool", "string"],
)
def test_interval_bounds_must_be_set_masks(bounds):
    with pytest.raises(DomainError, match="set mask must be a non-negative integer"):
        IntervalPartition(Poset(3, frozenset({1, 3})), [bounds])


def test_elements_from_mask_refuses_a_negative_mask():
    assert elements_from_mask(0b1011) == (1, 2, 4)
    with pytest.raises(DomainError, match="set mask must be a non-negative integer, got -1"):
        elements_from_mask(-1)


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


def _corrupt(rng, n: int, family: list[int], intervals: list) -> None:
    """One random corruption: a duplicate, a dropped or an arbitrary interval."""
    roll = rng.random()
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


def test_sdepth_never_exceeds_poset_depth():
    rng = random.Random(139)
    for _ in range(120):
        poset = random_poset(rng)
        assert sdepth_bruteforce(poset).sdepth <= poset_qdepth(poset).qdepth


def _families(rng, n: int, count: int):
    for _ in range(count):
        sets = [m for m in range(1 << n) if rng.random() < 0.5]
        yield n, sets or [rng.randrange(1 << n)]


def test_sdepth_bruteforce_matches_memo_oracle():
    rng = random.Random(157)
    every_over_3 = [(3, [m for m in range(8) if f >> m & 1]) for f in range(1, 256)]
    hard = [(6, [m for m in range(64) if m.bit_count() >= k]) for k in (1, 2, 3)]
    for n, sets in [*every_over_3, *_families(rng, 4, 2000), *_families(rng, 5, 150), *hard]:
        result = sdepth_bruteforce(Poset(n, frozenset(sets)), cap=len(sets))
        assert (result.sdepth, result.partition.intervals) == oracle_sdepth_search(sets), sets
        if n == 3:
            assert result.sdepth == plain_sdepth(sets), sets
        if n == 6:
            assert result.sdepth == 3


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
    h = GeometricSequence(1, 2)
    result = realize(h)
    assert result.validation.ok
    assert result.depth == qdepth_value(h) - result.m
    g = h.shifted(result.m)
    assert result.poset.level_counts() == {
        j: g.value_at(j) for j in range(1, result.depth + 1)
    }
    assert poset_qdepth(result.poset).qdepth == result.depth


def test_realize_respects_ground_cap():
    with pytest.raises(DomainError):
        realize(FiniteSequence(1, [1, 50]))


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
