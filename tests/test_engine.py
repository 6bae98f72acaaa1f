"""Depth computation, certificates, and the side conditions."""

import copy
import math
import pickle
import random

import pytest

from helpers import growth_sequence, oracle_qdepth, random_finite, random_sequence
from qdepth import (
    DomainError,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    add,
    beta,
    depth_upper_bound,
    monomial_plus_constant,
    necessary_condition_holds,
    qdepth,
    qdepth_at_least,
    qdepth_value,
    sufficient_condition_holds,
)
from qdepth import engine, sequences

WORKED = FiniteSequence(-2, [2, 4, 7, 3, 1])


def falling_factorial(d: int) -> FiniteSequence:
    return FiniteSequence(0, [math.factorial(d) // math.factorial(d - j) for j in range(d + 1)])


def test_qdepth_worked_example():
    g = WORKED.shifted(-3)
    result = qdepth(g)
    assert result.qdepth == 3
    assert result.upper_bound_used == 3
    assert result.accepted_table.entries == {1: 2, 2: 0, 3: 5}
    assert result.rejections == ()
    assert qdepth_value(WORKED) == 0


def test_qdepth_geometric_equals_ratio():
    for a in range(1, 6):
        for r in range(1, 13):
            assert qdepth_value(GeometricSequence(a, r)) == r


def test_qdepth_single_point_is_support_start():
    result = qdepth(FiniteSequence(5, [9]))
    assert result.qdepth == 5
    assert result.upper_bound_used == 5


def test_qdepth_of_linear_unit_tail():
    assert qdepth_value(PolynomialSequence([1, 1])) == 2


def test_qdepth_falling_factorial():
    for d in range(1, 7):
        assert qdepth_value(falling_factorial(d)) == d


def test_qdepth_matches_independent_scan():
    rng = random.Random(53)
    for _ in range(120):
        h = random_finite(rng, max_window=6, max_value=12)
        assert qdepth_value(h) == oracle_qdepth(h)
    for _ in range(40):
        h = random_sequence(rng)
        assert qdepth_value(h) == oracle_qdepth(h)


def test_result_certificates():
    rng = random.Random(59)
    for _ in range(120):
        h = random_sequence(rng)
        st = h.stats()
        result = qdepth(h)
        ub = depth_upper_bound(h)
        assert result.upper_bound_used == ub
        assert st.k0 <= result.qdepth <= ub
        assert result.accepted_table.first_negative is None
        assert all(v >= 0 for v in result.accepted_table.entries.values())
        assert sorted(r.d for r in result.rejections) == list(range(result.qdepth + 1, ub + 1))
        for r in result.rejections:
            assert r.beta < 0
            assert r.k <= r.d
            assert beta(h, r.k, r.d) == r.beta


def test_qdepth_at_least_examples():
    check = qdepth_at_least(PolynomialSequence([1, 0, 0, 15]), 16)
    assert not check.ok
    assert check.witness_k == 3
    assert check.witness_beta == -168
    assert qdepth_at_least(WORKED, -2).ok
    assert qdepth_at_least(WORKED.shifted(-3), 3).ok
    with pytest.raises(DomainError):
        qdepth_at_least(WORKED, -3)


def test_qdepth_at_least_scans_only_the_search_span(monkeypatch):
    # rows k0..d hold (d - k0 + 1)(d - k0 + 2) / 2 entries: 66 at d - k0 = 10, 78 at 11
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 66)
    with pytest.raises(DomainError, match="transform rows up to d=11 need 78 transform entries, over the budget of 66"):
        qdepth_at_least(GeometricSequence(1, 11), 11)
    assert qdepth_at_least(GeometricSequence(1, 11), 10).ok
    monkeypatch.undo()
    # past the budget the row is refused even where one direct sum would show a negative entry
    p = PolynomialSequence([1, 10**6])
    with pytest.raises(DomainError, match="transform rows up to d=1000000 need"):
        qdepth_at_least(p, 10**6)
    assert [beta(p, k, 10**6) < 0 for k in range(3)] == [False, False, True]


def test_qdepth_at_least_reads_rows_not_direct_sums(monkeypatch):
    def direct_sum(*args):
        raise AssertionError("qdepth_at_least evaluated a direct sum")

    monkeypatch.setattr(sequences, "beta", direct_sum)
    monkeypatch.setattr(engine, "beta", direct_sum)
    check = qdepth_at_least(GeometricSequence(1, 10**6), 400)
    assert check == engine.DepthCheck(True)
    check = qdepth_at_least(PolynomialSequence([1, 0, 0, 15]), 16)
    assert (check.ok, check.witness_k, check.witness_beta) == (False, 3, -168)


def test_monotone_acceptance_below_depth():
    rng = random.Random(61)
    for _ in range(80):
        h = random_sequence(rng)
        st = h.stats()
        result = qdepth(h)
        d = result.qdepth
        for dp in range(st.k0, d + 1):
            assert qdepth_at_least(h, dp).ok
        dp = rng.randint(st.k0, d)
        for k in range(st.k0, dp + 1):
            assert beta(h, k, dp) >= beta(h, k, d) >= 0


def test_rejection_above_depth():
    rng = random.Random(67)
    for _ in range(80):
        h = random_sequence(rng)
        result = qdepth(h)
        for dp in range(result.qdepth + 1, result.upper_bound_used + 1):
            check = qdepth_at_least(h, dp)
            assert not check.ok
            assert check.witness_beta < 0


def test_necessary_condition_examples():
    assert not necessary_condition_holds(FiniteSequence(0, [1, 1, 1]), 2)
    rng = random.Random(71)
    for _ in range(60):
        h = random_sequence(rng)
        st = h.stats()
        assert necessary_condition_holds(h, st.k0)
        assert necessary_condition_holds(h, qdepth_value(h))
    with pytest.raises(DomainError, match="lies below the support start -2"):
        necessary_condition_holds(WORKED, -3)


def test_sufficient_condition_examples():
    for r in range(1, 9):
        assert sufficient_condition_holds(GeometricSequence(1, r), r)
    for d in range(1, 8):
        assert sufficient_condition_holds(falling_factorial(d), d)
    assert not sufficient_condition_holds(FiniteSequence(0, [1, 1]), 2)
    with pytest.raises(DomainError, match="lies below the support start -2"):
        sufficient_condition_holds(WORKED, -3)


def test_implication_chain():
    rng = random.Random(73)
    hit_sufficient = 0
    for i in range(150):
        if i % 2:
            target = rng.randint(1, 6)
            h = growth_sequence(rng, target)
            d = max(h.stats().k0, target - rng.randint(0, 2))
        else:
            h = random_sequence(rng)
            d = h.stats().k0 + rng.randint(0, 6)
        at_least_d = qdepth_value(h) >= d
        if sufficient_condition_holds(h, d):
            hit_sufficient += 1
            assert at_least_d
        if at_least_d:
            assert necessary_condition_holds(h, d)
    assert hit_sufficient >= 30


def test_scale_law():
    rng = random.Random(79)
    for _ in range(60):
        h = random_sequence(rng)
        base = qdepth_value(h)
        for c in (1, 2, 3, 7, 100):
            assert qdepth_value(h.scaled(c)) == base


def test_sum_law():
    rng = random.Random(83)
    for _ in range(80):
        g = random_finite(rng)
        h = random_finite(rng)
        assert qdepth_value(add(g, h)) >= min(qdepth_value(g), qdepth_value(h))


def test_shift_law():
    rng = random.Random(89)
    for _ in range(60):
        h = random_sequence(rng)
        base = qdepth_value(h)
        for m in range(-5, 6):
            assert qdepth_value(h.shifted(m)) == base - m


def test_factorial_shift_law():
    for d in (3, 5):
        h = falling_factorial(d)
        for m in range(-3, 4):
            assert qdepth_value(h.shifted(m)) == d - m


def test_diagonal_entry_positive_for_monomial_tails():
    rng = random.Random(97)
    for _ in range(80):
        a = rng.randint(1, 12)
        b = rng.randint(1, 12)
        n = rng.randint(1, 4)
        h = PolynomialSequence([b] + [0] * (n - 1) + [a])
        ub = depth_upper_bound(h)
        for d in range(1, ub + 1):
            assert beta(h, d, d) > 0


@pytest.fixture
def row_counter(monkeypatch):
    """Counts the calls to engine.beta_rows and the rows they yield."""
    counts = {"calls": 0, "rows": 0}
    original = engine.beta_rows

    def counting(h, up_to):
        counts["calls"] += 1
        for item in original(h, up_to):
            counts["rows"] += 1
            yield item

    monkeypatch.setattr(engine, "beta_rows", counting)
    return counts


def test_search_stops_at_first_negative_row(row_counter):
    h = monomial_plus_constant(10**12, 1, 1)
    result = qdepth(h)
    assert result.qdepth == 3
    assert result.upper_bound_used == 10**12 + 1
    assert row_counter["rows"] <= result.qdepth - h.stats().k0 + 2


def test_search_builds_rows_up_to_answer_plus_one(row_counter):
    rng = random.Random(101)
    for _ in range(150):
        h = random_sequence(rng)
        row_counter["rows"] = 0
        result = qdepth(h)
        top = min(result.qdepth + 1, result.upper_bound_used)
        assert row_counter["rows"] == top - h.stats().k0 + 1


def test_rejections_built_once_on_first_access(row_counter):
    h = PolynomialSequence([1, 0, 0, 15])
    result = qdepth(h)
    assert row_counter["calls"] == 1
    first = result.rejections
    assert row_counter["calls"] == 2
    assert result.rejections is first
    assert row_counter["calls"] == 2
    assert [r.d for r in first] == list(range(result.upper_bound_used, result.qdepth, -1))


def test_rejections_empty_at_the_bound_without_a_scan(row_counter):
    result = qdepth(GeometricSequence(2, 7))
    assert result.qdepth == result.upper_bound_used == 7
    assert result.rejections == ()
    assert row_counter["calls"] == 1


def test_rejections_over_budget_raise_before_building(row_counter):
    h = PolynomialSequence([1, 10**6])
    result = qdepth(h)
    assert result.qdepth == 3
    span = result.upper_bound_used - h.stats().k0
    rows = row_counter["rows"]
    with pytest.raises(DomainError, match=f"need {(span + 1) * (span + 2) // 2} transform entries"):
        result.rejections
    assert row_counter["rows"] == rows
    # the JSON form lists only the witness, so it needs no second scan
    assert result.to_json_dict()["rejections"] == [{"d": 4, "k": 2, "beta": "-999996"}]
    assert row_counter["rows"] == rows


def test_rejection_budget_counts_every_row_entry(monkeypatch):
    # a*j + 1 has k0 = 0 and bound a + 1; the scan over rows 0..span holds
    # (span + 1)(span + 2) / 2 entries, 21 at span 5 and 28 at span 6
    monkeypatch.setattr("qdepth.sequences.ENTRY_BUDGET", 21)
    assert qdepth(monomial_plus_constant(4, 1, 1)).rejections == (engine.Rejection(5, 2, -1),)
    with pytest.raises(DomainError, match="need 28 transform entries, over the budget of 21"):
        qdepth(monomial_plus_constant(5, 1, 1)).rejections


def test_result_value_semantics_do_not_force_rejections(row_counter):
    h = PolynomialSequence([1, 0, 0, 15])
    result = qdepth(h)
    assert "rejections" not in repr(result)
    assert repr(result).startswith("QDepthResult(qdepth=7, ")
    assert result == qdepth(PolynomialSequence([1, 0, 0, 15]))
    assert result != qdepth(h.scaled(2))
    for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert twin == result
        assert twin.sequence == h
    assert row_counter["calls"] == 3
    twin = pickle.loads(pickle.dumps(result))
    assert twin.rejections == result.rejections
    assert row_counter["calls"] == 5


def test_search_span_is_the_largest_within_the_entry_budget():
    span, budget = engine.ENTRY_SPAN, sequences.ENTRY_BUDGET
    assert span == 1998
    assert (span + 1) * (span + 2) // 2 <= budget < (span + 2) * (span + 3) // 2


def test_search_builds_at_most_span_plus_one_rows(row_counter):
    # binomial(3000, k) has depth 3000 = bound: no row up to the span is negative
    h = FiniteSequence(0, [math.comb(3000, k) for k in range(3001)])
    with pytest.raises(DomainError, match="no negative row up to d=1998, and the bound d=3000"):
        qdepth(h)
    assert row_counter == {"calls": 1, "rows": engine.ENTRY_SPAN + 1}


def test_search_span_caps_only_unresolved_searches(monkeypatch, row_counter):
    monkeypatch.setattr(engine, "ENTRY_SPAN", 10)
    for shift in (-2, 0, 3):
        assert qdepth_value(GeometricSequence(1, 10, shift)) == 10 - shift
        row_counter["rows"] = 0
        with pytest.raises(DomainError, match=f"up to d={10 - shift}, and the bound d={11 - shift}"):
            qdepth(GeometricSequence(1, 11, shift))
        assert row_counter["rows"] == 11
    assert qdepth_value(PolynomialSequence([1, 10**6])) == 3
