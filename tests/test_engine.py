"""Depth computation, certificates, and the side conditions."""

import copy
import math
import pickle
import random
import time

import pytest

from helpers import (
    growth_sequence, oracle_beta, oracle_qdepth, pascal_binomial, random_finite, random_sequence, values_dict,
)
from qdepth import (
    DomainError,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    add,
    beta,
    beta_rows,
    beta_table,
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
    assert result.witness is None
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
        q, ub = result.qdepth, depth_upper_bound(h)
        assert result.upper_bound_used == ub
        assert st.k0 <= q <= ub
        assert result.accepted_table.first_negative is None
        assert all(v >= 0 for v in result.accepted_table.entries.values())
        assert (result.witness is None) == (q == ub)
        for d in range(q + 1, ub + 1):
            check = qdepth_at_least(h, d)
            assert not check.ok
            assert check.witness_k <= d
            assert check.witness_beta < 0
            assert beta(h, check.witness_k, d) == check.witness_beta
            if d == q + 1:
                assert result.witness == check


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
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 66)  # entry span 10
    with pytest.raises(DomainError, match="^candidate depth 11 lies more than 10 above the support start 0$"):
        qdepth_at_least(GeometricSequence(1, 11), 11)
    assert qdepth_at_least(GeometricSequence(1, 11), 10).ok
    monkeypatch.undo()
    # past the span the row is refused even where one direct sum would show a negative entry
    p = PolynomialSequence([1, 10**6])
    with pytest.raises(DomainError, match="candidate depth 1000000 lies more than 1998 above"):
        qdepth_at_least(p, 10**6)
    assert [beta(p, k, 10**6) < 0 for k in range(3)] == [False, False, True]


def test_qdepth_at_least_reads_rows_not_direct_sums(monkeypatch):
    def direct_sum(*args):
        raise AssertionError("qdepth_at_least evaluated a direct sum")

    monkeypatch.setattr(sequences, "beta", direct_sum)
    monkeypatch.setattr(engine, "beta", direct_sum)
    check = qdepth_at_least(GeometricSequence(1, 10**6), 400)
    assert check == engine.DepthCheck(400, True)
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


def test_side_conditions_refuse_a_candidate_past_the_entry_span_before_reading_a_value():
    h = GeometricSequence(1, 10**6).shifted(-3)  # k0 = 3
    k0 = h.stats().k0
    for test in (necessary_condition_holds, sufficient_condition_holds):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^candidate depth 2002 lies more than 1998 above the support start 3$"):
            test(h, k0 + 1999)
        assert time.perf_counter() - start < 0.1
    # at the edge both answer: the values grow by 10^6 per index, far past any binomial or factor below 2,000
    assert necessary_condition_holds(h, k0 + 1998)
    assert sufficient_condition_holds(h, k0 + 1998)


ROW_CONSUMERS = {
    "beta_rows": ("table at d={}", WORKED, lambda h, d: next(beta_rows(h, d))),
    "beta_table": ("table at d={}", PolynomialSequence([1, 4], 3), beta_table),
    "PolynomialSequence.row": ("row at d={}", PolynomialSequence([2, 0, 5], -2), PolynomialSequence.row),
    "GeometricSequence.row": ("row at d={}", GeometricSequence(2, 9, -1), GeometricSequence.row),
    "qdepth_at_least": ("candidate depth {}", PolynomialSequence([1, 4], 3), qdepth_at_least),
    "necessary_condition_holds": ("candidate depth {}", GeometricSequence(3, 2, 4), necessary_condition_holds),
    "sufficient_condition_holds": ("candidate depth {}", WORKED.shifted(-3), sufficient_condition_holds),
}


@pytest.mark.parametrize("what, h, consume", ROW_CONSUMERS.values(), ids=ROW_CONSUMERS)
def test_every_row_consumer_reads_the_one_entry_span(monkeypatch, what, h, consume):
    def refuse(*args):
        raise AssertionError("work was done before the span check")

    k0 = h.stats().k0
    # at the defaults: D = 1998 answers, D = 1999 and a d below k0 are refused
    consume(h, k0 + 1998)
    with pytest.raises(DomainError, match=f"^{what.format(k0 + 1999)} lies more than 1998 above the support start {k0}$"):
        consume(h, k0 + 1999)
    with pytest.raises(DomainError, match=f"^{what.format(k0 - 1)} lies below the support start {k0}$"):
        consume(h, k0 - 1)
    # a smaller budget moves every refusal, and D = span + 1 reads no value
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 21)  # entry span 5
    consume(h, k0 + 5)
    for owner in (sequences.Sequence, type(h)):
        for name in {"value_at", "iter_values"} & set(vars(owner)):
            monkeypatch.setattr(owner, name, refuse)
    for owner, name in ((sequences, "beta_rows"), (sequences, "_tail_row"), (engine, "beta_table")):
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(DomainError, match=f"^{what.format(k0 + 6)} lies more than 5 above the support start {k0}$"):
        consume(h, k0 + 6)


def test_side_conditions_read_the_values_in_one_pass(monkeypatch):
    rng = random.Random(75)
    cases = [(random_sequence(rng).shifted(rng.randint(-4, 4)), rng.randint(0, 8)) for _ in range(80)]
    cases += [(GeometricSequence(1, 10**100, 3), 40), (GeometricSequence(2, 3), 9), (GeometricSequence(1, 10), 5)]
    for h, span in cases:
        k0 = h.stats().k0
        d = k0 + span
        vals = values_dict(h, k0, d)
        assert necessary_condition_holds(h, d) == all(
            vals[k] >= pascal_binomial(d - k0, k - k0) * vals[k0] for k in range(k0, d + 1)
        )
        assert sufficient_condition_holds(h, d) == all(
            vals[k] >= (d - k + 1) * vals[k - 1] for k in range(k0 + 1, d + 1)
        )
    # a geometric tail multiplies by its ratio instead of evaluating each power afresh
    calls = []
    real = GeometricSequence.value_at
    monkeypatch.setattr(GeometricSequence, "value_at", lambda self, j: calls.append(j) or real(self, j))
    for check in (necessary_condition_holds, sufficient_condition_holds):
        calls.clear()
        assert check(GeometricSequence(1, 10, 2), 3)
        assert len(calls) <= 1
        calls.clear()
        assert check(GeometricSequence(1, 10**100), 400)
        assert len(calls) <= 1


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


def test_convolution_law():
    # (g * h)(j) is the sum of g(a) h(j - a), so the offsets add
    rng = random.Random(167)
    for _ in range(2000):
        g = random_finite(rng)
        h = random_finite(rng)
        values = [0] * (len(g.values) + len(h.values) - 1)
        for a, x in enumerate(g.values):
            for b, y in enumerate(h.values):
                values[a + b] += x * y
        product = FiniteSequence(g.offset + h.offset, values)
        depth = qdepth_value(product)
        assert depth == oracle_qdepth(product), (g, h)
        assert depth >= qdepth_value(g) + qdepth_value(h), (g, h)


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


@pytest.fixture
def geometric_rows(monkeypatch):
    """The d of every call to GeometricSequence.row, in order."""
    calls = []
    original = GeometricSequence.row

    def counting(self, d):
        calls.append(d)
        return original(self, d)

    monkeypatch.setattr(GeometricSequence, "row", counting)
    return calls


def test_search_stops_at_first_negative_row(row_counter):
    h = monomial_plus_constant(10**12, 1, 1)
    result = qdepth(h)
    assert result.qdepth == 3
    assert result.upper_bound_used == 10**12 + 1
    assert row_counter["rows"] <= result.qdepth - h.stats().k0 + 2


def test_search_builds_rows_up_to_answer_plus_one(row_counter, geometric_rows):
    rng = random.Random(101)
    kinds = set()
    for _ in range(150):
        h = random_sequence(rng)
        kinds.add(h.kind)
        row_counter["calls"] = row_counter["rows"] = 0
        geometric_rows.clear()
        result = qdepth(h)
        if isinstance(h, GeometricSequence):
            # one row at the bound, read from the generating function
            assert (row_counter["calls"], geometric_rows) == (0, [result.upper_bound_used])
        else:
            top = min(result.qdepth + 1, result.upper_bound_used)
            assert (row_counter["rows"], geometric_rows) == (top - h.stats().k0 + 1, [])
    assert kinds == {"finite", "polynomial", "geometric"}


def test_result_value_semantics_do_not_force_rejections(row_counter):
    h = PolynomialSequence([1, 0, 0, 15])
    result = qdepth(h)
    assert "rejections" not in repr(result)
    assert repr(result).startswith("QDepthResult(qdepth=7, ")
    assert result == qdepth(PolynomialSequence([1, 0, 0, 15]))
    assert result != qdepth(h.scaled(2))
    for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert twin == result
        assert twin.witness == result.witness == engine.DepthCheck(8, False, 3, -40)
    assert row_counter["calls"] == 3


def test_search_span_is_the_largest_within_the_entry_budget():
    span, budget = sequences.entry_span(), sequences.ENTRY_BUDGET
    assert span == 1998
    assert (span + 1) * (span + 2) // 2 <= budget < (span + 2) * (span + 3) // 2


def test_search_builds_at_most_span_plus_one_rows(row_counter):
    # binomial(3000, k) has depth 3000 = bound: no row up to the span is negative
    h = FiniteSequence(0, [math.comb(3000, k) for k in range(3001)])
    with pytest.raises(DomainError, match="no negative row up to d=1998, and the bound d=3000"):
        qdepth(h)
    assert row_counter == {"calls": 1, "rows": sequences.entry_span() + 1}


def test_search_span_caps_only_unresolved_searches(monkeypatch, row_counter, geometric_rows):
    # sequences.ENTRY_BUDGET alone, through entry_span(), moves top and both refusals, each naming the span it read
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 66)  # entry span 10
    for shift in (-2, 0, 3):
        assert qdepth_value(GeometricSequence(1, 10, shift)) == 10 - shift
        geometric_rows.clear()
        bound = f"the bound d={11 - shift} lies more than 10 above the support start {-shift}"
        message = f"^no negative row up to d={10 - shift}, and {bound}$"
        with pytest.raises(DomainError, match=message):
            qdepth(GeometricSequence(1, 11, shift))
        assert (row_counter["calls"], geometric_rows) == (0, [])
    # other kinds still scan every row up to the span
    h = FiniteSequence(0, [math.comb(12, k) for k in range(13)])
    with pytest.raises(DomainError, match="^no negative row up to d=10, and the bound d=12 lies more than 10 above the "
                                          "support start 0$"):
        qdepth(h)
    assert row_counter == {"calls": 1, "rows": 11}
    assert qdepth_value(PolynomialSequence([1, 10**6])) == 3
    assert row_counter == {"calls": 2, "rows": 11 + 5}  # answer 3: rows 0..4


def test_geometric_depth_is_its_bound_read_from_one_row(monkeypatch):
    # the paper proves that a * b^j has depth b, its a-priori bound: the engine reads that row alone, with no scan
    monkeypatch.setattr(engine, "beta_rows", lambda h, up_to: pytest.fail("a geometric tail was scanned"))
    rng = random.Random(30)
    for ratio in range(1, 301):
        for scale in (1, 2, 7):
            for shift in (-3, 0, 4):
                h = GeometricSequence(scale, ratio, shift)
                result = qdepth(h)
                d = ratio - shift
                assert (result.qdepth, result.upper_bound_used, result.witness) == (d, d, None)
                table = result.accepted_table
                assert (table.d, list(table.entries), table.first_negative) == (d, list(range(-shift, d + 1)), None)
                assert min(table.entries.values()) >= 0
                if ratio <= 12 or rng.random() < 0.01:
                    values = values_dict(h, -shift, d)
                    assert table.entries == {k: oracle_beta(values, k, d) for k in range(-shift, d + 1)}


def test_geometric_refusal_past_the_span_is_fast():
    start = time.perf_counter()
    message = f"^no negative row up to d=1998, and the bound d={10**20} lies more than 1998 above the support start 0$"
    with pytest.raises(DomainError, match=message):
        qdepth(GeometricSequence(1, 10**20))
    assert time.perf_counter() - start < 1


def test_geometric_bound_past_the_span_is_refused_without_a_row(geometric_rows):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"^no negative row up to d=1998, and the bound d={10**300} lies more than 1998 above"):
        qdepth(GeometricSequence(1, 10**300))
    assert time.perf_counter() - start < 0.1
    assert geometric_rows == []


def test_geometric_row_past_the_span_is_refused_before_it_is_built():
    h = GeometricSequence(1, 1, 3)  # k0 = -3
    assert len(h.row(-3 + sequences.entry_span())) == sequences.entry_span() + 1
    start = time.perf_counter()
    with pytest.raises(DomainError, match="row at d=1996 lies more than 1998 above the support start -3"):
        h.row(-3 + sequences.entry_span() + 1)
    with pytest.raises(DomainError, match="row at d=100000 lies more than 1998"):
        h.row(10**5)
    assert time.perf_counter() - start < 0.01
