"""Sequence kinds, support stats, and the alternating binomial transform."""

import copy
import enum
import gc
import math
import pickle
import random
import re
import sys
import time

import pytest

from helpers import (
    oracle_beta,
    pascal_binomial,
    random_finite,
    random_geometric,
    random_polynomial,
    random_sequence,
    values_dict,
)
from qdepth import (
    DomainError,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    Poset,
    SchemaError,
    add,
    beta,
    beta_rows,
    beta_table,
    binomial,
    necessary_condition_holds,
    qdepth,
    qdepth_at_least,
    sdepth_bruteforce,
    sequence_from_json_dict,
    sufficient_condition_holds,
)
from qdepth import sequences

WORKED = FiniteSequence(-2, [2, 4, 7, 3, 1])


def test_binomial_conventions():
    assert binomial(5, 0) == 1
    assert binomial(7, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(-2, 1) == 0


def test_binomial_matches_pascal_triangle():
    assert pascal_binomial(16, 3) == 560
    assert binomial(16, 3) == 560
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(0, 40)
        t = rng.randint(-2, m + 2)
        assert binomial(m, t) == pascal_binomial(m, t)


def test_evaluate_examples():
    assert WORKED.value_at(0) == 7
    assert GeometricSequence(3, 5).value_at(-1) == 0
    assert PolynomialSequence([1, 0, 0, 15]).value_at(2) == 121


def test_evaluate_outside_support_is_zero():
    assert WORKED.value_at(-3) == 0
    assert WORKED.value_at(3) == 0
    assert PolynomialSequence([2, 1]).value_at(-7) == 0


def test_stats_examples():
    st = WORKED.stats()
    assert (st.k0, st.kf, st.h0, st.h1, st.c) == (-2, 2, 2, 4, 2)
    for a in range(1, 6):
        for r in range(1, 6):
            g = GeometricSequence(a, r).stats()
            assert (g.k0, g.kf, g.c) == (0, None, r)
    single = FiniteSequence(5, [9]).stats()
    assert (single.k0, single.kf, single.h0, single.h1, single.c) == (5, 5, 9, 0, 0)


def test_stats_interior_zero_ends_initial_run():
    st = FiniteSequence(0, [1, 0, 5]).stats()
    assert st.kf == 0
    assert st.c == 0


def test_finite_trimming_is_canonical():
    h = FiniteSequence(3, [0, 0, 4, 1, 0])
    assert h.offset == 5
    assert h.values == (4, 1)
    assert h == FiniteSequence(5, [4, 1])


def _trimmed(offset: int, vals: list) -> tuple:
    """(offset, values, (k0, kf, h0, h1, c)) of a finite sequence, from the definitions."""
    nonzero = [i for i, v in enumerate(vals) if v]
    values = tuple(vals[nonzero[0] : nonzero[-1] + 1])
    k0 = offset + nonzero[0]
    run = 1
    while run < len(values) and values[run]:
        run += 1
    h1 = values[1] if len(values) > 1 else 0
    return k0, values, (k0, k0 + run - 1, values[0], h1, h1 // values[0])


def test_finite_sequence_normalizes_against_its_definition():
    rng = random.Random(211)
    singles = 0
    for _ in range(2000):
        body = [rng.randint(1, 9)]
        for _ in range(rng.choice((0, 0, 1, 3, 6))):
            body.append(rng.choice((0, 0, rng.randint(1, 9))))
        if not body[-1]:
            body.append(rng.randint(1, 9))
        singles += len(body) == 1
        vals = [0] * rng.randint(0, 3) + body + [0] * rng.randint(0, 3)
        offset = rng.randint(-5, 5)
        h = FiniteSequence(offset, vals)
        k0, values, stats = _trimmed(offset, vals)
        assert (h.offset, h.values) == (k0, values), (offset, vals)
        st = h.stats()
        assert (st.k0, st.kf, st.h0, st.h1, st.c) == stats, (offset, vals)
    assert singles > 100
    for vals in ([], [0], [0, 0, 0]):
        with pytest.raises(DomainError, match="^sequence must not be identically zero$"):
            FiniteSequence(0, vals)


def test_finite_offset_must_be_an_int_not_a_float():
    with pytest.raises(DomainError, match="offset must be an integer, got 1.5"):
        FiniteSequence(1.5, [1, 2])


def test_finite_offset_must_be_an_int_not_a_bool():
    with pytest.raises(DomainError, match="offset must be an integer, got True"):
        FiniteSequence(True, [1, 2])


def test_tail_shift_must_be_an_int():
    with pytest.raises(DomainError, match="shift must be an integer, got 0.5"):
        GeometricSequence(1, 2, shift=0.5)
    with pytest.raises(DomainError, match="shift must be an integer, got 1.5"):
        PolynomialSequence([1, 1], shift=1.5)
    with pytest.raises(DomainError, match="shift must be an integer, got 1.5"):
        GeometricSequence(1, 2).shifted(1.5)


def test_invalid_constructions_rejected():
    with pytest.raises(DomainError):
        FiniteSequence(0, [0, 0, 0])
    with pytest.raises(DomainError, match="values must be at least 0, got -2"):
        FiniteSequence(0, [1, -2])
    with pytest.raises(DomainError, match="values must be an integer, got 1.5"):
        FiniteSequence(0, [1, 1.5])
    with pytest.raises(DomainError, match="coeffs must be at least 0, got -1"):
        PolynomialSequence([1, -1, 1])
    with pytest.raises(DomainError):
        PolynomialSequence([0, 3])
    with pytest.raises(DomainError):
        PolynomialSequence([3, 0])
    with pytest.raises(DomainError):
        PolynomialSequence([])
    with pytest.raises(DomainError):
        GeometricSequence(0, 2)
    with pytest.raises(DomainError):
        GeometricSequence(2, 0)


def test_beta_examples():
    g = WORKED.shifted(-3)
    assert beta(g, 2, 3) == 0
    assert beta(PolynomialSequence([1, 0, 0, 15]), 3, 16) == -168
    rng = random.Random(7)
    for _ in range(30):
        h = random_sequence(rng)
        k0 = h.stats().k0
        assert beta(h, k0, k0 + rng.randint(0, 6)) == h.stats().h0


def test_beta_requires_k_at_most_d():
    with pytest.raises(DomainError):
        beta(WORKED, 4, 3)


def test_beta_below_support_vanishes():
    assert beta(WORKED, -5, 2) == 0


def test_beta_of_a_finite_sequence_sums_only_over_its_support(monkeypatch):
    calls = []
    real = sequences.binomial
    monkeypatch.setattr(sequences, "binomial", lambda m, t: calls.append((m, t)) or real(m, t))
    h = FiniteSequence(0, [1, 2])
    value = beta(h, 50, 100)
    assert len(calls) <= 2
    assert value == oracle_beta(values_dict(h, 0, 1), 50, 100)


def test_beta_refuses_an_oversized_binomial_before_any_term(monkeypatch):
    # the largest binomial has at most min(d - k0, min(k - k0, d - k) * bit_length(d - k0)) bits
    assert sequences.entry_span() * sequences.entry_span().bit_length() == 21978
    spike = FiniteSequence(0, [1])
    real = sequences.binomial
    monkeypatch.setattr(sequences, "binomial", lambda m, t: pytest.fail("a binomial was built"))
    gc.collect()  # a full collection owed by earlier tests took 35-55 ms inside the timed window
    start = time.perf_counter()
    with pytest.raises(DomainError, match="may need 2000000000000-bit binomials, over the limit of 21978"):
        beta(spike, 10**12, 2 * 10**12)
    with pytest.raises(DomainError, match="may need 21979-bit binomials"):
        beta(spike, 11000, 21979)
    assert time.perf_counter() - start < 0.01
    monkeypatch.setattr(sequences, "binomial", real)
    assert beta(spike, 10989, 21978) == -math.comb(21978, 10989)
    assert beta(spike, 8000, 16000) == math.comb(16000, 8000)
    # near either end of the row a binomial stays small however far d lies
    assert beta(spike, 1, 10**12) == -(10**12)
    assert beta(spike, 10**12 - 1, 10**12) == -(10**12)


def test_beta_refuses_more_terms_than_the_budget_before_any_term(monkeypatch):
    # budget 5 leaves span 1 and a 1-bit binomial limit, so k = d, whose binomials are all 1
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 5)
    real = sequences.binomial
    monkeypatch.setattr(sequences, "binomial", lambda m, t: pytest.fail("a binomial was built"))
    with pytest.raises(DomainError, match="sums 6 terms, over the budget of 5"):
        beta(PolynomialSequence([1, 1]), 5, 5)
    with pytest.raises(DomainError, match="sums 6 terms"):
        beta(FiniteSequence(-2, [1] * 8), 3, 3)
    monkeypatch.setattr(sequences, "binomial", real)
    assert beta(PolynomialSequence([1, 1]), 4, 4) == oracle_beta({j: 1 + j for j in range(5)}, 4, 4)
    # only the support counts: one term, however far k and d lie
    assert beta(FiniteSequence(0, [1]), 16000, 16000) == 1
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(DomainError, match="sums 1000000001 terms, over the budget of 2000000"):
        beta(PolynomialSequence([1, 1]), 10**9, 10**9)
    assert time.perf_counter() - start < 0.01


def test_beta_table_worked_example():
    table = beta_table(WORKED.shifted(-3), 3)
    assert table.entries == {1: 2, 2: 0, 3: 5}
    assert table.first_negative is None


def test_beta_table_single_spike():
    for b in (1, 3, 11):
        h = FiniteSequence(0, [b])
        table = beta_table(h, 2)
        assert table.entries == {0: b, 1: -2 * b, 2: b}
        assert table.first_negative == 1
        vals = values_dict(h, -1, 2)
        assert table.entries == {k: oracle_beta(vals, k, 2) for k in range(0, 3)}


def test_beta_table_at_support_start():
    rng = random.Random(13)
    for _ in range(20):
        h = random_sequence(rng)
        k0 = h.stats().k0
        assert beta_table(h, k0).entries == {k0: h.stats().h0}


def test_beta_table_below_support_is_an_error():
    with pytest.raises(DomainError):
        beta_table(WORKED, -3)
    with pytest.raises(DomainError):
        list(beta_rows(WORKED, -3))
    with pytest.raises(DomainError, match="row at d=-4 lies below the support start -3"):
        GeometricSequence(1, 2, 3).row(-4)


SMALL = FiniteSequence(0, [1, 2, 3])
# every argument that indexes a sequence, a transform entry or a shift, with
# the name its error message gives it
INDEX_ARGUMENTS = {
    "beta-k": ("k", lambda v: beta(SMALL, v, 2)),
    "beta-d": ("d", lambda v: beta(SMALL, 0, v)),
    "beta_rows": ("table at d=", lambda v: next(beta_rows(SMALL, v))),
    "beta_table": ("table at d=", lambda v: beta_table(SMALL, v)),
    "window": ("window end ", lambda v: SMALL.window(v)),
    "geometric-row": ("row at d=", lambda v: GeometricSequence(1, 2).row(v)),
    "polynomial-row": ("row at d=", lambda v: PolynomialSequence([1, 1]).row(v)),
    "iter_values": ("values end ", lambda v: SMALL.iter_values(v)),
    "geometric-iter_values": ("values end ", lambda v: GeometricSequence(1, 2).iter_values(v)),
    "qdepth_at_least": ("candidate depth ", lambda v: qdepth_at_least(SMALL, v)),
    "necessary": ("candidate depth ", lambda v: necessary_condition_holds(SMALL, v)),
    "sufficient": ("candidate depth ", lambda v: sufficient_condition_holds(SMALL, v)),
    "finite-shifted": ("shift", lambda v: SMALL.shifted(v)),
    "polynomial-shifted": ("shift", lambda v: PolynomialSequence([1, 1]).shifted(v)),
    "geometric-shifted": ("shift", lambda v: GeometricSequence(1, 2).shifted(v)),
    "sdepth-cap": ("cap", lambda v: sdepth_bruteforce(Poset.from_iterables(2, [[1]]), cap=v)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("name, call", INDEX_ARGUMENTS.values(), ids=INDEX_ARGUMENTS)
def test_index_arguments_must_be_ints(name, call, value):
    with pytest.raises(DomainError, match=re.escape(f"must be an integer, got {value!r}")) as info:
        call(value)
    assert str(info.value).startswith(name)


class _Level(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize(
    "value, least, error",
    [(True, None, "must be an integer, got True"), (_Level.THREE, 0, None), (-1, 0, "must be at least 0, got -1"),
     (1.0, None, "must be an integer, got 1.0"), ("1", None, "must be an integer, got '1'")],
    ids=["bool", "int-enum", "negative", "float", "string"],
)
def test_int_check_behind_its_fast_path(value, least, error):
    # the fast path takes exact ints only; everything else meets the full checks
    if error is None:
        assert sequences._int(value, "count", least) is value
    else:
        with pytest.raises(DomainError, match=re.escape(f"count {error}")):
            sequences._int(value, "count", least)


def test_beta_table_refuses_over_budget_before_building(monkeypatch):
    built = []

    def recording(h, up_to):
        for d, row in beta_rows(h, up_to):
            built.append(d)
            yield d, row

    monkeypatch.setattr("qdepth.sequences.beta_rows", recording)
    with pytest.raises(DomainError, match="table at d=1000000 lies more than 1998 above the support start 0"):
        beta_table(PolynomialSequence([1, 1]), 10**6)
    assert built == []


def test_beta_rows_refuses_over_budget_at_first_next(monkeypatch):
    rows = beta_rows(PolynomialSequence([1, 1]), 10**6)
    with pytest.raises(DomainError, match="^table at d=1000000 lies more than 1998 above the support start 0$"):
        next(rows)
    monkeypatch.setattr("qdepth.sequences.ENTRY_BUDGET", 21)  # entry span 5
    h = WORKED.shifted(-3)
    assert [d for d, _ in beta_rows(h, 6)] == [1, 2, 3, 4, 5, 6]
    with pytest.raises(DomainError, match="^table at d=7 lies more than 5 above the support start 1$"):
        next(beta_rows(h, 7))


def test_beta_table_budget_counts_every_row_entry(monkeypatch):
    monkeypatch.setattr("qdepth.sequences.ENTRY_BUDGET", 21)  # entry span 5
    h = WORKED.shifted(-3)
    assert beta_table(h, 6).d == 6
    with pytest.raises(DomainError, match="table at d=7 lies more than 5 above the support start 1"):
        beta_table(h, 7)


def test_beta_table_paths_agree():
    rng = random.Random(23)
    for _ in range(150):
        h = random_sequence(rng)
        d = h.stats().k0 + rng.randint(0, 8)
        table = beta_table(h, d)
        vals = values_dict(h, h.stats().k0, d)
        want = {k: oracle_beta(vals, k, d) for k in range(h.stats().k0, d + 1)}
        assert table.entries == want
        assert table.first_negative == next((k for k, v in want.items() if v < 0), None)


def test_geometric_row_matches_direct_sums():
    rng = random.Random(29)
    # from a single entry at k0 up to 71 entries
    for span in [0, 70] + [rng.randint(1, 69) for _ in range(40)]:
        h = GeometricSequence(rng.randint(1, 9), rng.randint(1, 60), rng.randint(-5, 5))
        k0 = h.stats().k0
        vals = values_dict(h, k0, k0 + span)
        assert h.row(k0 + span) == [oracle_beta(vals, k, k0 + span) for k in range(k0, k0 + span + 1)]


def refuse_recurrence(*args):
    raise AssertionError("a recurrence row or a direct sum was built")


@pytest.mark.parametrize("kind", ["polynomial", "geometric"])
def test_tail_rows_match_direct_sums(monkeypatch, kind):
    monkeypatch.setattr(sequences, "beta_rows", refuse_recurrence)
    monkeypatch.setattr(sequences, "beta", refuse_recurrence)
    rng = random.Random(37)
    spans = [0, 1, 2, 60] + [rng.randint(0, 60) for _ in range(30)]
    below_degree = 0
    for shift in range(-4, 5):
        for span in spans:
            if kind == "polynomial":
                h = random_polynomial(rng, max_degree=9).shifted(shift)
                below_degree += span < len(h.coeffs) - 1
            else:
                h = random_geometric(rng, max_ratio=40).shifted(shift)
            k0 = h.stats().k0
            vals = values_dict(h, k0, k0 + span)
            assert h.row(k0 + span) == [oracle_beta(vals, k, k0 + span) for k in range(k0, k0 + span + 1)]
    # rows at D < degree read only the first D + 1 differences
    assert below_degree > 0 or kind == "geometric"


def _polynomial_tables(rng, on_row: bool) -> dict:
    """(h, D) -> direct-sum entries of row k0 + D, for random polynomial tails on the given side of the
    crossover: beta_table reads the row when L = min(degree, D) + 1 is at most D / 10."""
    want = {}
    while len(want) < 60:
        h = random_polynomial(rng, max_degree=9).shifted(rng.randint(-4, 4))
        span = rng.randint(10 * len(h.coeffs), 10 * len(h.coeffs) + 40) if on_row else rng.randint(0, 60)
        if (10 * (min(h.degree, span) + 1) <= span) == on_row:
            k0 = h.stats().k0
            vals = values_dict(h, k0, k0 + span)
            want[h, span] = {k: oracle_beta(vals, k, k0 + span) for k in range(k0, k0 + span + 1)}
    return want


def _check_polynomial_tables(want: dict) -> None:
    for (h, span), entries in want.items():
        table = beta_table(h, h.stats().k0 + span)
        assert table.entries == entries
        assert table.first_negative == next((k for k, v in entries.items() if v < 0), None)


def test_polynomial_table_reads_its_row_alone(monkeypatch):
    want = _polynomial_tables(random.Random(41), on_row=True)
    monkeypatch.setattr(sequences, "beta_rows", refuse_recurrence)
    monkeypatch.setattr(sequences, "beta", refuse_recurrence)
    _check_polynomial_tables(want)


def test_polynomial_table_past_the_crossover_takes_the_recurrence(monkeypatch):
    want = _polynomial_tables(random.Random(43), on_row=False)
    monkeypatch.setattr(PolynomialSequence, "row", refuse_recurrence)
    monkeypatch.setattr(sequences, "beta", refuse_recurrence)
    _check_polynomial_tables(want)


def test_high_degree_polynomial_table_takes_the_recurrence():
    # degree 1,000 at D = 1,998: about 11.7 s by the row and 2.3 s by the recurrence (CPython 3.11, 2-vCPU host)
    h = PolynomialSequence([1] * 1001)
    start = time.perf_counter()
    table = beta_table(h, 1998)
    assert time.perf_counter() - start < 8
    vals = {j: (j ** 1001 - 1) // (j - 1) if j > 1 else 1 + 1000 * j for j in range(1999)}  # sum of j^i, i <= 1000
    for k in (0, 1, 2, 999, 1000, 1997, 1998):
        assert table.entries[k] == sum((-1) ** (k - j) * math.comb(1998 - j, k - j) * vals[j] for j in range(k + 1))
    assert table.first_negative == next((k for k, v in table.entries.items() if v < 0), None)


def test_polynomial_row_reads_no_value_past_its_span(monkeypatch):
    reads = []
    real = PolynomialSequence.value_at
    monkeypatch.setattr(PolynomialSequence, "value_at", lambda self, j: reads.append(j) or real(self, j))
    h = PolynomialSequence([1] * 20_000, 5)
    k0 = h.stats().k0
    # h(k0 + j) = 1 + j + ... + j^19999
    vals = {k0: 1, k0 + 1: 20_000, k0 + 2: 2**20_000 - 1}
    want = [oracle_beta(vals, k, k0 + 2) for k in range(k0, k0 + 3)]
    reads.clear()
    assert list(beta_table(h, k0 + 2).entries.values()) == want  # past the crossover: the recurrence
    assert len(reads) <= 3
    monkeypatch.setattr(sequences, "beta_rows", refuse_recurrence)
    reads.clear()
    assert h.row(k0 + 2) == want
    assert len(reads) <= 3


@pytest.mark.parametrize(
    "h", [WORKED, PolynomialSequence([1, 4], 3), GeometricSequence(2, 9, -1)], ids=["finite", "polynomial", "geometric"]
)
def test_beta_table_refuses_over_budget_before_any_work_for_every_kind(monkeypatch, h):
    def refuse(*args):
        raise AssertionError("work was done before the budget check")

    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 21)  # entry span 5
    k0 = h.stats().k0
    assert beta_table(h, k0 + 5).d == k0 + 5
    for owner in (sequences, sequences.Sequence, type(h), PolynomialSequence, GeometricSequence):
        for name in {"beta_rows", "beta", "value_at", "iter_values", "row"} & set(vars(owner)):
            monkeypatch.setattr(owner, name, refuse)
    message = f"table at d={k0 + 6} lies more than 5 above the support start {k0}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        beta_table(h, k0 + 6)


@pytest.mark.parametrize(
    "h", [WORKED, PolynomialSequence([1, 4], 3), GeometricSequence(2, 9, -1)], ids=["finite", "polynomial", "geometric"]
)
def test_beta_rows_reads_no_value_past_the_row_where_it_stops(monkeypatch, h):
    read = []
    real = type(h).iter_values
    monkeypatch.setattr(type(h), "iter_values", lambda self, hi: (read.append(v) or v for v in real(self, hi)))
    k0 = h.stats().k0
    rows = beta_rows(h, k0 + 8)
    assert read == []
    got = [next(rows)[1] for _ in range(3)]
    assert read == [h.value_at(j) for j in range(k0, k0 + 3)]
    assert got[-1] == beta_table(h, k0 + 2).entries


@pytest.mark.parametrize(
    "h",
    [FiniteSequence(0, [1, 5, 1, 9, 9, 9]), PolynomialSequence([1, 10**6], 3), GeometricSequence(2, 9, -1)],
    ids=["finite", "polynomial", "geometric"],
)
def test_scan_rows_read_no_value_past_the_row_where_they_stop(monkeypatch, h):
    # qdepth scans a finite or polynomial h up to its first negative row, below the bound; a geometric tail reads none
    read = []
    real = type(h).iter_values
    monkeypatch.setattr(type(h), "iter_values", lambda self, hi: (read.append(v) or v for v in real(self, hi)))
    result = qdepth(h)
    k0 = h.stats().k0
    if isinstance(h, GeometricSequence):
        assert (read, result.witness) == ([], None)
    else:
        assert result.witness.d < result.upper_bound_used
        assert read == [h.value_at(j) for j in range(k0, result.witness.d + 1)]
    assert result.accepted_table == beta_table(h, result.qdepth)


def test_iter_values_reads_the_values_in_order():
    rng = random.Random(43)
    for _ in range(60):
        h = random_sequence(rng).shifted(rng.randint(-4, 4))
        k0 = h.stats().k0
        hi = k0 + rng.randint(0, 12)
        assert list(h.iter_values(hi)) == [h.value_at(j) for j in range(k0, hi + 1)]
        assert h.window(hi) == FiniteSequence(k0, list(values_dict(h, k0, hi).values()))
    for h in (WORKED, GeometricSequence(1, 2, 3)):
        k0 = h.stats().k0
        with pytest.raises(DomainError, match=f"^values end {k0 - 1} lies below the support start {k0}$"):
            h.iter_values(k0 - 1)


def test_shift_examples():
    g = WORKED.shifted(-3)
    assert (g.value_at(1), g.value_at(2), g.value_at(3)) == (2, 4, 7)
    assert WORKED.shifted(0) == WORKED
    rng = random.Random(31)
    for _ in range(100):
        h = random_sequence(rng)
        m = rng.randint(-6, 6)
        assert h.shifted(m).stats().k0 == h.stats().k0 - m
        assert h.shifted(m).shifted(-m) == h


def test_shift_covariance_of_beta():
    rng = random.Random(37)
    for _ in range(150):
        h = random_sequence(rng)
        m = rng.randint(-5, 5)
        k0 = h.stats().k0
        d = k0 + rng.randint(0, 6)
        k = rng.randint(k0, d)
        assert beta(h.shifted(m), k - m, d - m) == beta(h, k, d)


def test_tail_shift_keeps_exact_values():
    p = PolynomialSequence([1, 0, 0, 15]).shifted(-4)
    assert p.value_at(4) == 1
    assert p.value_at(6) == 121
    assert p.value_at(3) == 0
    g = GeometricSequence(3, 5).shifted(2)
    assert g.value_at(-2) == 3
    assert g.value_at(0) == 75


def test_add_and_scale():
    h = WORKED
    doubled = add(h, h)
    for j in range(-4, 5):
        assert doubled.value_at(j) == 2 * h.value_at(j)
    assert h.scaled(2) == doubled
    with pytest.raises(DomainError):
        add(h, GeometricSequence(1, 2))
    with pytest.raises(DomainError):
        h.scaled(0)


def test_beta_is_linear():
    rng = random.Random(41)
    for _ in range(100):
        g = random_finite(rng)
        h = random_finite(rng)
        k0 = min(g.stats().k0, h.stats().k0)
        d = k0 + rng.randint(0, 6)
        k = rng.randint(k0, d)
        assert beta(add(g, h), k, d) == beta(g, k, d) + beta(h, k, d)
        c = rng.choice([1, 2, 3, 7, 100])
        assert beta(g.scaled(c), k, d) == c * beta(g, k, d)


def test_recurrence_identity():
    rng = random.Random(43)
    for _ in range(150):
        h = random_sequence(rng)
        k0 = h.stats().k0
        d = k0 + rng.randint(0, 7)
        k = rng.randint(k0 + 1, d) if d > k0 else k0
        assert beta(h, k, d + 1) == beta(h, k, d) - beta(h, k - 1, d)


def test_reconstruction_identity():
    rng = random.Random(47)
    for _ in range(150):
        h = random_sequence(rng)
        k0 = h.stats().k0
        d = k0 + rng.randint(0, 7)
        k = rng.randint(k0, d)
        total = sum(binomial(d - j, k - j) * beta(h, j, d) for j in range(k0, k + 1))
        assert total == h.value_at(k)


def test_support_end_is_the_last_positive_index_or_none_for_a_tail():
    assert FiniteSequence(-2, [0, 3, 0, 1, 0]).support_end == 1
    for h in (PolynomialSequence([1, 1]), GeometricSequence(2, 3).shifted(-1), PolynomialSequence([2]).shifted(5)):
        assert h.support_end is None


def test_window_materializes_tails():
    p = PolynomialSequence([1, 1])
    w = p.window(4)
    assert w == FiniteSequence(0, [1, 2, 3, 4, 5])
    g = GeometricSequence(2, 3).shifted(-1)
    assert g.window(3) == FiniteSequence(1, [2, 6, 18])
    with pytest.raises(DomainError):
        p.window(-1)


def test_finite_window_far_past_the_support_returns_at_once():
    h = FiniteSequence(0, [1, 2, 1])
    assert h.window(10**9) == h.window(2) == h


def test_finite_window_slice_equals_the_generic_path():
    # support [-2, 4] with the interior zero run h(0) = h(1) = 0
    h = FiniteSequence(-2, [3, 1, 0, 0, 2, 0, 5])
    for hi in (-2, -1, 0, 1, 2, 3, 4, 5, 9):
        assert h.window(hi) == FiniteSequence(-2, [h.value_at(j) for j in range(-2, hi + 1)])
    with pytest.raises(DomainError, match=r"^window end -3 lies below the support start -2$"):
        h.window(-3)


def test_json_round_trip():
    cases = [
        WORKED,
        PolynomialSequence([1, 0, 0, 15]),
        PolynomialSequence([2, 1], shift=-3),
        GeometricSequence(3, 5),
        GeometricSequence(3, 5, shift=4),
    ]
    for h in cases:
        assert sequence_from_json_dict(h.to_json_dict()) == h


def test_json_accepts_decimal_strings():
    h = sequence_from_json_dict(
        {"kind": "finite", "offset": "-2", "values": ["2", 4, "700000000000000000000007"]}
    )
    assert h.value_at(0) == 700000000000000000000007


def test_json_schema_violations():
    for bad in [
        42,
        {"kind": "bogus"},
        {"kind": "finite", "offset": 0},
        {"kind": "finite", "offset": 0.5, "values": [1]},
        {"kind": "finite", "offset": 0, "values": [1], "extra": 1},
        {"kind": "finite", "offset": 0, "values": [True]},
        {"kind": "finite", "offset": 0, "values": [-1]},
        {"kind": "finite", "offset": 0, "values": [0]},
        {"kind": "polynomial", "coeffs": [0, 1]},
        {"kind": "polynomial", "coeffs": 3},
        {"kind": "geometric", "scale": 1},
        {"kind": "geometric", "scale": 1, "ratio": "x"},
        {"kind": "geometric", "scale": 1, "ratio": 2, "shift": "x"},
        {"kind": [1]},
        {"kind": {"x": 1}},
        {"kind": "polynomial"},
    ]:
        with pytest.raises(SchemaError):
            sequence_from_json_dict(bad)


def test_json_decimal_strings_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for obj in (
        {"kind": "geometric", "scale": 1, "ratio": "7" * (limit + 1)},
        {"kind": "finite", "offset": 0, "values": ["1" * (limit + 1)]},
    ):
        with pytest.raises(SchemaError, match=f"longer than the {limit}-digit limit") as info:
            sequence_from_json_dict(obj)
        assert len(str(info.value)) < 100
    with pytest.raises(SchemaError, match="not a decimal integer string"):
        sequence_from_json_dict({"kind": "geometric", "scale": 1, "ratio": "7x"})


def test_sequence_kinds_are_immutable_values():
    pairs = [
        (FiniteSequence(-2, [0, 2, 4, 7, 3, 1, 0]), FiniteSequence(-1, (2, 4, 7, 3, 1))),
        (PolynomialSequence([1, 0, 0, 15], shift=2), PolynomialSequence((1, 0, 0, 15), 2)),
        (GeometricSequence(3, 12, shift=-1), GeometricSequence(3, 12, -1)),
    ]
    for h, twin in pairs:
        assert h == twin and h is not twin
        assert hash(h) == hash(twin)
        assert len({h, twin}) == 1
        for clone in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
            assert clone == h
            assert clone.stats() == h.stats()
            assert clone.to_json_dict() == h.to_json_dict()
        for name in h.to_json_dict().keys() - {"kind"}:
            with pytest.raises(AttributeError):
                setattr(h, name, 0)
    assert pairs[0][0] != pairs[1][0]
