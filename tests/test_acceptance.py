"""Acceptance suite: every criterion at full scale, all checks exact.

Each test prints one PASS or FAIL line; run with -s to see them all.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from helpers import growth_sequence, random_finite, random_polynomial, random_sequence
from qdepth import (
    FiniteSequence,
    GeometricSequence,
    Poset,
    add,
    arithmetic_qdepth,
    beta,
    beta_table,
    binomial,
    depth_upper_bound,
    eq_bound,
    monomial_plus_constant,
    necessary_condition_holds,
    poset_qdepth,
    qdepth,
    qdepth_at_least,
    qdepth_value,
    quadratic_qdepth,
    realize,
    sdepth_bruteforce,
    sufficient_condition_holds,
    validate_partition,
)

WORKED = FiniteSequence(-2, [2, 4, 7, 3, 1])

WORKED_FAMILY = [
    [1], [2], [1, 2], [1, 3], [2, 3], [1, 4],
    [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 4, 5],
    [1, 2, 3, 4], [1, 2, 3, 5], [1, 3, 4, 5],
    [1, 2, 3, 4, 5],
]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_worked_window_and_family_regression():
    with criterion(1, "worked five-term example"):
        assert qdepth_value(WORKED) == 0
        g = WORKED.shifted(-3)
        assert beta(g, 1, 3) == 2
        assert beta(g, 2, 3) == 0
        assert beta(g, 3, 3) == 5
        assert qdepth_value(g) == 3
        poset = Poset.from_iterables(7, WORKED_FAMILY)
        assert poset.level_counts() == {1: 2, 2: 4, 3: 7, 4: 3, 5: 1}
        assert poset_qdepth(poset).qdepth == 3
        assert sdepth_bruteforce(poset).sdepth == 3


def test_criterion_2_cubic_tail_regression():
    with criterion(2, "cubic tail where the bound is strict"):
        h = monomial_plus_constant(15, 1, 3)
        assert beta(h, 3, 16) == -168
        check = qdepth_at_least(h, 16)
        assert not check.ok
        assert eq_bound(3, 15).value == 16
        assert qdepth_value(h) < 16


def test_criterion_3_linear_grid():
    with criterion(3, "linear-tail grid, 900 pairs"):
        for a in range(1, 31):
            for b in range(1, 31):
                predicted = arithmetic_qdepth(a, b).value
                computed = qdepth_value(monomial_plus_constant(a, b, 1))
                assert computed == predicted, (a, b, predicted, computed)


def test_criterion_4_quadratic_grid():
    with criterion(4, "quadratic-tail grid plus boundary pairs"):
        pairs = [(a, b) for a in range(1, 31) for b in range(1, 31)]
        pairs += [(7, 1), (22, 3), (8, 1), (11, 1), (23, 2), (34, 3)]
        for a, b in pairs:
            predicted = quadratic_qdepth(a, b).value
            computed = qdepth_value(monomial_plus_constant(a, b, 2))
            assert computed == predicted, (a, b, predicted, computed)
        boundary = {(7, 1): 8, (22, 3): 8, (8, 1): 7, (11, 1): 6, (23, 2): 5, (34, 3): 5}
        for (a, b), expected in boundary.items():
            assert quadratic_qdepth(a, b).value == expected


def test_criterion_5_geometric_depth_equals_ratio():
    with criterion(5, "geometric tails"):
        for a in range(1, 6):
            for r in range(1, 13):
                assert qdepth_value(GeometricSequence(a, r)) == r


def test_criterion_6_falling_factorial_and_shift_law():
    with criterion(6, "falling-factorial windows and shifts"):
        for d in range(1, 11):
            h = FiniteSequence(0, [math.factorial(d) // math.factorial(d - j) for j in range(d + 1)])
            assert qdepth_value(h) == d
            for m in range(-3, 4):
                assert qdepth_value(h.shifted(m)) == d - m


def _property_recurrence():
    rng = random.Random(1001)
    for _ in range(500):
        h = random_sequence(rng)
        k0 = h.stats().k0
        d = k0 + rng.randint(0, 7)
        k = rng.randint(k0 + 1, d) if d > k0 else k0
        assert beta(h, k, d + 1) == beta(h, k, d) - beta(h, k - 1, d)


def _property_reconstruction():
    rng = random.Random(1002)
    for _ in range(500):
        h = random_sequence(rng)
        k0 = h.stats().k0
        d = k0 + rng.randint(0, 7)
        k = rng.randint(k0, d)
        total = sum(binomial(d - j, k - j) * beta(h, j, d) for j in range(k0, k + 1))
        assert total == h.value_at(k)


def _property_entrywise_monotonicity():
    rng = random.Random(1003)
    for _ in range(500):
        h = random_sequence(rng)
        st = h.stats()
        d = qdepth(h).qdepth
        dp = rng.randint(st.k0, d)
        lower = beta_table(h, dp).entries
        for k in range(st.k0, dp + 1):
            assert lower[k] >= beta(h, k, d) >= 0


def _property_rejection_witnesses():
    rng = random.Random(1004)
    for _ in range(500):
        h = random_sequence(rng)
        result = qdepth(h)
        q, ub = result.qdepth, result.upper_bound_used
        assert (result.witness is None) == (q == ub)
        for d in range(q + 1, ub + 1):
            check = qdepth_at_least(h, d)
            assert not check.ok
            assert check.witness_k <= d
            assert check.witness_beta < 0
            assert beta(h, check.witness_k, d) == check.witness_beta
            if d == q + 1:
                assert result.witness == check


def _property_bounds():
    rng = random.Random(1005)
    for _ in range(500):
        h = random_sequence(rng)
        st = h.stats()
        value = qdepth_value(h)
        assert st.k0 <= value <= st.k0 + st.c
        if st.kf is not None:
            assert value <= st.kf


def _property_sum_and_scale_laws():
    rng = random.Random(1006)
    scales = (1, 2, 3, 7, 100)
    for i in range(500):
        g = random_finite(rng)
        h = random_finite(rng)
        assert qdepth_value(add(g, h)) >= min(qdepth_value(g), qdepth_value(h))
        assert qdepth_value(g.scaled(scales[i % len(scales)])) == qdepth_value(g)


def _property_implication_chain():
    rng = random.Random(1007)
    hit_sufficient = 0
    for i in range(500):
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
    assert hit_sufficient >= 100


def _property_polynomial_cap():
    rng = random.Random(1008)
    for _ in range(500):
        h = random_polynomial(rng, max_degree=5, max_coeff=20)
        assert qdepth_value(h) <= 2 ** (h.degree + 1)


def test_criterion_7_property_suite():
    with criterion(7, "randomized property suite, 500 cases per law"):
        _property_recurrence()
        _property_reconstruction()
        _property_entrywise_monotonicity()
        _property_rejection_witnesses()
        _property_bounds()
        _property_sum_and_scale_laws()
        _property_implication_chain()
        _property_polynomial_cap()


def test_criterion_8_realization_suite():
    with criterion(8, "100 random realizations with certificates"):
        rng = random.Random(2001)
        confirmed = 0
        for _ in range(100):
            width = rng.randint(1, 6)
            values = [rng.randint(0, 8) for _ in range(width)]
            if not any(values):
                values[rng.randrange(width)] = rng.randint(1, 8)
            h = FiniteSequence(rng.randint(-4, 4), values)
            result = realize(h)
            report = validate_partition(result.partition)
            assert report.ok
            expected = {
                j - result.m: h.value_at(j)
                for j in range(h.offset, h.support_end + 1)
                if h.value_at(j)
            }
            assert result.poset.level_counts() == expected
            assert result.partition.sdepth == result.depth
            assert poset_qdepth(result.poset).qdepth == result.depth
            if len(result.poset) <= 20:
                assert sdepth_bruteforce(result.poset).sdepth == result.depth
                confirmed += 1
        assert confirmed >= 10


def test_criterion_9_exhaustive_small_lattice(census_over_four):
    with criterion(9, "partition depth never exceeds the invariant, all families over [4]"):
        assert len(census_over_four) == (1 << 16) - 1
        for sets, sdepth, _, poset_depth in census_over_four:
            assert sdepth <= poset_depth, sets
