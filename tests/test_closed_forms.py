"""Closed-form predictions, rational thresholds, and the polynomial cap."""

import random
import sys
import time
from fractions import Fraction

import pytest

from helpers import oracle_eq_bound, paper_closed_form, random_polynomial
from qdepth import (
    DomainError,
    GeometricSequence,
    SchemaError,
    arithmetic_qdepth,
    as_fraction,
    closed_forms,
    compare_alpha1,
    eq_bound,
    geometric_qdepth,
    lambda_threshold,
    monomial_plus_constant,
    polynomial_upper_bound,
    qdepth_value,
    quadratic_qdepth,
)


def test_geometric_examples():
    assert geometric_qdepth(1, 4) == 4
    assert geometric_qdepth(7, 1) == 1
    assert geometric_qdepth(3, 9) == 9 == qdepth_value(GeometricSequence(3, 9))
    with pytest.raises(DomainError):
        geometric_qdepth(0, 3)


def test_arithmetic_examples():
    assert arithmetic_qdepth(3, 1).value == 4
    assert arithmetic_qdepth(5, 1).value == 3
    assert arithmetic_qdepth(1, 2).value == 1
    assert arithmetic_qdepth(4, 1).value == 4
    assert arithmetic_qdepth(9, 2).value == 3
    assert all(arithmetic_qdepth(a, b).is_exact for a, b in [(1, 1), (9, 2)])
    assert arithmetic_qdepth(5, 2).branch == "alpha in (0,3)"
    assert arithmetic_qdepth(7, 2).branch == "alpha in [3,4]"


def test_quadratic_examples():
    assert quadratic_qdepth(22, 3).value == 8
    assert quadratic_qdepth(12, 1).value == 5
    assert quadratic_qdepth(8, 1).value == 7
    assert quadratic_qdepth(7, 1).value == 8
    assert quadratic_qdepth(11, 1).value == 6
    assert quadratic_qdepth(23, 2).value == 5
    assert quadratic_qdepth(13, 2).value == 7
    assert quadratic_qdepth(5, 2).value == 3
    with pytest.raises(DomainError, match="quadratic tail needs positive a and b"):
        quadratic_qdepth(0, 1)


def test_prediction_value_is_positive_everywhere():
    for a in range(1, 15):
        for b in range(1, 15):
            assert arithmetic_qdepth(a, b).value >= 1
            assert quadratic_qdepth(a, b).value >= 1


def test_lambda_threshold_values():
    assert lambda_threshold(2, 4) == Fraction(22, 3)
    assert lambda_threshold(2, 3) == 8
    assert lambda_threshold(2, 2) == 11
    assert lambda_threshold(1, 2) == 4
    with pytest.raises(DomainError):
        lambda_threshold(2, 1)
    with pytest.raises(DomainError):
        lambda_threshold(2, 5)
    with pytest.raises(DomainError):
        lambda_threshold(0, 2)


def test_lambda_thresholds_increase_as_m_decreases():
    for n in range(2, 6):
        values = [lambda_threshold(n, m) for m in range(2**n, 1, -1)]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_eq_bound_examples():
    assert eq_bound(3, 15).value == 16
    assert eq_bound(2, Fraction(73, 10)).value == 8
    assert eq_bound(1, 5).value == 3
    assert eq_bound(2, 7).value == 8
    assert eq_bound(2, Fraction(22, 3)).value == 8
    assert eq_bound(2, 8).value == 7
    assert eq_bound(2, 11).value == 6
    assert eq_bound(2, 12).value == 5
    assert eq_bound(2, Fraction(1, 2)).value == 1


def test_eq_bound_exactness_flag():
    assert eq_bound(2, 3).is_exact
    assert eq_bound(2, Fraction(7, 2)).is_exact
    assert not eq_bound(2, 4).is_exact
    assert not eq_bound(3, 15).is_exact


def test_geometric_qdepth_rejects_a_float_ratio():
    with pytest.raises(DomainError, match="ratio must be an integer, got 3.5"):
        geometric_qdepth(2, 3.5)


def test_polynomial_upper_bound_rejects_a_float_degree():
    with pytest.raises(DomainError, match="degree must be an integer, got 2.5"):
        polynomial_upper_bound(2.5)


def test_exact_closed_forms_reject_non_int_parameters():
    with pytest.raises(DomainError, match="a must be an integer, got 2.5"):
        arithmetic_qdepth(2.5, 1)
    with pytest.raises(DomainError, match="b must be an integer, got True"):
        quadratic_qdepth(1, True)
    for call in (lambda: eq_bound(2.0, 3), lambda: lambda_threshold(2, 3.0),
                 lambda: compare_alpha1(3, 1.5), lambda: monomial_plus_constant(1, 1, 1.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            call()


def test_eq_bound_rejects_bad_input():
    with pytest.raises(DomainError):
        eq_bound(0, 3)
    with pytest.raises(DomainError):
        eq_bound(2, Fraction(-1, 2))
    with pytest.raises(DomainError):
        eq_bound(2, "not-a-rational")
    with pytest.raises(DomainError, match="not an exact rational: 1.5"):
        as_fraction(1.5)


def test_eq_bound_refuses_an_unprintable_power_before_building_it():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for n in (10**10, 10**400):
            with pytest.raises(DomainError, match="more than 4300 digits"):
                eq_bound(n, 3)
        sys.set_int_max_str_digits(640)
        # 2^(n+1) - 1 has 640 digits at the edge and 641 past it
        edge = (10**640).bit_length() - 2
        assert len(str(2 ** (edge + 1) - 1)) == 640
        assert eq_bound(edge, 3).branch == f"alpha in (0,{2 ** (edge + 1) - 1})"
        with pytest.raises(DomainError, match="more than 640 digits"):
            eq_bound(edge + 1, 3)
        sys.set_int_max_str_digits(0)  # no limit, no refusal
        assert eq_bound(edge + 1, 3).value == 4
    finally:
        sys.set_int_max_str_digits(limit)


def test_as_fraction_refuses_a_decimal_exponent_past_the_digit_limit_before_building_it():
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (4300, 0):  # with the limit off, its default of 4,300 digits applies
            sys.set_int_max_str_digits(setting)
            for text in ("1e10000000", "1e-10000000", "2.5E+4300", "1e-4_300"):
                start = time.perf_counter()
                with pytest.raises(DomainError, match="has more than 4300 digits, the string conversion limit"):
                    as_fraction(text)
                for alpha in (lambda: eq_bound(2, text), lambda: compare_alpha1(text, 2)):
                    with pytest.raises(DomainError, match="exponent"):
                        alpha()
                assert time.perf_counter() - start < 0.1
            assert as_fraction("1e4299") == 10**4299
            assert as_fraction("3e-4299") == Fraction(3, 10**4299)
            assert as_fraction(" 15E-1 ") == Fraction(3, 2)
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(DomainError, match="^not an exact rational: 'seven'$"):
        as_fraction("seven")
    with pytest.raises(SchemaError, match="^alpha: not a rational: 'seven'$"):
        as_fraction("seven", "alpha")


def test_closed_forms_refuse_a_huge_exponent_before_building_it():
    # 2^(n+1), 4^n or a list of n coefficients would exhaust memory first
    with pytest.raises(DomainError, match="degree is too large"):
        polynomial_upper_bound(10**12)
    with pytest.raises(DomainError, match="n is too large"):
        lambda_threshold(10**12, 2)
    with pytest.raises(DomainError, match="degree is too large"):
        monomial_plus_constant(1, 1, 10**9)
    with pytest.raises(DomainError, match="n is too large"):
        compare_alpha1(3, 10**12)
    with pytest.raises(DomainError, match="n is too large"):
        eq_bound(10**12, 3)


def test_closed_forms_share_one_exponent_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        # 2^(n+1) - 1 has 640 digits at the edge and 641 past it
        edge = (10**640).bit_length() - 2
        # lambda_threshold's numerator holds 4^n, so its own limit is tighter (the test below)
        calls = (polynomial_upper_bound, lambda n: monomial_plus_constant(1, 1, n),
                 lambda n: compare_alpha1(3, n), lambda n: eq_bound(n, 3))
        for call in calls:
            call(edge)
            with pytest.raises(DomainError, match="more than 640 digits"):
                call(edge + 1)
        sys.set_int_max_str_digits(0)  # off: CPython's default limit applies
        past = (10**sys.int_info.default_max_str_digits).bit_length() - 1
        for call in calls:
            call(past - 1)
            with pytest.raises(DomainError, match=f"more than {sys.int_info.default_max_str_digits} digits"):
                call(past)
    finally:
        sys.set_int_max_str_digits(limit)


def test_lambda_threshold_refuses_an_unprintable_numerator_before_building_it():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        # 2^10001 - 1 prints, but the numerator, above 4^10000, has about 6,000 digits
        with pytest.raises(DomainError, match="n is too large.*more than 4300 digits"):
            lambda_threshold(10_000, 2)
        sys.set_int_max_str_digits(640)
        # 2^(2n+2) - 1 has 640 digits at the edge and 641 past it; every threshold at the edge prints
        edge = (10**640).bit_length() // 2 - 1
        assert len(str(2 ** (2 * edge + 2) - 1)) == 640
        for m in (2, 3, 2**edge - 1, 2**edge):
            str(lambda_threshold(edge, m))
        with pytest.raises(DomainError, match="more than 640 digits"):
            lambda_threshold(edge + 1, 2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_eq_bound_refuses_an_unprintable_branch_threshold():
    # 2^1502 - 1 has 453 digits, but the thresholds around 2^1501 have more than 640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(DomainError, match="a threshold in the branch label has more than 640 digits"):
            eq_bound(1500, 2**1501)
    finally:
        sys.set_int_max_str_digits(limit)
    assert eq_bound(1500, 2**1501).branch.startswith("alpha in (")


def test_eq_bound_matches_quadratic_closed_form():
    for a in range(1, 31):
        for b in range(1, 31):
            expected = paper_closed_form(2, Fraction(a, b))
            assert eq_bound(2, Fraction(a, b)).value == quadratic_qdepth(a, b).value == expected
            assert quadratic_qdepth(a, b).is_exact


def test_eq_bound_matches_arithmetic_closed_form_up_to_four():
    for a in range(1, 31):
        for b in range(1, 31):
            expected = paper_closed_form(1, Fraction(a, b))
            assert eq_bound(1, Fraction(a, b)).value == arithmetic_qdepth(a, b).value == expected
            assert arithmetic_qdepth(a, b).is_exact


def _alphas_around_thresholds(n: int) -> list:
    eps = Fraction(1, 10**9)
    points = [Fraction(2 ** (n + 1) - 1)] + [lambda_threshold(n, m) for m in range(2, 2**n + 1)]
    grid = [Fraction(num, den) for num in range(1, 8 * 2**n) for den in (1, 2, 3, 7)]
    return grid + [p + e for p in points for e in (-eps, 0, eps)]


def test_eq_bound_bisection_matches_linear_scan():
    for n in range(1, 7):
        for alpha in _alphas_around_thresholds(n):
            got = eq_bound(n, alpha)
            assert (got.value, got.branch, got.is_exact) == oracle_eq_bound(n, alpha)


def test_eq_bound_work_is_linear_in_n(monkeypatch):
    calls = []
    real = closed_forms.lambda_threshold
    monkeypatch.setattr(closed_forms, "lambda_threshold", lambda n, m: calls.append(m) or real(n, m))
    for alpha in (Fraction(2**41 - 1), 2**41 + 12345, 10**30):
        calls.clear()
        eq_bound(40, alpha)
        assert 0 < len(calls) <= 2 * 40 + 2


def test_eq_bound_finds_its_branch_without_a_threshold_search(monkeypatch):
    # the branch comes from one integer square root; only the label's two thresholds are built
    calls = []
    real = closed_forms.lambda_threshold
    monkeypatch.setattr(closed_forms, "lambda_threshold", lambda n, m: calls.append(m) or real(n, m))
    got = eq_bound(6000, 2**6001)
    assert len(calls) <= 2
    m = calls[-1]  # the branch is (lambda(m + 1), lambda(m)], where the bound is 2^n + m
    assert real(6000, m + 1) < 2**6001 <= real(6000, m)
    assert got.value == 2**6000 + m


def test_compare_alpha1():
    assert compare_alpha1(Fraction(7, 2), 1) == 0
    assert compare_alpha1(3, 1) == -1
    assert compare_alpha1(4, 1) == 1
    for n in range(2, 7):
        assert compare_alpha1(2 ** (n + 1) - 1, n) == -1
        assert compare_alpha1(Fraction(2 ** (n + 2) - 1, 2), n) == 1
        assert compare_alpha1(-5, n) == -1
    with pytest.raises(DomainError, match="n must be at least 1"):
        compare_alpha1(3, 0)


def test_polynomial_upper_bound_values():
    assert polynomial_upper_bound(1) == 4
    assert polynomial_upper_bound(2) == 8
    assert polynomial_upper_bound(3) == 16
    with pytest.raises(DomainError):
        polynomial_upper_bound(0)


def test_arithmetic_agrees_with_engine_on_small_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            h = monomial_plus_constant(a, b, 1)
            assert qdepth_value(h) == arithmetic_qdepth(a, b).value


def test_quadratic_agrees_with_engine_on_small_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            h = monomial_plus_constant(a, b, 2)
            assert qdepth_value(h) == quadratic_qdepth(a, b).value


def test_engine_never_exceeds_eq_bound():
    rng = random.Random(103)
    for _ in range(120):
        a = rng.randint(1, 40)
        b = rng.randint(1, 8)
        n = rng.randint(2, 5)
        h = monomial_plus_constant(a, b, n)
        assert qdepth_value(h) <= eq_bound(n, Fraction(a, b)).value


def test_eq_bound_is_tight_for_small_ratios():
    rng = random.Random(107)
    for _ in range(120):
        b = rng.randint(1, 9)
        a = rng.randint(1, 4 * b - 1)
        n = rng.randint(2, 5)
        bound = eq_bound(n, Fraction(a, b))
        assert bound.is_exact
        assert qdepth_value(monomial_plus_constant(a, b, n)) == bound.value


def test_small_ratio_law():
    rng = random.Random(109)
    for _ in range(100):
        b = rng.randint(1, 9)
        n = rng.randint(1, 5)
        a = rng.randint(1, 6 * b)
        alpha = Fraction(a, b)
        value = qdepth_value(monomial_plus_constant(a, b, n))
        if alpha < 3:
            assert value == int(alpha) + 1
        else:
            assert value >= 3


def test_large_quotient_forces_depth_at_least_four():
    rng = random.Random(113)
    for _ in range(100):
        b = rng.randint(1, 6)
        a = rng.randint(3 * b, 10 * b)
        n = rng.randint(2, 5)
        h = monomial_plus_constant(a, b, n)
        if h.stats().c >= 4:
            assert qdepth_value(h) >= 4


def test_polynomial_cap_on_random_tails():
    rng = random.Random(127)
    for _ in range(120):
        h = random_polynomial(rng)
        assert qdepth_value(h) <= polynomial_upper_bound(h.degree)


def test_monomial_plus_constant_shape():
    h = monomial_plus_constant(15, 1, 3)
    assert h.coeffs == (1, 0, 0, 15)
    assert h.degree == 3
    with pytest.raises(DomainError):
        monomial_plus_constant(1, 1, 0)
