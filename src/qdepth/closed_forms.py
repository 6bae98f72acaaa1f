"""Closed-form depth values and bounds for structured tails.

Covers geometric tails, the general piecewise upper bound for the
families a*j^n + b with its rational thresholds (for n = 1 and n = 2 the
bound is the exact depth), and the 2^(n+1) cap for arbitrary polynomial
tails.  Everything is exact: thresholds are Fractions and the one
irrational boundary is compared by squaring, so pairs that sit exactly on
a threshold are classified correctly.
"""

import math
import sys
from fractions import Fraction

from .errors import DomainError, SchemaError
from .records import Record
from .sequences import PolynomialSequence, _int


class PiecewisePrediction(Record):
    """A predicted depth together with the interval of alpha that produced it.

    is_exact records whether the prediction is a proven equality rather
    than only an upper bound.
    """

    value: int
    branch: str
    is_exact: bool

    def to_json_dict(self) -> dict:
        return {"bound": self.value, "branch": self.branch, "exact": self.is_exact}


def _digit_limit() -> int:
    """CPython's integer string conversion limit, or its default of 4300 digits when that limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def as_fraction(x, where: str | None = None) -> Fraction:
    """Coerce an int, Fraction or string like '22/3' or '1.5e-3' to an exact Fraction.

    A string whose exponent e gives 10^|e| more digits than the digit limit raises DomainError before that
    power is built.  Any other non-rational raises DomainError, or SchemaError prefixed by where when given.
    """
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            e = int(x.lower().partition("e")[2] or 0) if isinstance(x, str) else 0
            if abs(e) < _digit_limit():
                return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            raise DomainError(f"exponent {e} is too large: 10^{abs(e)} has more than {_digit_limit()} digits, "
                              "the string conversion limit")
    if where is not None:
        raise SchemaError(f"{where}: not a rational: {x!r}")
    raise DomainError(f"not an exact rational: {x!r}")


def _exponent(n: int, what: str, squared: bool = False) -> None:
    """DomainError unless n is an integer at least 1 and 2^(n+1) - 1 prints within the digit limit.

    With squared, (2^(n+1))^2 - 1 must print instead.  The limit is CPython's
    integer string conversion limit, or its default of 4300 digits when that
    limit is off.  Every closed form here builds 2^n or n coefficients, so
    this refusal bounds the work before either is built.
    """
    bits = (_int(n, what, 1) + 1) * (2 if squared else 1)
    limit = _digit_limit()
    # 2^bits - 1 >= 10^limit; log2(10) > 3, so the exact test runs only near the limit
    if bits > 3 * limit and bits >= (10**limit).bit_length():
        power = f"2^(2{what}+2)" if squared else f"2^({what}+1)"
        raise DomainError(f"{what} is too large: {power} - 1 has more than {limit} digits, the string conversion limit")


def monomial_plus_constant(a: int, b: int, degree: int) -> PolynomialSequence:
    """The tail a*j^degree + b as a polynomial sequence."""
    _exponent(degree, "degree")
    return PolynomialSequence([b] + [0] * (degree - 1) + [a])


def geometric_qdepth(a: int, r: int) -> int:
    """Depth of the geometric tail a * r**j: always the ratio r."""
    if _int(a, "scale") < 1 or _int(r, "ratio") < 1:
        raise DomainError("geometric tail needs positive scale and ratio")
    return r


def _proven_eq_bound(n: int, a: int, b: int, tail: str) -> PiecewisePrediction:
    """eq_bound at alpha = a/b, marked exact: for n = 1 and n = 2 the bound is the depth."""
    if _int(a, "a") < 1 or _int(b, "b") < 1:
        raise DomainError(f"{tail} tail needs positive a and b")
    bound = eq_bound(n, Fraction(a, b))
    return PiecewisePrediction(bound.value, bound.branch, True)


def arithmetic_qdepth(a: int, b: int) -> PiecewisePrediction:
    """Exact depth of the linear tail a*j + b: eq_bound at n = 1, a proven equality."""
    return _proven_eq_bound(1, a, b, "linear")


def quadratic_qdepth(a: int, b: int) -> PiecewisePrediction:
    """Exact depth of the quadratic tail a*j^2 + b: eq_bound at n = 2, a proven equality."""
    return _proven_eq_bound(2, a, b, "quadratic")


def lambda_threshold(n: int, m: int) -> Fraction:
    """The alpha at which the depth bound for a*j^n + b drops to 2^n + m - 1.

    Defined for 2 <= m <= 2^n; the subscript convention indexes the value
    as lambda_(2^n + 1 - m).  Thresholds grow strictly as m decreases.  The
    numerator, about 4^n, lies below 2^(2n+2), so that bound is refused
    before anything is built and every value returned can be printed.
    """
    _exponent(n, "n", squared=True)
    if not 2 <= _int(m, "m") <= 2**n:
        raise DomainError(f"m must lie in [2, {2**n}], got {m}")
    num = m * m + m * (2 ** (n + 1) - 3) + 4**n - 3 * 2**n + 4
    return Fraction(num, 2 * m - 2)


def _branch_quadratic(n: int, alpha: Fraction) -> tuple[int, int, int, int]:
    """(q, K, b, b^2 - 4 K q^2) of q x^2 - b x + K q: alpha = p/q, K = 4^n - 2^n + 2, b = 2p - (2^(n+1) - 1) q."""
    q, big_k = alpha.denominator, 4**n - 2**n + 2
    b = 2 * alpha.numerator - (2 ** (n + 1) - 1) * q
    return q, big_k, b, b * b - 4 * big_k * q * q


def compare_alpha1(alpha, n: int) -> int:
    """Compare alpha against 2^n + sqrt(K) - 1/2, K = 4^n - 2^n + 2, exactly.

    Returns -1, 0 or 1.  Below this boundary the quadratic transform value
    at index 2 stays non-negative for every admissible d.  With eq_bound's
    b = 2q (alpha + 1/2 - 2^n), the answer is -1 when b <= 0 and else the
    sign of the integer b^2 - 4 K q^2, so no floating point is involved.
    """
    _exponent(n, "n")
    _, _, b, disc = _branch_quadratic(n, as_fraction(alpha))
    return -1 if b <= 0 else (disc > 0) - (disc < 0)


def eq_bound(n: int, alpha) -> PiecewisePrediction:
    """Piecewise upper bound on the depth of a*j^n + b with alpha = a/b.

    Below 2^(n+1) - 1 the bound is floor(alpha) + 1; past that point it
    steps down from 2^(n+1) to 2^n + 1 at the rational thresholds given by
    lambda_threshold.  The bound is a proven equality when floor(alpha) + 1
    is at most 4, which is what is_exact reports.  An n whose 2^(n+1) - 1
    is past CPython's integer digit limit (4300 digits when the limit is
    off) raises DomainError up front; a threshold of the branch label that
    lambda_threshold refuses raises it afterwards.
    """
    _exponent(n, "n")
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    c = int(alpha) + 1
    exact = c <= 4
    top = 2 ** (n + 1) - 1
    if alpha < top:
        return PiecewisePrediction(c, f"alpha in (0,{top})", exact)
    # with x = m - 1 and K = 4^n - 2^n + 2, lambda_threshold(n, m) = (x + K/x + top) / 2 falls as
    # x grows on [1, 2^n - 1], where x^2 < K, so alpha = p/q lies at or below it while x is at most
    # the smaller root of q x^2 - b x + K q, b = 2p - top q; isqrt rounds down, so the quotient may be one over
    q, big_k, b, disc = _branch_quadratic(n, alpha)
    x_max = 2**n - 1
    x = x_max if disc < 0 else min((b - math.isqrt(disc)) // (2 * q), x_max)
    if x > 0 and q * x * x - b * x + big_k * q < 0:
        x -= 1
    try:  # the branch is (lambda(x + 2), lambda(x + 1)], where the bound is 2^n + x + 1
        low = f"[{top}" if x == x_max else f"({lambda_threshold(n, x + 2)}"
        high = "inf)" if x == 0 else f"{lambda_threshold(n, x + 1)}]"
    except DomainError:  # lambda_threshold refuses a threshold that might not print
        message = f"a threshold in the branch label has more than {_digit_limit()} digits, the string conversion limit"
        raise DomainError(message) from None
    return PiecewisePrediction(2**n + x + 1, f"alpha in {low},{high}", exact)


def polynomial_upper_bound(degree: int) -> int:
    """Depth cap 2^(degree+1) for any polynomial tail with positive constant term."""
    _exponent(degree, "degree")
    return 2 ** (degree + 1)
