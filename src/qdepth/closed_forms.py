"""Closed-form depth values and bounds for structured tails.

Covers geometric tails, the general piecewise upper bound for the
families a*j^n + b with its rational thresholds (for n = 1 and n = 2 the
bound is the exact depth), and the 2^(n+1) cap for arbitrary polynomial
tails.  Everything is exact: thresholds are Fractions and the one
irrational boundary is compared by squaring, so pairs that sit exactly on
a threshold are classified correctly.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DomainError
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
        return {"prediction": self.value, "branch": self.branch, "exact": self.is_exact}


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or string like '22/3' to an exact Fraction."""
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"not an exact rational: {x!r}")


def monomial_plus_constant(a: int, b: int, degree: int) -> PolynomialSequence:
    """The tail a*j^degree + b as a polynomial sequence."""
    _int(degree, "degree", 1)
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
    as lambda_(2^n + 1 - m).  Thresholds grow strictly as m decreases.
    """
    _int(n, "n", 1)
    if not 2 <= _int(m, "m") <= 2**n:
        raise DomainError(f"m must lie in [2, {2**n}], got {m}")
    num = m * m + m * (2 ** (n + 1) - 3) + 4**n - 3 * 2**n + 4
    return Fraction(num, 2 * m - 2)


def compare_alpha1(alpha, n: int) -> int:
    """Compare alpha against 2^n + sqrt(4^n - 2^n + 2) - 1/2, exactly.

    Returns -1, 0 or 1.  Below this boundary the quadratic transform value
    at index 2 stays non-negative for every admissible d.  The comparison
    squares alpha + 1/2 - 2^n against 4^n - 2^n + 2 after a sign check, so
    no floating point is involved.
    """
    _int(n, "n", 1)
    alpha = as_fraction(alpha)
    t = alpha + Fraction(1, 2) - 2**n
    if t <= 0:
        return -1
    radicand = 4**n - 2**n + 2
    tt = t * t
    if tt < radicand:
        return -1
    if tt == radicand:
        return 0
    return 1


def eq_bound(n: int, alpha) -> PiecewisePrediction:
    """Piecewise upper bound on the depth of a*j^n + b with alpha = a/b.

    Below 2^(n+1) - 1 the bound is floor(alpha) + 1; past that point it
    steps down from 2^(n+1) to 2^n + 1 at the rational thresholds given by
    lambda_threshold.  The bound is a proven equality when floor(alpha) + 1
    is at most 4, which is what is_exact reports.  An n whose 2^(n+1) - 1
    is past CPython's integer digit limit raises DomainError up front.
    """
    _int(n, "n", 1)
    limit = sys.get_int_max_str_digits()
    # 2^(n+1) - 1 >= 10^limit; log2(10) > 3, so the exact test runs only near the limit
    if limit and n + 1 > 3 * limit and n + 1 >= (10**limit).bit_length():
        raise DomainError(f"n is too large: 2^(n+1) - 1 has more than {limit} digits, the string conversion limit")
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    c = int(alpha) + 1
    exact = c <= 4
    top = 2 ** (n + 1) - 1
    if alpha < top:
        return PiecewisePrediction(c, f"alpha in (0,{top})", exact)
    # the thresholds grow strictly with i, so bisect for the first i in
    # [1, 2^n) with alpha <= lam(i); i = 2^n means alpha lies past them all
    lam = lambda i: lambda_threshold(n, 2**n + 1 - i)
    lo, hi = 1, 2**n
    while lo < hi:
        mid = (lo + hi) // 2
        if alpha <= lam(mid):
            hi = mid
        else:
            lo = mid + 1
    low = f"[{top}" if lo == 1 else f"({lam(lo - 1)}"
    high = "inf)" if lo == 2**n else f"{lam(lo)}]"
    return PiecewisePrediction(2 ** (n + 1) + 1 - lo, f"alpha in {low},{high}", exact)


def polynomial_upper_bound(degree: int) -> int:
    """Depth cap 2^(degree+1) for any polynomial tail with positive constant term."""
    _int(degree, "degree", 1)
    return 2 ** (degree + 1)
