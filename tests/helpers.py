"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library code paths they check: binomial
coefficients come from an additive Pascal triangle, transform values from
a separate signed sum over explicit value dictionaries, depth from a
scan that extends past the a-priori search window, partition verdicts
from a pairwise overlap scan over explicitly listed interval members, the
piecewise bound from a linear scan over every threshold, and the n = 1, 2
closed forms from the paper's literal threshold tables.
"""

import random
from fractions import Fraction

from qdepth import FiniteSequence, GeometricSequence, PolynomialSequence, lambda_threshold


def pascal_binomial(m: int, t: int) -> int:
    if t < 0 or t > m:
        return 0
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[t]


def values_dict(h, lo: int, hi: int) -> dict:
    return {j: h.value_at(j) for j in range(lo, hi + 1)}


def oracle_beta(values: dict, k: int, d: int) -> int:
    total = 0
    for j, v in values.items():
        if j <= k:
            total += (-1) ** (k - j) * pascal_binomial(d - j, k - j) * v
    return total


def oracle_qdepth(h, scan_past: int = 5) -> int:
    """Largest d with a fully non-negative table, scanned past the search cap."""
    st = h.stats()
    ub = st.k0 + st.c if st.kf is None else min(st.kf, st.k0 + st.c)
    vals = values_dict(h, st.k0, ub + scan_past)
    best = None
    for d in range(st.k0, ub + scan_past + 1):
        if all(oracle_beta(vals, k, d) >= 0 for k in range(st.k0, d + 1)):
            best = d
    return best


def _set_text(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _members(bottom: int, top: int) -> list[int]:
    """Sets between bottom and top, largest mask first."""
    return [m for m in range(top, -1, -1) if m & bottom == bottom and m & ~top == 0]


def oracle_partition_report(n: int, family, intervals) -> tuple:
    """(ok, sdepth, reason) of a partition, clause by clause and pair by pair.

    Clauses in order: bottoms under tops inside [1, n]; intervals no larger
    than the family and inside it (the largest outside mask is named); no
    two intervals sharing a member (the first pair in index order is
    named); every member covered (the first missing one in the family's
    iteration order is named); interval sizes adding up to the family size.
    """
    family = frozenset(family)
    if not intervals:
        return False, None, "no intervals given"
    for c, d in intervals:
        if c & ~d:
            return False, None, f"bottom {_set_text(c)} is not contained in top {_set_text(d)}"
        if d >> n:
            return False, None, f"top {_set_text(d)} exceeds the ground set [1, {n}]"
    for c, d in intervals:
        span = 2 ** (bin(d).count("1") - bin(c).count("1"))
        if span > len(family):
            return (False, None, f"interval [{_set_text(c)},{_set_text(d)}] has {span} members "
                    f"but the family has only {len(family)}")
        for m in _members(c, d):
            if m not in family:
                return (False, None, f"interval [{_set_text(c)},{_set_text(d)}] contains "
                        f"{_set_text(m)}, which is not in the family")
    for i, (c1, d1) in enumerate(intervals):
        for c2, d2 in intervals[i + 1:]:
            if set(_members(c1, d1)) & set(_members(c2, d2)):
                return (False, None, f"intervals [{_set_text(c1)},{_set_text(d1)}] and "
                        f"[{_set_text(c2)},{_set_text(d2)}] overlap")
    for m in family:
        if not any(m in _members(c, d) for c, d in intervals):
            return False, None, f"family member {_set_text(m)} is not covered"
    total = sum(len(_members(c, d)) for c, d in intervals)
    if total != len(family):
        return False, None, f"interval sizes sum to {total} but the family has {len(family)} members"
    return True, min(bin(d).count("1") for _, d in intervals), None


def oracle_eq_bound(n: int, alpha: Fraction) -> tuple:
    """(value, branch, exact) of the piecewise bound, trying the thresholds one by one."""
    c = int(alpha) + 1
    top = 2 ** (n + 1) - 1
    if alpha < top:
        return c, f"alpha in (0,{top})", c <= 4
    prev = None
    for i in range(1, 2**n):
        lam = lambda_threshold(n, 2**n + 1 - i)
        if alpha <= lam:
            low = f"[{top}" if i == 1 else f"({prev}"
            return 2 ** (n + 1) + 1 - i, f"alpha in {low},{lam}]", c <= 4
        prev = lam
    return 2**n + 1, f"alpha in ({prev},inf)", c <= 4


def paper_closed_form(n: int, alpha: Fraction) -> int:
    """Depth of a*j^n + b for n = 1, 2 with alpha = a/b, from the literal tables."""
    if alpha < 2 ** (n + 1) - 1:
        return int(alpha) + 1
    steps = {1: [(4, 4)], 2: [(Fraction(22, 3), 8), (8, 7), (11, 6)]}[n]
    return next((value for lam, value in steps if alpha <= lam), 2**n + 1)


def random_finite(rng: random.Random, max_window: int = 8, max_value: int = 20,
                  offset_lo: int = -5, offset_hi: int = 5) -> FiniteSequence:
    width = rng.randint(1, max_window)
    values = [rng.randint(0, max_value) for _ in range(width)]
    if not any(values):
        values[rng.randrange(width)] = rng.randint(1, max_value)
    return FiniteSequence(rng.randint(offset_lo, offset_hi), values)


def random_polynomial(rng: random.Random, max_degree: int = 5, max_coeff: int = 20) -> PolynomialSequence:
    degree = rng.randint(1, max_degree)
    coeffs = [rng.randint(0, max_coeff) for _ in range(degree + 1)]
    coeffs[0] = rng.randint(1, max_coeff)
    coeffs[-1] = rng.randint(1, max_coeff)
    return PolynomialSequence(coeffs)


def random_geometric(rng: random.Random, max_scale: int = 9, max_ratio: int = 9) -> GeometricSequence:
    return GeometricSequence(rng.randint(1, max_scale), rng.randint(1, max_ratio))


def random_sequence(rng: random.Random):
    roll = rng.random()
    if roll < 0.6:
        return random_finite(rng)
    if roll < 0.8:
        return random_polynomial(rng, max_degree=3, max_coeff=9)
    return random_geometric(rng)


def growth_sequence(rng: random.Random, d: int) -> FiniteSequence:
    """A sequence satisfying the stepwise growth test at d, by construction."""
    k0 = rng.randint(-3, 3)
    values = [rng.randint(1, 5)]
    for k in range(k0 + 1, d + 1):
        floor = (d - k + 1) * values[-1]
        values.append(floor + rng.randint(0, 3))
    return FiniteSequence(k0, values)
