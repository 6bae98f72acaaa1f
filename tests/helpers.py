"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library code paths they check: binomial
coefficients come from an additive Pascal triangle, transform values from
a separate signed sum over explicit value dictionaries, depth from a
scan that extends past the a-priori search window, partition verdicts
from a pairwise overlap scan over explicitly listed interval members, the
piecewise bound from a linear scan over every threshold, the n = 1, 2
closed forms from the paper's literal threshold tables, and the best
partition depth from a memoized search that rebuilds its candidate tops at
every state.  The interval disjointness rule and the counting identity of
bottoms-by-size counts against level counts live here too; only their
tests use them.
"""

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction

from qdepth import FiniteSequence, GeometricSequence, PolynomialSequence, lambda_threshold


_PASCAL = [(1,)]  # rows of the additive triangle, extended on demand


def pascal_binomial(m: int, t: int) -> int:
    if t < 0 or t > m:
        return 0
    while len(_PASCAL) <= m:
        row = _PASCAL[-1]
        _PASCAL.append((1, *(row[i] + row[i + 1] for i in range(len(row) - 1)), 1))
    return _PASCAL[m][t]


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

    Clauses in order: bottoms under tops inside [1, n]; intervals inside
    the family (the largest outside mask is named); no two intervals
    sharing a member (the first pair in index order is named); every
    member covered (the first missing one in the family's iteration order
    is named); interval sizes adding up to the family size.
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
        for m in _members(c, d):
            if m not in family:
                return (False, None, f"interval [{_set_text(c)},{_set_text(d)}] contains "
                        f"{_set_text(m)}, which is not in the family")
    # each interval's members, listed once: by now every one lies inside the family
    members = [set(_members(c, d)) for c, d in intervals]
    for i, (c1, d1) in enumerate(intervals):
        for j in range(i + 1, len(intervals)):
            if members[i] & members[j]:
                c2, d2 = intervals[j]
                return (False, None, f"intervals [{_set_text(c1)},{_set_text(d1)}] and "
                        f"[{_set_text(c2)},{_set_text(d2)}] overlap")
    for m in family:
        if not any(m in s for s in members):
            return False, None, f"family member {_set_text(m)} is not covered"
    total = sum(map(len, members))
    if total != len(family):
        return False, None, f"interval sizes sum to {total} but the family has {len(family)} members"
    return True, min(bin(d).count("1") for _, d in intervals), None


def intervals_disjoint(c1: int, d1: int, c2: int, d2: int) -> bool:
    """Two intervals meet exactly when the union of bottoms fits under both tops."""
    return (c1 | c2) & ~(d1 & d2) != 0


def counting_identity_check(d: int, b, levels: Mapping) -> bool:
    """Check that bottoms-by-size counts b reproduce the given level counts.

    b maps a bottom size j to a number of intervals with that bottom and a
    top of size d (a plain sequence is read as sizes 1..d).  Level k then
    receives binomial(d - j, k - j) sets from each of them; the check
    compares that total with levels for every k up to d.
    """
    if isinstance(b, Sequence) and not isinstance(b, Mapping):
        b_map = {j: count for j, count in enumerate(b, start=1)}
    else:
        b_map = dict(b)
    lo = min(list(b_map) + [k for k, v in levels.items() if v])
    for k in range(lo, d + 1):
        expected = sum(count * pascal_binomial(d - j, k - j) for j, count in b_map.items())
        if expected != levels.get(k, 0):
            return False
    return True


def oracle_sdepth_search(sets) -> tuple:
    """(sdepth, intervals) of a family, by the memoized threshold search.

    The family is sorted by size, and the smallest unassigned set is the
    bottom of its interval.  A descending threshold on the top sizes bounds
    the search; each state recomputes its candidate tops, sorts them and
    counts every interval's free members, and the memo keeps every state's
    answer, feasible or not.
    """
    masks = sorted(sets, key=lambda m: (m.bit_count(), m))
    s = len(masks)
    sizes = [m.bit_count() for m in masks]

    sup = [0] * s
    sub = [0] * s
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a & ~b == 0:
                sup[i] |= 1 << j
                sub[j] |= 1 << i

    t_hi = min(max(sizes[j] for j in range(s) if sup[i] >> j & 1) for i in range(s))
    t_lo = sizes[0]
    full = (1 << s) - 1

    for t in range(t_hi, t_lo - 1, -1):
        sizemask = sum(1 << j for j in range(s) if sizes[j] >= t)
        cand = [sup[i] & sizemask for i in range(s)]
        memo: dict = {}

        def cover(remaining: int):
            if remaining == 0:
                return []
            hit = memo.get(remaining, False)
            if hit is not False:
                return hit
            rem = remaining
            while rem:
                low = rem & -rem
                if cand[low.bit_length() - 1] & remaining == 0:
                    memo[remaining] = None
                    return None
                rem ^= low
            i = (remaining & -remaining).bit_length() - 1
            result = None
            tops = sorted(
                (j for j in range(s) if cand[i] >> j & 1 and remaining >> j & 1),
                key=lambda j: (-sizes[j], j),
            )
            for j in tops:
                avail = sup[i] & sub[j] & remaining
                if avail.bit_count() != 1 << (sizes[j] - sizes[i]):
                    continue
                rest = cover(remaining & ~avail)
                if rest is not None:
                    result = [(i, j)] + rest
                    break
            memo[remaining] = result
            return result

        found = cover(full)
        if found is not None:
            return t, tuple((masks[i], masks[j]) for i, j in found)

    raise AssertionError("unreachable: singleton intervals always cover the family")


def plain_sdepth(sets) -> int:
    """Best partition depth over every interval partition, enumerated in full.

    The lowest unassigned mask goes, in turn, into every interval of free
    sets that contains it; no threshold, no ordering argument and no memo.
    """
    def best(free: frozenset) -> int:
        if not free:
            return 1 << 30
        m = min(free)
        result = -1
        for c in free:
            if c & ~m:
                continue
            for d in free:
                if m & ~d:
                    continue
                members = set(_members(c, d))
                if members <= free:
                    result = max(result, min(bin(d).count("1"), best(free - members)))
        return result

    return best(frozenset(sets))


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
