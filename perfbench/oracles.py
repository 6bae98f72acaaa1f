"""Independent expectations for the benchmark's correctness gate.

Nothing here calls the library code being timed.  Binomials come from an
additive Pascal triangle, sequence values from the generated parameters,
depths from the paper's closed forms or from a scan of transform signs,
and partitions are checked by mapping every member to the one interval
that holds it.
"""

from __future__ import annotations


class Pascal:
    """Binomial coefficients from an additive Pascal triangle, grown on demand."""

    def __init__(self, n: int = 0):
        self.rows = [[1]]
        self.grow(n)

    def grow(self, n: int) -> None:
        rows = self.rows
        while len(rows) <= n:
            prev = rows[-1]
            rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])

    def __call__(self, m: int, t: int) -> int:
        if t < 0 or t > m:
            return 0
        self.grow(m)
        return self.rows[m][t]


def beta(value, k0: int, k: int, d: int, pascal: Pascal) -> int:
    """Signed transform sum at (k, d) for the sequence j -> value(j) starting at k0."""
    total = 0
    for j in range(k0, k + 1):
        term = pascal(d - j, k - j) * value(j)
        total += -term if (k - j) % 2 else term
    return total


def depth(values: dict, pascal: Pascal, scan_past: int = 2) -> int:
    """Largest d whose whole transform table is non-negative.

    values maps indices to the positive run and its tail; the scan runs
    past the last given index without assuming monotonicity.
    """
    k0 = min(j for j, v in values.items() if v)
    value = lambda j: values.get(j, 0)
    best = k0
    for d in range(k0, max(values) + scan_past + 1):
        if all(beta(value, k0, k, d, pascal) >= 0 for k in range(k0, d + 1)):
            best = d
    return best


def geometric_value(scale: int, ratio: int, shift: int):
    return lambda j: scale * ratio ** (j + shift) if j + shift >= 0 else 0


def polynomial_value(coeffs, shift: int = 0):
    def value(j):
        t = j + shift
        return sum(c * t**i for i, c in enumerate(coeffs)) if t >= 0 else 0
    return value


def popcount_levels(masks) -> dict:
    levels: dict[int, int] = {}
    for m in masks:
        k = bin(m).count("1")
        levels[k] = levels.get(k, 0) + 1
    return levels


def partition_problem(family: set, intervals) -> str | None:
    """None when the (bottom, top) mask pairs partition family exactly."""
    if not intervals:
        return "no intervals"
    owner: dict[int, int] = {}
    for i, (c, d) in enumerate(intervals):
        if c & ~d:
            return f"interval {i}: bottom not under top"
        free = d & ~c
        sub = free
        while True:
            m = c | sub
            if m not in family:
                return f"interval {i} holds {m:#x}, outside the family"
            if m in owner:
                return f"intervals {owner[m]} and {i} share {m:#x}"
            owner[m] = i
            if sub == 0:
                break
            sub = (sub - 1) & free
    if len(owner) != len(family):
        return f"{len(family) - len(owner)} family members are not covered"
    return None


def fmt_set(mask: int) -> str:
    """A mask as the library prints a set in validation reasons: {1,3,4}."""
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"
