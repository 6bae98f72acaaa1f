"""Fixtures shared across test modules."""

import pytest

from qdepth import FiniteSequence, GeometricSequence, PolynomialSequence, Poset, poset_qdepth, sdepth_bruteforce


@pytest.fixture(scope="session")
def census_over_four():
    """Every nonempty family over [4], searched once: (sets, sdepth, its partition's intervals, poset_qdepth).

    Family f, for f in 1..2^16 - 1, holds the sets m < 16 with bit m of f set, in increasing order.  Only
    the answers are kept, not the posets, so the census holds about 40 MB.
    """
    census = []
    for f in range(1, 1 << 16):
        sets = tuple(m for m in range(16) if f >> m & 1)
        poset = Poset(4, frozenset(sets))
        result = sdepth_bruteforce(poset)
        census.append((sets, result.sdepth, result.partition.intervals, poset_qdepth(poset).qdepth))
    return census


@pytest.fixture
def row_counter(monkeypatch):
    """Counts the iter_values calls of every sequence kind and the values drawn from them.

    The depth scan of engine.qdepth makes one call and draws one value per
    row it builds, so in a test that reads no other values, "calls" counts
    scans and "rows" counts their rows.
    """
    counts = {"calls": 0, "rows": 0}

    def drawn(v):
        counts["rows"] += 1
        return v

    def counting(original):
        def iter_values(self, hi):
            counts["calls"] += 1
            return map(drawn, original(self, hi))

        return iter_values

    for kind in (FiniteSequence, PolynomialSequence, GeometricSequence):
        monkeypatch.setattr(kind, "iter_values", counting(kind.iter_values))
    return counts
