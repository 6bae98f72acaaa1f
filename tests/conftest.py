"""Fixtures shared across test modules."""

import pytest

from qdepth import Poset, poset_qdepth, sdepth_bruteforce


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
