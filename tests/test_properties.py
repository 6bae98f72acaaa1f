"""Property tests of the depth search against the independent oracles.

Sequences of all three kinds are drawn by hypothesis; every property is
checked against helpers.oracle_qdepth and helpers.oracle_beta, which read
only sequence values and use neither the engine nor the transform code.
Runs are derandomized so that a failure repeats.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from helpers import oracle_beta, oracle_qdepth, values_dict
from qdepth import (
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    Rejection,
    depth_upper_bound,
    qdepth,
    qdepth_at_least,
    qdepth_value,
)

shifts = st.integers(-3, 3)
finite = st.builds(
    FiniteSequence, st.integers(-4, 4), st.lists(st.integers(0, 20), min_size=1, max_size=7).filter(any)
)
polynomial = st.builds(
    lambda c0, middle, top, shift: PolynomialSequence([c0, *middle, top], shift),
    st.integers(1, 6), st.lists(st.integers(0, 6), max_size=2), st.integers(1, 6), shifts,
)
geometric = st.builds(GeometricSequence, st.integers(1, 9), st.integers(1, 8), shifts)
sequences = st.one_of(finite, polynomial, geometric)

oracle_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@oracle_settings
@given(sequences)
def test_depth_matches_oracle(h):
    assert qdepth_value(h) == oracle_qdepth(h)


@oracle_settings
@given(sequences)
def test_acceptance_is_monotone_up_to_the_bound(h):
    q = qdepth_value(h)
    for d in range(h.stats().k0, depth_upper_bound(h) + 1):
        assert qdepth_at_least(h, d).ok == (d <= q)


@oracle_settings
@given(sequences)
def test_lazy_rejections_match_eager_oracle_scan(h):
    result = qdepth(h)
    k0, ub = h.stats().k0, result.upper_bound_used
    values = values_dict(h, k0, ub)
    eager = []
    for d in range(ub, result.qdepth, -1):
        row = [(k, oracle_beta(values, k, d)) for k in range(k0, d + 1)]
        k, b = next((k, b) for k, b in row if b < 0)
        eager.append(Rejection(d, k, b))
    assert result.rejections == tuple(eager)
