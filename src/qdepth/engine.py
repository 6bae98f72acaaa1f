"""Exact computation of the depth invariant with certificates.

The depth of a sequence h is the largest d such that every transform value
at d is non-negative.  It always lies between the support start k0 and the
a-priori bound min(kf, k0 + c), so the search space is finite even for
infinite tails.  The depth is monotone in d: the rows of the transform
satisfy row[d][k] = sum over j <= k of row[d+1][j], so a non-negative row
d+1 forces a non-negative row d.  qdepth states how the search uses this.
"""

from itertools import pairwise
from operator import sub

from . import sequences
from .records import Record
from .sequences import BetaTable, GeometricSequence, Sequence, beta_table, binomial
from .sequences import _row_length
from .sequences import beta, beta_rows  # unused here, but the benchmark's tracer rebinds both on engine


class DepthCheck(Record):
    """Outcome of testing candidate depth d by reading row d.

    When ok is False, witness_k is the smallest index whose transform value
    is negative in row d and witness_beta is that value.
    """

    d: int
    ok: bool
    witness_k: int | None = None
    witness_beta: int | None = None


class QDepthResult(Record):
    """Depth of a sequence, its accepted table, the search bound and a witness.

    witness == qdepth_at_least(h, qdepth + 1), the row where the search
    stopped, or None when qdepth is the bound.  Row d holds the prefix sums
    of row d + 1, so its first negative entry rules out every d above
    qdepth; qdepth_at_least(h, d) gives the witness of any other rejected d.
    """

    qdepth: int
    accepted_table: BetaTable
    upper_bound_used: int
    witness: DepthCheck | None

    def to_json_dict(self) -> dict:
        return {
            "qdepth": self.qdepth,
            "upper_bound": self.upper_bound_used,
            "rejections": [{"d": w.d, "k": w.witness_k, "beta": str(w.witness_beta)} for w in [self.witness] if w],
            "table": {str(k): str(v) for k, v in self.accepted_table.entries.items()},
        }


def depth_upper_bound(h: Sequence) -> int:
    """min(kf, k0 + c), the a-priori cap on the depth."""
    st = h.stats()
    ub = st.k0 + st.c
    if st.kf is not None:
        ub = min(ub, st.kf)
    return ub


def qdepth(h: Sequence) -> QDepthResult:
    """Depth of h: the bound for a geometric tail, else the row before the first negative one.

    The paper proves that a geometric tail's depth is its bound, so its
    answer is row `bound` (GeometricSequence.row), in O(bound - k0)
    entries, with no witness.  Other kinds scan rows upward from k0 in one
    loop over one lazy h.iter_values(top) stream: each row is a list built
    in C from the one below it and the next value, [h(k0), row[1] - row[0],
    ..., h(d) - row[-1]], so a scan stopped at row d reads no value past
    h(d).  It stops at the first row with a negative entry, after
    O((answer - k0)^2) entries: the answer is the row before it, kept with
    that row's DepthCheck as the witness, whose first negative entry rules
    out every larger candidate.  The row at k0 is h(k0) > 0 alone, so the
    answer is never below k0.  The scan stops at top = min(bound, k0 +
    sequences.entry_span()).  A bound past that span is refused with
    DomainError: for a geometric tail before any row is built, for other
    kinds when no row up to top is negative.
    """
    ub = depth_upper_bound(h)
    k0 = h.stats().k0
    top = min(ub, k0 + sequences.entry_span())
    if isinstance(h, GeometricSequence):
        if top == ub:
            return QDepthResult(ub, _table(k0, h.row(ub)), ub, None)
    else:
        values = h.iter_values(top)
        h0 = next(values)
        accepted = [h0]
        for d, v in enumerate(values, k0 + 1):
            row = [h0, *map(sub, accepted[1:], accepted), v - accepted[-1]]
            if min(row) < 0:
                i = next(i for i, b in enumerate(row) if b < 0)
                return QDepthResult(d - 1, _table(k0, accepted), ub, DepthCheck(d, False, k0 + i, row[i]))
            accepted = row
        if top == ub:
            return QDepthResult(ub, _table(k0, accepted), ub, None)
    # top < ub, and no row up to top was negative (a geometric tail built none): this raises
    _row_length(h, ub, f"no negative row up to d={top}, and the bound d={{}}")


def _table(k0: int, row: list[int]) -> BetaTable:
    """The non-negative row d = k0 + len(row) - 1, as a table keyed by k."""
    d = k0 + len(row) - 1
    return BetaTable(d, dict(zip(range(k0, d + 1), row)), None)


def qdepth_value(h: Sequence) -> int:
    return qdepth(h).qdepth


def qdepth_at_least(h: Sequence, d: int) -> DepthCheck:
    """Test one candidate depth by reading row d from beta_table; d is first refused as in the side tests."""
    _row_length(h, d, "candidate depth {}")
    table = beta_table(h, d)
    k = table.first_negative
    return DepthCheck(d, k is None, k, table.entries.get(k))


def necessary_condition_holds(h: Sequence, d: int) -> bool:
    """Binomial lower bound on the values, implied by depth >= d.

    Requires h(k) >= binomial(d - k0, k - k0) * h(k0) on [k0, d].  Both
    side tests refuse a d below k0 or more than entry_span() above it with
    DomainError before reading any value.
    """
    st = h.stats()
    _row_length(h, d, "candidate depth {}")
    return all(v >= binomial(d - st.k0, i) * st.h0 for i, v in enumerate(h.iter_values(d)))


def sufficient_condition_holds(h: Sequence, d: int) -> bool:
    """Stepwise growth test that forces depth >= d.

    Requires h(k) >= (d - k + 1) * h(k - 1) for every k in [k0 + 1, d];
    d is refused as in necessary_condition_holds.
    """
    _row_length(h, d, "candidate depth {}")
    return all(v >= (d - k + 1) * u for k, (u, v) in enumerate(pairwise(h.iter_values(d)), h.stats().k0 + 1))
