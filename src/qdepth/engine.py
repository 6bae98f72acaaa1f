"""Exact computation of the depth invariant with certificates.

The depth of a sequence h is the largest d such that every transform value
at d is non-negative.  It always lies between the support start k0 and
min(kf, k0 + c), so the search space is finite even for infinite tails.

The depth is monotone in d: the rows of the transform satisfy
row[d][k] = sum over j <= k of row[d+1][j], so a non-negative row d+1
forces a non-negative row d.  The search therefore scans upward from k0
and stops at the first row with a negative entry; its cost follows the
answer, not the a-priori bound.  The result carries the accepted table,
the first negative entry of the row where the scan stopped and, built on
first access under a fixed entry budget, one witness for every rejection.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DomainError
from .records import Record
from .sequences import ENTRY_SPAN, BetaTable, Sequence, beta_rows, beta_table, binomial, _first_negative, _index
from .sequences import beta  # unused here, but the benchmark's tracer rebinds engine.beta


class Rejection(Record):
    """A candidate depth d ruled out by the negative value beta at index k."""

    d: int
    k: int
    beta: int


class DepthCheck(Record):
    """Outcome of testing one candidate depth.

    When ok is False, witness_k is the smallest index whose transform value
    is negative and witness_beta is that value.
    """

    ok: bool
    witness_k: int | None = None
    witness_beta: int | None = None


class QDepthResult(Record):
    """Depth of a sequence, its accepted table, the search bound and a witness.

    witness is the first negative entry of row qdepth + 1, where the search
    stopped, or None when qdepth is the bound.  rejections holds one
    Rejection for every d from upper_bound_used down to qdepth + 1, with k
    the smallest negative index, so witness is its last entry.  It is
    computed on first access by a second scan of the rows up to the bound,
    and raises DomainError when that scan would exceed ENTRY_BUDGET
    entries.  Equality, repr, pickling and copying never compute it.
    """

    qdepth: int
    accepted_table: BetaTable
    upper_bound_used: int
    sequence: Sequence
    witness: Rejection | None

    @cached_property
    def rejections(self) -> tuple[Rejection, ...]:
        q, ub = self.qdepth, self.upper_bound_used
        if q == ub:
            return ()
        found = []
        for d, row in beta_rows(self.sequence, ub):
            if d > q:
                k = _first_negative(row)
                found.append(Rejection(d, k, row[k]))
        return tuple(reversed(found))

    def to_json_dict(self) -> dict:
        return {
            "qdepth": self.qdepth,
            "upper_bound": self.upper_bound_used,
            "rejections": [{"d": r.d, "k": r.k, "beta": str(r.beta)} for r in [self.witness] if r is not None],
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
    """Depth of h, by an upward scan that stops at the first negative row.

    Rows are built from k0 up to the a-priori cap min(kf, k0 + c).  Each
    row holds the prefix sums of the next one, so once a row has a
    negative entry every later row has one too: the row before the first
    negative one is the answer, or the cap itself when no row is negative.
    That row is kept, with the first negative entry of the next one as the
    witness, and the work is O((answer - k0)^2) entries.
    The row at k0 is the single positive entry h(k0), so the answer is
    never below k0.  The scan stops at k0 + ENTRY_SPAN, and DomainError
    is raised when no row up to there is negative but the cap lies further.
    The full list of rejection witnesses is built on first access to the
    result's rejections, within ENTRY_BUDGET.
    """
    ub = depth_upper_bound(h)
    top = min(ub, h.stats().k0 + ENTRY_SPAN)
    witness = None
    for d, row in beta_rows(h, top):
        if min(row.values()) < 0:
            k = _first_negative(row)
            witness = Rejection(d, k, row[k])
            break
        q, accepted = d, row
    if q == top < ub:
        raise DomainError(f"no negative row up to d={top}, and the bound d={ub} is past the entry budget")
    return QDepthResult(q, BetaTable(q, accepted, None), ub, h, witness)


def qdepth_value(h: Sequence) -> int:
    return qdepth(h).qdepth


def qdepth_at_least(h: Sequence, d: int) -> DepthCheck:
    """Test one candidate depth by reading row d of the transform, built within ENTRY_BUDGET."""
    table = beta_table(h, _index(h, d, "candidate depth {}"))
    k = table.first_negative
    return DepthCheck(k is None, k, table.entries.get(k))


def necessary_condition_holds(h: Sequence, d: int) -> bool:
    """Binomial lower bound on the values, implied by depth >= d.

    Requires h(k) >= binomial(d - k0, k - k0) * h(k0) on [k0, d].
    """
    st = h.stats()
    _index(h, d, "candidate depth {}")
    return all(
        h.value_at(k) >= binomial(d - st.k0, k - st.k0) * st.h0 for k in range(st.k0, d + 1)
    )


def sufficient_condition_holds(h: Sequence, d: int) -> bool:
    """Stepwise growth test that forces depth >= d.

    Requires h(k) >= (d - k + 1) * h(k - 1) for every k in [k0 + 1, d].
    """
    _index(h, d, "candidate depth {}")
    return all(
        h.value_at(k) >= (d - k + 1) * h.value_at(k - 1) for k in range(h.stats().k0 + 1, d + 1)
    )
