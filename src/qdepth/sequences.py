"""Non-negative integer sequences and their alternating binomial transform.

A sequence here is a function h from the integers to the non-negative
integers that vanishes far to the left and is not identically zero.  Three
representations are supported: finitely supported value lists, polynomial
tails and geometric tails.  Tails are evaluated lazily, so transform values
are exact with finite work even though the support is infinite.
beta_rows builds transform rows k0..d by the first-difference recurrence as
dicts, for tables; engine.qdepth's depth scan runs the same recurrence on
lists.  A tail's row() reads row d from its generating function (one shared
kernel).

All arithmetic is on Python ints, so nothing overflows.
"""

import math
import sys
from collections.abc import Iterator
from itertools import accumulate, chain, repeat
from operator import mul

from .errors import DomainError, SchemaError
from .records import Record

# Every row, table and candidate depth d obeys d - k0 <= entry_span() = 1998, so rows k0..d hold at most
# ENTRY_BUDGET entries; the largest scans take about a second on a 2-core Xeon VM under CPython 3.11 and
# keep one row in memory.  ENTRY_BUDGET itself bounds counts that are not rows: members, points, terms.
ENTRY_BUDGET = 2_000_000
# Largest family posets.sdepth_bruteforce searches by default.  It is kept
# here so that the command line can show it without importing posets.
DEFAULT_BRUTEFORCE_CAP = 24


def binomial(m: int, t: int) -> int:
    """Binomial coefficient, 0 whenever t < 0 or t > m."""
    if t < 0 or t > m:
        return 0
    return math.comb(m, t)


class SequenceStats(Record):
    """Support markers of a sequence.

    k0 is the first index with a positive value, kf the last index of the
    initial positive run (None when the values never return to zero), and
    c = h(k0 + 1) // h(k0) is the growth quotient that bounds the depth.
    """

    k0: int
    kf: int | None
    h0: int
    h1: int
    c: int


class Sequence(Record):
    """Base class for all sequence kinds.

    Subclasses are records that validate in __post_init__ and compute their
    support stats there once, outside the fields.  A subclass's kind name
    (a class attribute) and its fields are its JSON schema: to_json_dict
    writes them and sequence_from_json_dict reads them back.  support_end
    is the last index with a positive value, or None for a tail.  Each kind
    defines value_at(j), the value h(j); shifted(m), the sequence
    j -> h(m + j); and scaled(c), the sequence j -> c * h(j) for a positive
    integer c.
    """

    support_end = None

    def stats(self) -> SequenceStats:
        return self._stats

    def iter_values(self, hi: int) -> Iterator[int]:
        """h(k0), h(k0 + 1), ..., h(hi) in order, computed lazily, for hi >= k0."""
        return map(self.value_at, range(hi - _span(self, hi, "values end {}"), hi + 1))

    def window(self, hi: int) -> "FiniteSequence":
        """Materialize the values on [k0, hi] as a finite sequence; none past the support end is read."""
        _span(self, hi, "window end {}")
        hi = hi if self.support_end is None else min(hi, self.support_end)
        return FiniteSequence(self.stats().k0, list(self.iter_values(hi)))

    def to_json_dict(self) -> dict:
        """The kind and every field, leaving out those at their default."""
        out = {"kind": self.kind}
        for name in self._fields:
            v = getattr(self, name)
            if name not in self._defaults or v != self._defaults[name]:
                out[name] = list(v) if isinstance(v, tuple) else v
        return out


def _int(v: int, what: str, least: int | None = None) -> int:
    """v itself when it is an int, not a bool, and at least `least`; DomainError otherwise."""
    if type(v) is int and (least is None or v >= least):
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"{what} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise DomainError(f"{what} must be at least {least}, got {v}")
    return v


def _span(h: Sequence, v: int, what: str) -> int:
    """v - k0 for an int v at or after the support start k0 of h; what is a template like "window end {}"."""
    k0 = h.stats().k0
    if isinstance(v, bool) or not isinstance(v, int) or v < k0:
        _int(v, what.format(v))
        raise DomainError(f"{what.format(v)} lies below the support start {k0}")
    return v - k0


class FiniteSequence(Sequence):
    """Finitely supported sequence: values[i] = h(offset + i), zero elsewhere.

    Stored values are trimmed so that the first and last entries are
    positive; equality is therefore structural.
    """

    kind = "finite"
    offset: int
    values: tuple

    def __post_init__(self):
        self.__dict__.update(_trimmed(_int(self.offset, "offset"), [_int(v, "values", 0) for v in self.values]))

    @property
    def support_end(self) -> int:
        return self.offset + len(self.values) - 1

    def iter_values(self, hi: int) -> Iterator[int]:
        # the stored values, then zeros past the support end
        n = _span(self, hi, "values end {}") + 1
        return chain(self.values[:n], repeat(0, n - len(self.values)))

    def value_at(self, j: int) -> int:
        i = j - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def shifted(self, m: int) -> "FiniteSequence":
        return FiniteSequence(self.offset - _int(m, "shift"), self.values)

    def scaled(self, c: int) -> "FiniteSequence":
        _int(c, "scale factor", 1)
        return FiniteSequence(self.offset, [c * v for v in self.values])


def _trimmed(offset: int, vals: list | tuple) -> dict:
    """The fields and stats of a finite sequence: vals trimmed to their first and last positive entries."""
    lo, hi = 0, len(vals)
    while lo < hi and not vals[lo]:
        lo += 1
    if lo == hi:
        raise DomainError("sequence must not be identically zero")
    while not vals[hi - 1]:
        hi -= 1
    vals = tuple(vals[lo:hi])
    k0 = offset + lo
    kf = k0 + (vals.index(0) if 0 in vals else len(vals)) - 1
    h1 = vals[1] if len(vals) > 1 else 0
    return {"offset": k0, "values": vals, "_stats": SequenceStats(k0, kf, vals[0], h1, h1 // vals[0])}


class PolynomialSequence(Sequence):
    """Polynomial tail: P(j) for j >= 0 and zero for j < 0, then shifted.

    Coefficients are non-negative with positive constant and leading terms.
    Shifting stores an offset applied at evaluation time instead of
    rewriting P(j + m), which would break the coefficient sign constraint.
    """

    kind = "polynomial"
    coeffs: tuple
    shift: int = 0

    def __post_init__(self):
        _int(self.shift, "shift")
        cs = [_int(a, "coeffs", 0) for a in self.coeffs]
        if not cs:
            raise DomainError("coeffs must be nonempty")
        if cs[0] < 1:
            raise DomainError("constant coefficient must be positive")
        if cs[-1] < 1:
            raise DomainError("leading coefficient must be positive")
        h1 = sum(cs)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_stats", SequenceStats(-self.shift, None, cs[0], h1, h1 // cs[0]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value_at(self, j: int) -> int:
        t = j + self.shift
        if t < 0:
            return 0
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * t + a
        return acc

    def row(self, d: int) -> list[int]:
        """Transform values at d for k = k0..d: _tail_row at rate 2 of c_m = Delta^m h(k0), as h(k0 + j) =
        sum c_m C(j, m).  Only m <= D = d - k0 reach u^D, so it reads no value past d."""
        n = _row_length(self, d)
        c = list(self.iter_values(self.stats().k0 + min(len(self.coeffs), n) - 1))
        for m in range(1, len(c)):
            c[m:] = [b - a for a, b in zip(c[m - 1 :], c[m:])]
        return _tail_row(c, n, 2)

    def shifted(self, m: int) -> "PolynomialSequence":
        return PolynomialSequence(self.coeffs, self.shift + _int(m, "shift"))

    def scaled(self, c: int) -> "PolynomialSequence":
        _int(c, "scale factor", 1)
        return PolynomialSequence([c * a for a in self.coeffs], self.shift)


class GeometricSequence(Sequence):
    """Geometric tail: scale * ratio**j for j >= 0 and zero for j < 0, then shifted."""

    kind = "geometric"
    scale: int
    ratio: int
    shift: int = 0

    def __post_init__(self):
        _int(self.scale, "scale", 1)
        _int(self.ratio, "ratio", 1)
        _int(self.shift, "shift")
        st = SequenceStats(-self.shift, None, self.scale, self.scale * self.ratio, self.ratio)
        object.__setattr__(self, "_stats", st)

    def value_at(self, j: int) -> int:
        t = j + self.shift
        if t < 0:
            return 0
        return self.scale * self.ratio**t

    def iter_values(self, hi: int) -> Iterator[int]:
        span = _span(self, hi, "values end {}")
        return accumulate(repeat(self.ratio, span), mul, initial=self.scale)

    def row(self, d: int) -> list[int]:
        """Transform values at d for k = k0..d: _tail_row of H(t) = scale / (1 - ratio t), c = [scale]."""
        return _tail_row([self.scale], _row_length(self, d), self.ratio + 1)

    def shifted(self, m: int) -> "GeometricSequence":
        return GeometricSequence(self.scale, self.ratio, self.shift + _int(m, "shift"))

    def scaled(self, c: int) -> "GeometricSequence":
        _int(c, "scale factor", 1)
        return GeometricSequence(c * self.scale, self.ratio, self.shift)


def entry_span() -> int:
    """The largest D with (D + 1)(D + 2) / 2 <= ENTRY_BUDGET: rows k0..k0 + D fit the budget, read at each call."""
    return (math.isqrt(8 * ENTRY_BUDGET + 1) - 3) // 2


def _row_length(h: Sequence, d: int, what: str = "row at d={}") -> int:
    """D + 1 = d - k0 + 1, the length of row d, after refusing a d below k0 or past k0 + entry_span()."""
    span, limit = _span(h, d, what), entry_span()
    if span > limit:
        raise DomainError(f"{what.format(d)} lies more than {limit} above the support start {d - span}")
    return span + 1


def _tail_row(c: list[int], n: int, rate: int) -> list[int]:
    """Row d of a tail, n = D + 1 = d - k0 + 1: u^0..u^D of (1 - u)^n * sum c_m u^m / (1 - rate u)^(m+1).

    Row d is (1 - u)^D * H(u / (1 - u)) up to u^D, with H(t) = sum h(k0 + j) t^j = sum c_m t^m /
    (1 - (rate - 1) t)^(m+1).  Horner's rule from the last m down sets row to (c_m (1 - u)^n + u row)
    / (1 - rate u): O(D) additions and small-integer products per c_m.
    """
    row = [0] * n
    for cm in reversed(c):
        acc, term, below = 0, cm, 0
        for i in range(n):
            acc = rate * acc + term + below
            below, row[i] = row[i], acc
            term = -term * (n - i) // (i + 1)
    return row


def add(g: Sequence, h: Sequence) -> FiniteSequence:
    """Pointwise sum of two finitely supported sequences."""
    if g.support_end is None or h.support_end is None:
        raise DomainError(
            "pointwise sum is defined for finitely supported sequences; "
            "use window() to materialize a tail first"
        )
    lo = min(g.stats().k0, h.stats().k0)
    hi = max(g.support_end, h.support_end)
    return FiniteSequence(lo, [g.value_at(j) + h.value_at(j) for j in range(lo, hi + 1)])


class BetaTable(Record):
    """All transform values at one d, indexed by k on [k0, d].

    first_negative is the smallest k with a negative entry, or None when
    the whole table is non-negative.  entries is never changed after
    construction, so tables hash by its items.
    """

    d: int
    entries: dict
    first_negative: int | None

    def __hash__(self):
        return hash((self.d, frozenset(self.entries.items()), self.first_negative))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "entries": {str(k): str(v) for k, v in self.entries.items()},
            "first_negative": self.first_negative,
        }


def beta(h: Sequence, k: int, d: int) -> int:
    """The alternating binomial transform of h at (k, d).

    This is the signed sum over j of binomial(d - j, k - j) * h(j); terms
    outside the support vanish, so j runs over [k0, min(k, support end)].
    Before any term, DomainError refuses a call whose largest binomial,
    C(d - k0, k - k0), may pass span * bit_length(span) = 21,978 bits
    (span = entry_span()) by the bound min(d - k0, min(k - k0, d - k) *
    bit_length(d - k0)), or that sums more than ENTRY_BUDGET terms.
    """
    if _int(k, "k") > _int(d, "d"):
        raise DomainError(f"transform requires k <= d, got k={k}, d={d}")
    k0 = h.stats().k0
    span = entry_span()
    bits, limit = min(d - k0, min(k - k0, d - k) * (d - k0).bit_length()), span * span.bit_length()
    if bits > limit:
        raise DomainError(f"transform at k={k}, d={d} may need {bits}-bit binomials, over the limit of {limit}")
    end = k if h.support_end is None else min(k, h.support_end)
    if end - k0 + 1 > ENTRY_BUDGET:
        raise DomainError(f"transform at k={k}, d={d} sums {end - k0 + 1} terms, over the budget of {ENTRY_BUDGET}")
    return sum((-1) ** (k - j) * binomial(d - j, k - j) * h.value_at(j) for j in range(k0, end + 1))


def beta_rows(h: Sequence, up_to: int) -> Iterator[tuple[int, dict]]:
    """Yield (d, row) for every d from k0 to up_to.

    Each row maps k on [k0, d] to the transform value.  Rows are built from
    the previous one by the first-difference recurrence
    row[d+1][k] = row[d][k] - row[d][k-1], with the two boundary entries
    row[d+1][k0] = h(k0) and row[d+1][d+1] = h(d+1) - row[d][d].  At the
    first next(), before any row is built, DomainError refuses an up_to
    below k0 or more than entry_span() above it.
    The values come from one lazy h.iter_values(up_to), so a geometric
    tail pays one multiplication per row and a scan stopped after row d
    has read no value past h(d).
    """
    n = _row_length(h, up_to, "table at d={}")
    k0 = up_to - n + 1  # row up_to holds the n entries k0..up_to
    values = h.iter_values(up_to)
    h0 = next(values)
    row = {k0: h0}
    yield k0, row
    for d, v in zip(range(k0 + 1, up_to + 1), values):
        nxt = {k0: h0}
        for k in range(k0 + 1, d):
            nxt[k] = row[k] - row[k - 1]
        nxt[d] = v - row[d - 1]
        row = nxt
        yield d, row


def _first_negative(row: dict) -> int | None:
    """Smallest k with a negative entry; rows are built in index order."""
    for k, v in row.items():
        if v < 0:
            return k
    return None


def beta_table(h: Sequence, d: int) -> BetaTable:
    """Full transform table at d, for d at or beyond the support start.

    Before any work, every kind gets the beta_rows refusal of a d below k0
    or more than entry_span() above it.  A polynomial tail's table is then
    its row (PolynomialSequence.row, from the generating function) when it
    reads L = min(degree, D) + 1 differences with L <= D / 10, D = d - k0: its
    L * D steps each cost about as much as five of the recurrence's
    D^2 / 2 subtractions, as timed for D from 20 to 1,998.  Other kinds
    and other polynomial tails take the last row of the recurrence.
    """
    _row_length(h, d, "table at d={}")
    k0 = h.stats().k0
    if isinstance(h, PolynomialSequence) and 10 * (min(h.degree, d - k0) + 1) <= d - k0:
        entries = dict(zip(range(k0, d + 1), h.row(d)))
    else:
        for _, entries in beta_rows(h, d):
            pass
    return BetaTable(d, entries, _first_negative(entries))


def _schema_int(v, where: str) -> int:
    if isinstance(v, bool):
        raise SchemaError(f"{where}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if 0 < limit < len(v):
                raise SchemaError(f"{where}: decimal string longer than the {limit}-digit limit") from None
            raise SchemaError(f"{where}: not a decimal integer string: {v!r}") from None
    raise SchemaError(f"{where}: expected an integer or decimal string, got {type(v).__name__}")


def _schema_int_list(v, where: str) -> list[int]:
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected a list")
    return [_schema_int(x, f"{where}[{i}]") for i, x in enumerate(v)]


_KINDS = {cls.kind: cls for cls in (FiniteSequence, PolynomialSequence, GeometricSequence)}
# keyed by field annotation
_FIELD_PARSERS = {int: _schema_int, tuple: _schema_int_list}


def sequence_from_json_dict(obj) -> Sequence:
    """Parse a sequence from its JSON object form.

    Accepted shapes:
      {"kind": "finite", "offset": int, "values": [int, ...]}
      {"kind": "polynomial", "coeffs": [int, ...], "shift"?: int}
      {"kind": "geometric", "scale": int, "ratio": int, "shift"?: int}
    Integers may also be given as decimal strings.
    """
    if not isinstance(obj, dict):
        raise SchemaError("sequence: expected a JSON object")
    kind = obj.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"sequence: unknown kind {kind!r}")
    where = f"{kind} sequence"
    extra = set(obj) - {"kind", *cls._fields}
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    required = [name for name in cls._fields if name not in cls._defaults]
    if not all(name in obj for name in required):
        raise SchemaError(f"{where}: requires {' and '.join(required)}")
    types = cls.__annotations__
    args = {name: _FIELD_PARSERS[types[name]](obj[name], name) for name in cls._fields if name in obj}
    try:
        return cls(**args)
    except DomainError as e:
        raise SchemaError(f"invalid sequence: {e}") from None
