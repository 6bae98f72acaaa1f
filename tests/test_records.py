"""Every record class is an immutable value, and how Record builds one.

Each case builds two equal instances independently, the way callers get
them, and names the fields its repr must list, in order.
"""

import copy
import pickle

import pytest

from qdepth import (
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    Poset,
    Rejection,
    beta_table,
    eq_bound,
    qdepth,
    qdepth_at_least,
    realize,
    sdepth_bruteforce,
    validate_partition,
)
from qdepth.records import Record


def _worked():
    return FiniteSequence(-2, [2, 4, 7, 3, 1])


def _family():
    return Poset.from_iterables(3, [[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3]])


# class name -> (function making one instance, its fields in repr order)
CASES = {
    "FiniteSequence": (_worked, ("offset", "values")),
    "PolynomialSequence": (lambda: PolynomialSequence([1, 0, 0, 15], shift=2), ("coeffs", "shift")),
    "GeometricSequence": (lambda: GeometricSequence(3, 12, -1), ("scale", "ratio", "shift")),
    "Rejection": (lambda: Rejection(4, 2, -1), ("d", "k", "beta")),
    "DepthCheck": (lambda: qdepth_at_least(_worked(), 1), ("ok", "witness_k", "witness_beta")),
    "QDepthResult": (
        lambda: qdepth(PolynomialSequence([1, 0, 0, 15])),
        ("qdepth", "accepted_table", "upper_bound_used", "sequence", "witness"),
    ),
    "BetaTable": (lambda: beta_table(_worked(), 1), ("d", "entries", "first_negative")),
    "SequenceStats": (lambda: _worked().stats(), ("k0", "kf", "h0", "h1", "c")),
    "PiecewisePrediction": (lambda: eq_bound(2, "73/10"), ("value", "branch", "is_exact")),
    "Poset": (_family, ("n", "sets")),
    "IntervalPartition": (lambda: sdepth_bruteforce(_family()).partition, ("target", "intervals")),
    "ValidationReport": (
        lambda: validate_partition(sdepth_bruteforce(_family()).partition), ("ok", "sdepth", "reason"),
    ),
    "SdepthResult": (lambda: sdepth_bruteforce(_family()), ("sdepth", "partition")),
    "RealizationResult": (
        lambda: realize(_worked()),
        ("m", "depth", "ground_size", "b", "poset", "partition", "validation"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_is_an_immutable_value(name):
    build, field_names = CASES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name
    assert value == twin and value is not twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert not value != twin

    fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in field_names)
    assert repr(value) == f"{name}({fields})"

    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value
        assert hash(clone) == hash(value)

    for attr in (*field_names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
    with pytest.raises(AttributeError):
        del value.not_a_field
    with pytest.raises(AttributeError):
        delattr(value, field_names[0])
    assert value == twin


def test_records_of_different_classes_or_fields_differ():
    assert Rejection(4, 2, -1) != Rejection(4, 2, -2)
    assert Rejection(4, 2, -1) != (4, 2, -1)
    assert qdepth_at_least(_worked(), 1) != qdepth_at_least(_worked(), 0)
    assert beta_table(_worked(), 1) != beta_table(_worked(), 0)


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class Interval(Record):
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            lo, hi = self.hi, self.lo
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "width", self.hi - self.lo)


def test_record_init_takes_fields_in_order_with_defaults():
    assert Point(1) == Point(1, 0, "p") == Point(x=1, label="p")
    assert repr(Point(2, 3)) == "Point(x=2, y=3, label='p')"
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, "q", 4)


def test_record_post_init_normalizes_and_derived_attributes_stay_outside():
    span = Interval(5, 2)
    assert (span.lo, span.hi, span.width) == (2, 5, 3)
    assert span == Interval(2, 5)
    assert repr(span) == "Interval(lo=2, hi=5)"
    assert copy.deepcopy(span).width == pickle.loads(pickle.dumps(span)).width == 3
    with pytest.raises(AttributeError):
        span.width = 0
