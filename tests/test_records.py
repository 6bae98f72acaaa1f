"""Every record class is an immutable value, and how Record builds one.

Each case builds two equal instances independently, the way callers get
them, and names the fields its repr must list, in order.
"""

import copy
import pickle

import pytest

from qdepth import (
    DepthCheck,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    Poset,
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
    "DepthCheck": (lambda: qdepth_at_least(_worked(), 1), ("d", "ok", "witness_k", "witness_beta")),
    "QDepthResult": (
        lambda: qdepth(PolynomialSequence([1, 0, 0, 15])),
        ("qdepth", "accepted_table", "upper_bound_used", "witness"),
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
    assert DepthCheck(4, False, 2, -1) != DepthCheck(4, False, 2, -2)
    assert DepthCheck(4, False, 2, -1) != (4, False, 2, -1)
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


class Untouched(Record):
    """Constructed by test_first_instance_is_a_value alone, so its first instance is made there."""

    a: int
    b: tuple = ()


def test_first_instance_is_a_value():
    stand_in = Untouched.__dict__["__init__"]
    assert "_values" not in Untouched.__dict__  # nothing is compiled before the first construction
    first = Untouched(1, (2, 3))
    assert "_values" in Untouched.__dict__ and Untouched.__dict__["__init__"] is not stand_in
    assert first == Untouched(1, (2, 3)) != Untouched(1)
    assert hash(first) == hash(Untouched(1, (2, 3)))
    for clone in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert type(clone) is Untouched and clone == first and hash(clone) == hash(first)


def test_init_rebound_before_first_construction_stays_bound():
    class Pair(Record):
        a: int
        b: int = 2

    stand_in = Pair.__dict__["__init__"]  # a class's own, so that it can be rebound and put back
    calls = []

    def traced(self, *args, **kwargs):
        calls.append(args)
        stand_in(self, *args, **kwargs)

    Pair.__init__ = traced
    assert Pair(1) == Pair(1, 2)
    assert Pair.__init__ is traced
    assert calls == [(1,), (1, 2)]
    Pair.__init__ = stand_in  # put back: the next construction installs the compiled __init__
    assert Pair(3).b == 2
    assert Pair.__dict__["__init__"] is not stand_in
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")


def test_field_names_never_meet_the_generated_locals():
    class Shadow(Record):
        self_: int
        d: int
        __d: int  # mangled to _Shadow__d

    value = Shadow(1, 2, 3)
    assert Shadow._fields == ("self_", "d", "_Shadow__d")
    assert (value.self_, value.d, value._Shadow__d) == (1, 2, 3)
