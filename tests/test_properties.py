"""Property tests of the depth search against the independent oracles.

Sequences of all three kinds are drawn by hypothesis; every property is
checked against helpers.oracle_qdepth and helpers.oracle_beta, which read
only sequence values and use neither the engine nor the transform code.
The sequence, poset and partition JSON schemas are fuzzed with small
schema-shaped objects: each either parses into a value that round-trips or
raises SchemaError, and the command line never reports an internal failure
on them, nor on small, rational or junk values of the options of
closed-form, eq-bound, beta-table and sweep.  Runs are derandomized so that a failure repeats.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from helpers import oracle_beta, oracle_qdepth, values_dict
from qdepth import (
    DepthCheck,
    FiniteSequence,
    GeometricSequence,
    PolynomialSequence,
    SchemaError,
    cli,
    depth_upper_bound,
    monomial_plus_constant,
    partition_from_json_dict,
    poset_from_json_dict,
    qdepth,
    qdepth_at_least,
    qdepth_value,
    sequence_from_json_dict,
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
    q, k0, top = qdepth_value(h), h.stats().k0, depth_upper_bound(h) + 2
    values = values_dict(h, k0, top)
    for d in range(k0, top + 1):
        check = qdepth_at_least(h, d)
        assert check.ok == (d <= q)
        if not check.ok:
            row = [(k, oracle_beta(values, k, d)) for k in range(k0, d + 1)]
            assert (check.witness_k, check.witness_beta) == next((k, b) for k, b in row if b < 0)


def _past_the_first_branch(n: int, b: int, extra: int) -> PolynomialSequence:
    """a*j^n + b with alpha = a/b >= 2^(n+1), so the bound k0 + c lies past the depth cap 2^(n+1)."""
    return monomial_plus_constant(b * 2 ** (n + 1) + extra, b, n)


@oracle_settings
@given(st.one_of(finite, st.builds(_past_the_first_branch, st.integers(1, 3), st.integers(1, 4), st.integers(0, 30))))
def test_witness_is_the_first_negative_entry_of_the_row_after_the_depth(h):
    result = qdepth(h)
    q, k0, ub = result.qdepth, h.stats().k0, result.upper_bound_used
    assert (result.witness is None) == (q == ub)
    if isinstance(h, PolynomialSequence):
        assert q < ub
    if q < ub:
        values = values_dict(h, k0, q + 1)
        row = [(k, oracle_beta(values, k, q + 1)) for k in range(k0, q + 2)]
        first = next((k, b) for k, b in row if b < 0)
        assert result.witness == qdepth_at_least(h, q + 1) == DepthCheck(q + 1, False, *first)


# schema-shaped JSON values: integers stay within 60 so each example is cheap
small_ints = st.integers(-60, 60)
scalars = st.one_of(
    small_ints, small_ints.map(str), st.booleans(), st.none(),
    st.floats(-60, 60, allow_nan=False), st.sampled_from(["", "x", "1.5", " 7", "0x3"]),
)
field_values = st.one_of(scalars, st.lists(scalars, max_size=6))


def _ints(lo: int, hi: int):
    """Integers in [lo, hi], as JSON numbers or as decimal strings."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(str))


# the known kinds with well-typed fields, so that valid sequences come up often
well_typed = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("finite"), "offset": _ints(-60, 60), "values": st.lists(_ints(0, 60), max_size=6)}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("polynomial"), "coeffs": st.lists(_ints(0, 60), max_size=4)},
        optional={"shift": _ints(-60, 60)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("geometric"), "scale": _ints(0, 60), "ratio": _ints(0, 60)},
        optional={"shift": _ints(-60, 60)},
    ),
)
# the known kinds with any field values
kind_shaped = st.one_of(
    st.fixed_dictionaries({"kind": st.just("finite"), "offset": field_values, "values": field_values}),
    st.fixed_dictionaries({"kind": st.just("polynomial"), "coeffs": field_values}, optional={"shift": field_values}),
    st.fixed_dictionaries(
        {"kind": st.just("geometric"), "scale": field_values, "ratio": field_values}, optional={"shift": field_values}
    ),
)
free_shaped = st.builds(
    lambda kind, fields: fields if kind is None else {**fields, "kind": kind},
    st.one_of(st.none(), st.sampled_from(["finite", "polynomial", "geometric", "bogus"]), scalars),
    st.dictionaries(
        st.sampled_from(["offset", "values", "coeffs", "shift", "scale", "ratio", "extra"]),
        field_values, max_size=4,
    ),
)
json_inputs = st.one_of(well_typed, kind_shaped, free_shaped, st.lists(free_shaped, max_size=2))


@oracle_settings
@given(json_inputs)
def test_sequence_schema_parses_to_a_round_trip_or_raises_schema_error(obj):
    try:
        h = sequence_from_json_dict(obj)
    except SchemaError:
        return
    encoded = h.to_json_dict()
    assert sequence_from_json_dict(encoded) == h
    assert sequence_from_json_dict(json.loads(json.dumps(encoded))) == h
    assert encoded["kind"] == obj["kind"]


@oracle_settings
@given(json_inputs)
def test_cli_never_fails_internally_on_schema_shaped_input(obj):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["qdepth", "--seq", json.dumps(obj)])
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# families over at most 6 elements with at most 10 sets, so that an exhaustive
# search stays cheap: well-typed ones over [n], and any shape with elements
# and n as other JSON scalars
def _well_typed_family(n: int):
    subsets = st.lists(st.integers(1, n), max_size=n)
    return st.tuples(
        st.fixed_dictionaries({"n": st.just(n), "sets": st.lists(subsets, min_size=1, max_size=10)}),
        st.fixed_dictionaries({"intervals": st.lists(st.fixed_dictionaries({"C": subsets, "D": subsets}),
                                                     max_size=10)}),
    )


element_lists = st.lists(st.one_of(st.integers(0, 7), scalars), max_size=6)
poset_shaped = st.one_of(
    st.fixed_dictionaries({"n": st.one_of(st.integers(-1, 7), scalars),
                           "sets": st.one_of(st.lists(element_lists, max_size=10), field_values)}),
    st.dictionaries(st.sampled_from(["n", "sets", "extra"]),
                    st.one_of(small_ints, st.lists(element_lists, max_size=3)), max_size=3),
    st.lists(scalars, max_size=2),
)
interval_shaped = st.one_of(
    st.fixed_dictionaries({"C": element_lists, "D": element_lists}),
    st.dictionaries(st.sampled_from(["C", "D", "E"]), st.one_of(element_lists, scalars), max_size=3),
    scalars,
)
partition_shaped = st.one_of(
    st.fixed_dictionaries({"intervals": st.lists(interval_shaped, max_size=10)}),
    st.dictionaries(st.sampled_from(["intervals", "extra"]),
                    st.one_of(field_values, st.lists(interval_shaped, max_size=3)), max_size=2),
    st.lists(interval_shaped, max_size=2),
)
families = st.one_of(st.integers(1, 6).flatmap(_well_typed_family), st.tuples(poset_shaped, partition_shaped))
FALLBACK_TARGET = {"n": 3, "sets": [[1], [1, 2], [2, 3]]}


@oracle_settings
@given(families)
def test_poset_schema_parses_to_a_round_trip_or_raises_schema_error(family):
    try:
        poset = poset_from_json_dict(family[0])
    except SchemaError:
        return
    encoded = poset.to_json_dict()
    assert poset_from_json_dict(encoded) == poset
    assert poset_from_json_dict(json.loads(json.dumps(encoded))) == poset


@oracle_settings
@given(families)
def test_partition_schema_parses_to_a_round_trip_or_raises_schema_error(family):
    try:
        target = poset_from_json_dict(family[0])
    except SchemaError:
        target = poset_from_json_dict(FALLBACK_TARGET)
    try:
        partition = partition_from_json_dict(family[1], target)
    except SchemaError:
        return
    encoded = partition.to_json_dict()
    assert partition_from_json_dict(encoded, target) == partition
    assert partition_from_json_dict(json.loads(json.dumps(encoded)), target) == partition


def _run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    return code


@oracle_settings
@given(families)
def test_cli_never_fails_internally_on_schema_shaped_families(family):
    poset, partition = (json.dumps(obj) for obj in family)
    _run(["verify-partition", "--poset", poset, "--partition", partition])
    _run(["sdepth", "--poset", poset])


# option values of the remaining subcommands: integers and rationals up to 50
# in size, sweep ranges at most 3 wide, and strings that are neither
option_junk = st.sampled_from(["", "x", "1.5", " 7", "0x3", "1e3", "3/0", "2/-4", "-", "1:2:3", ":", "nan"])
int_options = st.one_of(st.integers(-50, 50).map(str), option_junk)
rational_options = st.one_of(int_options, st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-50, 50)))
sweep_ranges = st.one_of(
    st.builds(lambda lo, width: f"{lo}:{lo + width}", st.integers(-50, 48), st.integers(-1, 2)), option_junk
)
family_names = st.sampled_from(["geometric", "arithmetic", "quadratic", "cubic"])
formats = st.sampled_from(["json", "table"])
subcommand_argvs = st.one_of(
    st.builds(lambda f, a, b, fmt: ["closed-form", f"--family={f}", f"--a={a}", f"--b={b}", f"--format={fmt}"],
              family_names, int_options, int_options, formats),
    st.builds(lambda n, alpha, fmt: ["eq-bound", f"--n={n}", f"--alpha={alpha}", f"--format={fmt}"],
              int_options, rational_options, formats),
    st.builds(lambda seq, d, fmt: ["beta-table", f"--seq={json.dumps(seq)}", f"--d={d}", f"--format={fmt}"],
              well_typed, st.one_of(st.integers(-60, 60).map(str), option_junk), formats),
    st.builds(lambda f, a, b: ["sweep", f"--family={f}", f"--a-range={a}", f"--b-range={b}"],
              family_names, sweep_ranges, sweep_ranges),
)


@oracle_settings
@given(subcommand_argvs)
def test_cli_never_fails_internally_on_subcommand_options(argv):
    try:
        _run(argv)
    except SystemExit as e:  # argparse refuses the option before any subcommand runs
        assert e.code == 2
