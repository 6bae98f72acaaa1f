"""Command-line behavior: output formats, determinism, round trips, exit codes."""

import gc
import io
import json
import sys
import time

import pytest

from golden_cli import FAMILY, PARTITION, UNCOVERED
from qdepth import (
    DomainError, FiniteSequence, IntervalPartition, PolynomialSequence, Poset, beta, realize, validate_partition,
)
from qdepth import cli, sequences
from qdepth.cli import main

WORKED_SEQ = '{"kind":"finite","offset":-2,"values":[2,4,7,3,1]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qdepth_json_output(capsys):
    code, out, err = run_cli(capsys, "qdepth", "--seq", WORKED_SEQ)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["qdepth"] == 0
    assert payload["upper_bound"] == 0
    assert payload["rejections"] == []


def test_qdepth_with_shift(capsys):
    code, out, _ = run_cli(capsys, "qdepth", "--seq", WORKED_SEQ, "--shift", "-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["qdepth"] == 3
    assert payload["table"] == {"1": "2", "2": "0", "3": "5"}


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "qdepth", "--seq", WORKED_SEQ, "--shift", "-3")
    _, second, _ = run_cli(capsys, "qdepth", "--seq", WORKED_SEQ, "--shift", "-3")
    assert first == second


def test_beta_table_marks_first_negative(capsys):
    code, out, _ = run_cli(
        capsys,
        "beta-table",
        "--seq", '{"kind":"polynomial","coeffs":[1,0,0,15]}',
        "--d", "16",
        "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert "  beta[3] = -168" in lines
    assert [line for line in lines if line.startswith("first_negative")] == ["first_negative  3"]


def test_beta_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "beta-table", "--seq", '{"kind":"polynomial","coeffs":[1,0,0,15]}', "--d", "16"
    )
    payload = json.loads(out)
    assert payload["first_negative"] == 3
    assert payload["entries"]["3"] == "-168"


def test_closed_form_side_by_side(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--family", "arithmetic", "--a", "5", "--b", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] == 3
    assert payload["computed"] == 3
    assert payload["agree"] is True


def test_eq_bound_interface(capsys):
    code, out, _ = run_cli(capsys, "eq-bound", "--n", "2", "--alpha", "73/10")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"bound", "branch", "exact"}
    assert payload["bound"] == 8
    assert payload["branch"] == "alpha in [7,22/3]"


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "quadratic", "--a-range", "7:8", "--b-range", "1:1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,alpha,predicted,computed,agree"
    assert lines[1] == "7,1,7,8,8,True"
    assert lines[2] == "8,1,8,7,7,True"


def test_sweep_to_file(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--family", "geometric",
        "--a-range", "1:2",
        "--b-range", "3:3",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "a,b,alpha,predicted,computed,agree"
    assert lines[1] == "1,3,3,3,3,True"
    assert lines[2] == "2,3,3,3,3,True"


def test_sweep_refuses_a_grid_over_the_budget_before_the_first_point(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a grid point was computed")

    monkeypatch.setattr(cli, "_family_check", refuse)
    out_path = tmp_path / "grid.csv"
    for a_range in ("1:100000000000", "1:" + "9" * 30):
        code, out, err = run_cli(capsys, "sweep", "--family", "geometric", "--a-range", a_range,
                                 "--b-range", "2:2", "--out", str(out_path))
        points = int(a_range[2:])
        assert (code, out) == (3, "")
        message = f"sweep grid has {points} points, over the budget of 2000000"
        assert json.loads(err) == {"code": "domain", "message": message}
        assert not out_path.exists()
    monkeypatch.undo()
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 6)  # the entry span is then 2, enough for ratio 2
    code, out, _ = run_cli(capsys, "sweep", "--family", "geometric", "--a-range", "1:6", "--b-range", "2:2")
    assert code == 0 and len(out.splitlines()) == 7
    code, _, err = run_cli(capsys, "sweep", "--family", "geometric", "--a-range", "1:7", "--b-range", "2:2")
    assert code == 3 and "sweep grid has 7 points, over the budget of 6" in err


def test_one_budget_setting_moves_every_budget_check(capsys, monkeypatch):
    # sequences.ENTRY_BUDGET is read at call time by posets, the CLI and beta: no module keeps its own copy
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 5)
    family = Poset.from_iterables(2, [[], [1], [2], [1, 2]])
    assert validate_partition(IntervalPartition(family, ((0, 3), (0, 0)))).reason.endswith("overlap")
    with pytest.raises(DomainError, match="^intervals hold at least 8 members, over the budget of 5$"):
        validate_partition(IntervalPartition(family, ((0, 3), (0, 3))))
    with pytest.raises(DomainError, match="^realization needs 8 family members, over the budget of 5$"):
        realize(FiniteSequence(1, [8]))  # depth 1: the span of 1 that budget 5 leaves is enough
    code, _, err = run_cli(capsys, "sweep", "--family", "geometric", "--a-range", "1:6", "--b-range", "2:2")
    assert (code, json.loads(err)["message"]) == (3, "sweep grid has 6 points, over the budget of 5")
    with pytest.raises(DomainError, match="^transform at k=5, d=5 sums 6 terms, over the budget of 5$"):
        beta(PolynomialSequence([1, 1]), 5, 5)


def test_realize_round_trip(capsys, tmp_path):
    poset_path = tmp_path / "poset.json"
    partition_path = tmp_path / "partition.json"
    code, out, _ = run_cli(
        capsys,
        "realize",
        "--seq", WORKED_SEQ,
        "--poset-out", str(poset_path),
        "--partition-out", str(partition_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 3
    assert payload["valid"] is True
    assert payload["b"] == ["2", "0", "5"]

    code, out, _ = run_cli(
        capsys, "verify-partition", "--poset", str(poset_path), "--partition", str(partition_path)
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] is True
    assert verdict["sdepth"] == 3

    code, out, _ = run_cli(capsys, "sdepth", "--poset", str(poset_path))
    assert code == 0
    assert json.loads(out)["sdepth"] == 3


def test_a_poset_listing_a_set_twice_exits_2(capsys):
    # folded into one member, the family [[1], [1]] read as valid under [{1}, {1}]
    for argv in (["verify-partition", "--poset", '{"n":2,"sets":[[1],[1]]}', "--partition",
                  '{"intervals":[{"C":[1],"D":[1]}]}'],
                 ["sdepth", "--poset", '{"n":2,"sets":[[1],[2],[1]]}']):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"code": "schema", "message": "invalid poset: set (1,) is listed twice"}


def test_an_element_listed_twice_in_one_set_exits_2(capsys):
    # folded into {1}, [[1,1],[2]] under [{1},{1}] and [{2},{2,2}] read as a valid partition of depth 1
    poset, partition = '{"n":2,"sets":[[1],[2]]}', '{"intervals":[{"C":[1],"D":[1]},{"C":[2],"D":[2]}]}'
    for argv, message in (
        (["verify-partition", "--poset", '{"n":2,"sets":[[1,1],[2]]}', "--partition", partition],
         "invalid poset: element 1 is listed twice in one set"),
        (["sdepth", "--poset", '{"n":2,"sets":[[1,1],[2]]}'], "invalid poset: element 1 is listed twice in one set"),
        (["verify-partition", "--poset", poset, "--partition", '{"intervals":[{"C":[1],"D":[1]},{"C":[2],"D":[2,2]}]}'],
         "invalid partition: element 2 is listed twice in one set"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"code": "schema", "message": message}


def test_verify_partition_reports_defect(capsys):
    poset = '{"n":2,"sets":[[1],[2]]}'
    partition = '{"intervals":[{"C":[1],"D":[1]}]}'
    code, out, _ = run_cli(capsys, "verify-partition", "--poset", poset, "--partition", partition)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert "not covered" in verdict["reason"]


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(WORKED_SEQ))
    code, out, _ = run_cli(capsys, "qdepth", "--seq", "-")
    assert code == 0
    assert json.loads(out)["qdepth"] == 0


def test_schema_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "qdepth", "--seq", '{"kind":"bogus"}')
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "schema"


def test_invalid_json_exits_2(capsys, tmp_path):
    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for raw in ("{not json", str(not_utf8)):
        code, _, err = run_cli(capsys, "qdepth", "--seq", raw)
        assert code == 2
        assert json.loads(err)["code"] == "schema"


def test_unexpected_exception_exits_1(capsys, monkeypatch):
    def broken(args, out):
        raise RuntimeError("broken handler")

    monkeypatch.setattr("qdepth.cli.cmd_qdepth", broken)
    code, out, err = run_cli(capsys, "qdepth", "--seq", WORKED_SEQ)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "internal", "message": "broken handler"}


def test_domain_error_exits_3(capsys):
    poset = json.dumps({"n": 5, "sets": [[e + 1 for e in range(5) if m >> e & 1] for m in range(1, 20)]})
    code, _, err = run_cli(capsys, "sdepth", "--poset", poset, "--cap", "10")
    assert code == 3
    assert json.loads(err)["code"] == "domain"


def test_beta_table_below_support_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "beta-table", "--seq", WORKED_SEQ, "--d", "-3")
    assert code == 3
    assert json.loads(err)["code"] == "domain"


def test_table_format_qdepth(capsys):
    code, out, _ = run_cli(
        capsys, "qdepth", "--seq", WORKED_SEQ, "--shift", "-3", "--format", "table"
    )
    assert code == 0
    assert out.splitlines()[:2] == ["qdepth       3", "upper_bound  3"]


def _table_pairs(text: str) -> dict:
    """--format table output read back: `key  value` lines, and `  beta[k] = v` lines under their key."""
    pairs, key = {}, None
    for line in text.splitlines():
        if line.startswith("  beta["):
            k, _, v = line[len("  beta["):].partition("] = ")
            pairs[key][k] = v
        else:
            key, _, value = line.partition(" ")
            pairs[key] = value.lstrip() or {}
    return pairs


def _as_table_value(key: str, value):
    """A JSON value as the table shows it: transform maps as they are, containers as compact JSON, scalars by str."""
    if key in ("table", "entries"):
        return value
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


@pytest.mark.parametrize("argv", [
    ["qdepth", "--seq", WORKED_SEQ, "--shift", "-3"],
    ["qdepth", "--seq", '{"kind":"polynomial","coeffs":[1,0,0,15]}'],
    ["beta-table", "--seq", WORKED_SEQ, "--d", "4"],
    ["beta-table", "--seq", WORKED_SEQ, "--shift", "-3", "--d", "3"],
    ["closed-form", "--family", "quadratic", "--a", "22", "--b", "3"],
    ["eq-bound", "--n", "2", "--alpha", "73/10"],
    ["realize", "--seq", WORKED_SEQ],
    ["verify-partition", "--poset", FAMILY, "--partition", PARTITION],
    ["verify-partition", "--poset", FAMILY, "--partition", UNCOVERED],
    ["sdepth", "--poset", FAMILY],
], ids=lambda argv: argv[0])
def test_table_format_renders_the_json_dict(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    want = {k: _as_table_value(k, v) for k, v in json.loads(out).items()}
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    assert _table_pairs(out) == want


def test_qdepth_certificate_over_budget_exits_0(capsys):
    # rows up to the bound would need 5*10^11 entries; the witness needs none beyond the search
    seq = '{"kind":"polynomial","coeffs":[1,1000000]}'
    code, out, err = run_cli(capsys, "qdepth", "--seq", seq)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["qdepth"] == 3
    assert payload["rejections"] == [{"d": 4, "k": 2, "beta": "-999996"}]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_qdepth_certifies_with_the_stopping_row_alone(capsys, monkeypatch, fmt):
    scans = []
    rows = sequences._rows
    monkeypatch.setattr(sequences, "_rows", lambda h, up_to: scans.append(up_to) or rows(h, up_to))
    code, out, err = run_cli(capsys, "qdepth", "--seq", '{"kind":"polynomial","coeffs":[1,0,0,15]}', "--format", fmt)
    assert (code, err, len(scans)) == (0, "", 1)
    if fmt == "json":
        assert json.loads(out)["rejections"] == [{"d": 8, "k": 3, "beta": "-40"}]
    else:
        assert [line for line in out.splitlines() if line.startswith("rejections")] == [
            'rejections   [{"beta":"-40","d":8,"k":3}]']


def test_eq_bound_past_the_digit_limit_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eq-bound", "--n", "10000000000", "--alpha", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert json.loads(err)["code"] == "domain"


@pytest.mark.parametrize("alpha", ["1e10000000", "1e-10000000"])
def test_eq_bound_with_an_exponent_past_the_digit_limit_exits_3_at_once(capsys, alpha):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eq-bound", "--n", "2", "--alpha", alpha)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert json.loads(err)["code"] == "domain"


def test_closed_form_far_below_the_bound(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--family", "arithmetic", "--a", "1000000", "--b", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"] == 3
    assert payload["agree"] is True


def test_beta_table_over_budget_exits_3(capsys):
    seq = '{"kind":"polynomial","coeffs":[1,1]}'
    code, out, err = run_cli(capsys, "beta-table", "--seq", seq, "--d", "1000000")
    assert (code, out) == (3, "")
    assert json.loads(err)["message"] == "table at d=1000000 lies more than 1998 above the support start 0"


def test_qdepth_search_past_the_span_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "ENTRY_BUDGET", 66)  # entry span 10
    seq = '{"kind":"geometric","scale":1,"ratio":1000000}'
    code, out, err = run_cli(capsys, "qdepth", "--seq", seq)
    assert (code, out) == (3, "")
    assert json.loads(err)["message"].startswith("no negative row up to d=10,")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_output_past_the_digit_limit_exits_3(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest allowed, so ratio 300 is past it
    try:
        seq = '{"kind":"geometric","scale":1,"ratio":300}'
        code, out, err = run_cli(capsys, "qdepth", "--seq", seq, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["code"] == "domain"
    assert "more than 640 digits" in payload["message"]


@pytest.mark.parametrize("quote", ["", '"'])
def test_integers_past_the_digit_limit_exit_2(capsys, quote):
    limit = sys.get_int_max_str_digits()
    seq = f'{{"kind":"geometric","scale":1,"ratio":{quote}{"9" * (limit + 1)}{quote}}}'
    code, out, err = run_cli(capsys, "qdepth", "--seq", seq)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["code"] == "schema"
    assert str(limit) in payload["message"]
    assert len(err) < 300


def _commands(parser) -> list:
    return list(next(a for a in parser._actions if a.dest == "command").choices)


def test_parser_builds_only_the_named_subcommand():
    every = _commands(cli.build_parser())
    assert len(every) == 8
    for name in every:
        assert _commands(cli.build_parser([name, "-h"])) == [name]
    for argv in ([], ["-h", "sdepth"], ["--format", "sdepth"], ["bogus", "sdepth"], ["Sdepth"]):
        assert _commands(cli.build_parser(argv)) == every


@pytest.mark.parametrize("argv, status", [
    (["qdepth", "--seq", WORKED_SEQ], 0),
    (["beta-table", "--seq", WORKED_SEQ, "--d", "-3"], 3),
    (["bogus"], 2),
])
def test_process_entry_freezes_the_collector_then_exits(capsys, monkeypatch, argv, status):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(True))
    monkeypatch.setattr(sys, "argv", ["qdepth", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert (exit_info.value.code, freezes) == (status, [True])
