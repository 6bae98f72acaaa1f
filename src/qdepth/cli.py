"""Command-line front end.

Subcommands cover the whole library surface: depth with certificates,
transform tables, closed-form predictions with an engine cross-check, the
piecewise upper bound, realizations, partition validation, the exhaustive
partition-depth search and grid sweeps to CSV.

Exit codes: 0 success, 2 malformed input or unusable path, 3 domain error
(an answer past CPython's integer digit limit among them), 1 internal failure.
A subcommand's errors go to stderr as one JSON line with a "code" field, argparse's
as usage text.  JSON output is deterministic: keys sorted, big integers as strings.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys

from . import engine
from .errors import DomainError, SchemaError
from .sequences import DEFAULT_BRUTEFORCE_CAP, GeometricSequence, Sequence, beta_table, sequence_from_json_dict

# posets, closed_forms and csv are imported by the commands that use them


def load_json_arg(raw: str, what: str):
    """Interpret an argument as inline JSON, '-' for stdin, or a file path."""
    if raw == "-":
        text = sys.stdin.read()
    elif raw.lstrip().startswith(("{", "[")):
        text = raw
    else:
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise SchemaError(f"{what}: cannot read {raw!r}: {e}") from None
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal past the digit limit
        raise SchemaError(f"{what}: invalid JSON: {e}") from None


def _open_out(path: str):
    """Open an output file; a path that cannot be written is malformed input."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as e:
        raise SchemaError(f"output: cannot write {path!r}: {e}") from None


def _load_sequence(args) -> Sequence:
    h = sequence_from_json_dict(load_json_arg(args.seq, "sequence"))
    return h.shifted(args.shift) if args.shift else h


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    out.write("\n")


def _emit(obj, args, out, table_lines) -> None:
    if args.format == "json":
        _emit_json(obj, out)
    else:
        for line in table_lines:
            out.write(line + "\n")


def cmd_qdepth(args, out) -> None:
    result = engine.qdepth(_load_sequence(args))
    obj = result.to_json_dict()
    lines = [
        f"qdepth      {result.qdepth}",
        f"upper bound {result.upper_bound_used}",
    ]
    for k in sorted(result.accepted_table.entries):
        lines.append(f"  beta[{k}] = {result.accepted_table.entries[k]}")
    for r in obj["rejections"]:
        lines.append(f"rejected d={r['d']}: beta[{r['k']}] = {r['beta']}")
    _emit(obj, args, out, lines)


def cmd_beta_table(args, out) -> None:
    table = beta_table(_load_sequence(args), args.d)
    lines = [f"d = {table.d}"]
    for k in sorted(table.entries):
        mark = "   <- first negative" if k == table.first_negative else ""
        lines.append(f"  beta[{k}] = {table.entries[k]}{mark}")
    _emit(table.to_json_dict(), args, out, lines)


# family name -> (closed-form prediction, sequence, alpha), each a function of (cf, a, b)
# where cf is the closed_forms module
_FAMILIES = {
    "geometric": (lambda cf, a, b: cf.PiecewisePrediction(cf.geometric_qdepth(a, b), "ratio", True),
                  lambda cf, a, b: GeometricSequence(a, b), lambda cf, a, b: b),
    "arithmetic": (lambda cf, a, b: cf.arithmetic_qdepth(a, b),
                   lambda cf, a, b: cf.monomial_plus_constant(a, b, 1), lambda cf, a, b: cf.as_fraction(a) / b),
    "quadratic": (lambda cf, a, b: cf.quadratic_qdepth(a, b),
                  lambda cf, a, b: cf.monomial_plus_constant(a, b, 2), lambda cf, a, b: cf.as_fraction(a) / b),
}


def _family_check(family: str, a: int, b: int) -> dict:
    """The closed-form prediction for one family member against the engine's depth."""
    from . import closed_forms
    predict, sequence, _ = _FAMILIES[family]
    prediction = predict(closed_forms, a, b)
    computed = engine.qdepth_value(sequence(closed_forms, a, b))
    return {
        "family": family, "a": a, "b": b, "predicted": prediction.value, "computed": computed,
        "agree": prediction.value == computed, "branch": prediction.branch, "exact": prediction.is_exact,
    }


def cmd_closed_form(args, out) -> None:
    obj = _family_check(args.family, args.a, args.b)
    lines = [
        f"family    {args.family} (a={args.a}, b={args.b})",
        f"predicted {obj['predicted']}  [{obj['branch']}]",
        f"computed  {obj['computed']}",
        f"agree     {obj['agree']}",
    ]
    _emit(obj, args, out, lines)


def cmd_eq_bound(args, out) -> None:
    from . import closed_forms
    try:
        alpha = closed_forms.as_fraction(args.alpha)
    except DomainError:
        raise SchemaError(f"alpha: not a rational: {args.alpha!r}") from None
    prediction = closed_forms.eq_bound(args.n, alpha)
    lines = [
        f"bound  {prediction.value}  [{prediction.branch}]",
        f"exact  {prediction.is_exact}",
    ]
    _emit(prediction.to_json_dict(), args, out, lines)


def cmd_realize(args, out) -> None:
    from . import posets
    result = posets.realize(_load_sequence(args))
    obj = result.to_json_dict()
    for path, part in ((args.poset_out, result.poset), (args.partition_out, result.partition)):
        if path:
            with _open_out(path) as fh:
                _emit_json(part.to_json_dict(), fh)
    lines = [
        f"m       {result.m}",
        f"d       {result.depth}",
        f"N       {result.ground_size}",
        f"b       {list(result.b)}",
        f"sets    {len(result.poset)}",
        f"sdepth  {result.partition.sdepth}",
        f"valid   {result.validation.ok}",
    ]
    _emit(obj, args, out, lines)


def cmd_verify_partition(args, out) -> None:
    from . import posets
    poset = posets.poset_from_json_dict(load_json_arg(args.poset, "poset"))
    partition = posets.partition_from_json_dict(load_json_arg(args.partition, "partition"), poset)
    report = posets.validate_partition(partition)
    lines = [f"valid   {report.ok}", f"sdepth  {report.sdepth}" if report.ok else f"reason  {report.reason}"]
    _emit(report.to_json_dict(), args, out, lines)


def cmd_sdepth(args, out) -> None:
    from . import posets
    poset = posets.poset_from_json_dict(load_json_arg(args.poset, "poset"))
    result = posets.sdepth_bruteforce(poset, cap=args.cap)
    obj = {"sdepth": result.sdepth, "partition": result.partition.to_json_dict()}
    lines = [f"sdepth  {result.sdepth}"]
    for c, d in result.partition.intervals:
        lines.append(f"  [{list(posets.elements_from_mask(c))}, {list(posets.elements_from_mask(d))}]")
    _emit(obj, args, out, lines)


def _parse_range(raw: str, what: str) -> range:
    parts = raw.split(":")
    if len(parts) != 2:
        raise SchemaError(f"{what}: expected LO:HI, got {raw!r}")
    try:
        lo, hi = int(parts[0], 10), int(parts[1], 10)
    except ValueError:
        raise SchemaError(f"{what}: expected integers in LO:HI, got {raw!r}") from None
    if lo > hi:
        raise SchemaError(f"{what}: empty range {raw!r}")
    return range(lo, hi + 1)


def cmd_sweep(args, out) -> None:
    import csv
    from . import closed_forms
    a_range = _parse_range(args.a_range, "a-range")
    b_range = _parse_range(args.b_range, "b-range")
    alpha = _FAMILIES[args.family][2]
    rows = []
    for a in a_range:
        for b in b_range:
            c = _family_check(args.family, a, b)
            rows.append([a, b, str(alpha(closed_forms, a, b)), c["predicted"], c["computed"], c["agree"]])
    with _open_out(args.out) if args.out else contextlib.nullcontext(out) as sink:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["a", "b", "alpha", "predicted", "computed", "agree"])
        writer.writerows(rows)


_FORMAT = ("--format", {"choices": ["json", "table"], "default": "json"})
_SEQ = (("--seq", {"required": True, "help": "sequence JSON, a file path, or - for stdin"}),
        ("--shift", {"type": int, "default": 0, "help": "apply an m-shift before computing"}))
_FAMILY = ("--family", {"choices": sorted(_FAMILIES), "required": True})
_POSET = ("--poset", {"required": True, "help": "poset JSON, a file path, or - for stdin"})


# command -> (help, argument specs); the handler of a command is cmd_<name>
_COMMANDS = {
    "qdepth": ("depth with acceptance and rejection certificates", (*_SEQ, _FORMAT)),
    "beta-table": ("full transform table at one d", (*_SEQ, ("--d", {"type": int, "required": True}), _FORMAT)),
    "closed-form": ("closed-form prediction against the engine", (
        _FAMILY, ("--a", {"type": int, "required": True}),
        ("--b", {"type": int, "required": True, "help": "second parameter (the ratio for geometric)"}), _FORMAT)),
    "eq-bound": ("piecewise depth bound for a*j^n + b", (
        ("--n", {"type": int, "required": True}),
        ("--alpha", {"required": True, "help": "rational, like 15 or 22/3"}), _FORMAT)),
    "realize": ("realize a sequence as family level counts", (
        *_SEQ, ("--poset-out", {"help": "also write the family JSON to this path"}),
        ("--partition-out", {"help": "also write the partition JSON to this path"}), _FORMAT)),
    "verify-partition": ("validate an interval partition", (
        _POSET, ("--partition", {"required": True, "help": "partition JSON, a file path, or - for stdin"}), _FORMAT)),
    "sdepth": ("exhaustive best-partition depth on a small family", (_POSET, (
        "--cap", {"type": int, "default": DEFAULT_BRUTEFORCE_CAP, "help": "family size cap (default %(default)s)"}),
        _FORMAT)),
    "sweep": ("grid sweep of a closed form against the engine, as CSV", (
        _FAMILY, ("--a-range", {"required": True, "help": "LO:HI inclusive"}),
        ("--b-range", {"required": True, "help": "LO:HI inclusive"}),
        ("--out", {"help": "CSV path (stdout when omitted)"}))),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv: when argv[0] names a command only its subparser is built, else all of them."""
    parser = argparse.ArgumentParser(
        prog="qdepth", description="Exact depth invariant of non-negative integer sequences.")
    sub = parser.add_subparsers(dest="command", required=True)
    # stated, so it lists every command even when one is built and reads the same on
    # every CPython; set after add_subparsers, which takes the subcommands' prog from it
    parser.usage = "%(prog)s [-h]\n" + " " * len("usage: qdepth ") + "{" + ",".join(_COMMANDS) + "} ..."
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, specs = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
    return parser


def _error(code: str, exc: BaseException) -> None:
    _emit_json({"code": code, "message": str(exc)}, sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse exits itself with 0 (help) or 2 (usage)."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        # looked up at call time, so a rebound handler (perfbench wraps them) runs
        globals()["cmd_" + args.command.replace("-", "_")](args, sys.stdout)
    except SchemaError as e:
        _error("schema", e)
        return 2
    except DomainError as e:
        _error("domain", e)
        return 3
    except Exception as e:
        if isinstance(e, ValueError) and "integer string conversion" in str(e):
            # CPython refuses int -> str past its digit limit: the answer is too long to print
            limit = sys.get_int_max_str_digits()
            message = f"an output integer has more than {limit} digits, the integer string conversion limit"
            _error("domain", DomainError(message))
            return 3
        _error("internal", e)
        return 1
    return 0


def run() -> None:
    """Process entry of `python -m qdepth.cli` and the `qdepth` script: main, then exit."""
    try:
        status = main()
    finally:
        # shutdown's final full collection skips frozen objects; main leaves the
        # collector alone, as it also runs inside long-lived processes
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
