"""Command-line front end.

Subcommands cover the whole library surface: depth with certificates,
transform tables, closed-form predictions with an engine cross-check, the
piecewise upper bound, realizations, partition validation, the exhaustive
partition-depth search and grid sweeps to CSV.

Exit codes: 0 success, 2 malformed input or unusable path, 3 domain error
(an answer past CPython's integer digit limit among them), 1 internal failure.
A subcommand's errors go to stderr as one JSON line with a "code" field, argparse's
as usage text.  JSON output is deterministic: keys sorted, big integers as strings.
`--format table` prints the same dict as aligned `key  value` lines (see _emit).
"""

import argparse
import contextlib
import gc
import json
import sys

from . import sequences
from .errors import DomainError, SchemaError
from .sequences import DEFAULT_BRUTEFORCE_CAP, GeometricSequence, Sequence, beta_table
from .sequences import sequence_from_json_dict

# engine, posets, closed_forms and csv are imported by the commands that use them


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


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_json(obj, out) -> None:
    out.write(_compact(obj) + "\n")


def _emit(obj, args, out) -> None:
    """obj as JSON, or as one aligned `key  value` line per key in obj's order: scalars by str,
    containers as compact JSON, and each transform map as one `  beta[k] = v` line per entry."""
    if args.format == "json":
        _emit_json(obj, out)
        return
    width = max(map(len, obj)) + 2
    for key, value in obj.items():
        if key in ("table", "entries"):  # qdepth's and beta-table's transform index -> entry
            out.write(key + "\n" + "".join(f"  beta[{k}] = {v}\n" for k, v in value.items()))
        else:
            out.write(key.ljust(width) + (_compact(value) if isinstance(value, (list, dict)) else str(value)) + "\n")


def cmd_qdepth(args, out) -> None:
    h = _load_sequence(args)  # first, so that malformed input never loads engine
    from . import engine
    _emit(engine.qdepth(h).to_json_dict(), args, out)


def cmd_beta_table(args, out) -> None:
    _emit(beta_table(_load_sequence(args), args.d).to_json_dict(), args, out)


# family name -> degree n of its tail a*j^n + b; None for the geometric tail a*b^j, whose depth is the ratio b
_FAMILIES = {"geometric": None, "arithmetic": 1, "quadratic": 2}


def _family_check(family: str, a: int, b: int) -> dict:
    """The closed-form prediction for one family member against the engine's depth."""
    from . import closed_forms as cf, engine
    degree = _FAMILIES[family]
    if degree is None:
        prediction, h = cf.PiecewisePrediction(cf.geometric_qdepth(a, b), "ratio", True), GeometricSequence(a, b)
    else:
        predict = cf.arithmetic_qdepth if degree == 1 else cf.quadratic_qdepth
        prediction, h = predict(a, b), cf.monomial_plus_constant(a, b, degree)
    computed = engine.qdepth_value(h)
    return {
        "family": family, "a": a, "b": b, "predicted": prediction.value, "computed": computed,
        "agree": prediction.value == computed, "branch": prediction.branch, "exact": prediction.is_exact,
    }


def cmd_closed_form(args, out) -> None:
    _emit(_family_check(args.family, args.a, args.b), args, out)


def cmd_eq_bound(args, out) -> None:
    from . import closed_forms
    _emit(closed_forms.eq_bound(args.n, closed_forms.as_fraction(args.alpha, "alpha")).to_json_dict(), args, out)


def cmd_realize(args, out) -> None:
    from . import posets
    result = posets.realize(_load_sequence(args))
    obj = result.to_json_dict()
    for path, key in ((args.poset_out, "poset"), (args.partition_out, "partition")):
        if path:
            with _open_out(path) as fh:
                _emit_json(obj[key], fh)
    _emit(obj, args, out)


def cmd_verify_partition(args, out) -> None:
    from . import posets
    poset = posets.poset_from_json_dict(load_json_arg(args.poset, "poset"))
    partition = posets.partition_from_json_dict(load_json_arg(args.partition, "partition"), poset)
    _emit(posets.validate_partition(partition).to_json_dict(), args, out)


def cmd_sdepth(args, out) -> None:
    from . import posets
    poset = posets.poset_from_json_dict(load_json_arg(args.poset, "poset"))
    result = posets.sdepth_bruteforce(poset, cap=args.cap)
    _emit({"sdepth": result.sdepth, "partition": result.partition.to_json_dict()}, args, out)


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
    points = (a_range.stop - a_range.start) * (b_range.stop - b_range.start)  # len() overflows past sys.maxsize
    if points > sequences.ENTRY_BUDGET:
        raise DomainError(f"sweep grid has {points} points, over the budget of {sequences.ENTRY_BUDGET}")
    rows = []
    for a in a_range:
        for b in b_range:
            c = _family_check(args.family, a, b)
            alpha = b if _FAMILIES[args.family] is None else closed_forms.as_fraction(a) / b
            rows.append([a, b, str(alpha), c["predicted"], c["computed"], c["agree"]])
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
