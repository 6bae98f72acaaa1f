"""The benchmark's three workloads: seeded inputs, the timed calls and their checks.

A workload yields rounds.  A round is a list of specs, plain tuples drawn
from the seeded generator, with a fixed number of each request class and
the expensive parameters spread over fixed strata, so every round costs
about the same whatever the seed.  build() turns a spec into a Request:
the call that is timed and the check that runs after it, outside the
timed span, against an expectation computed independently of that call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracles

CLI_TIMEOUT_S = 60


@dataclass
class Request:
    cls: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    cleanup: Callable[[], None] | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Workload:
    name: str
    loads_most: str
    loads_least: str
    entry_module: str
    processes: bool
    tail_pct: float
    peak_classes: tuple
    rounds: Callable
    build: Callable


class Context:
    """What requests need besides their spec: the library modules and scratch space."""

    def __init__(self, root: str, tmpdir: str, inprocess: bool):
        from qdepth import cli, closed_forms, engine, errors, posets, sequences

        self.root = root
        self.tmpdir = tmpdir
        self.inprocess = inprocess
        self.cli, self.closed_forms, self.engine = cli, closed_forms, engine
        self.errors, self.posets, self.sequences = errors, posets, sequences
        self.pascal = oracles.Pascal()
        self.env = dict(os.environ)
        self.env.pop("QDEPTH_BRUTEFORCE_CAP", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.serial = 0

    def path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.tmpdir, f"{self.serial}-{stem}")


def strata(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """n consecutive integer ranges covering [lo, hi]."""
    edges = [lo + (hi - lo + 1) * i // n for i in range(n + 1)]
    return [(edges[i], edges[i + 1] - 1) for i in range(n)]


def unexpected(result) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return None


def expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# --------------------------------------------------------------------------
# tails: the depth search and the transform on tail-form and finite sequences


def tails_rounds(rng, smoke: bool):
    per = 2 if smoke else 20
    lin_hi, quad_hi, table_lo, table_hi = (120, 80, 30, 60) if smoke else (1000, 600, 100, 250)
    while True:
        specs = []
        for lo, hi in strata(10, 80, per):
            specs.append(("tight", "geometric", rng.randint(1, 9), rng.randint(lo, hi), rng.randint(-3, 3)))
        for lo, hi in strata(5, 30, per):
            specs.append(("tight", "falling", rng.randint(lo, hi), rng.randint(-3, 3)))
        for lo, hi in strata(5, 40, per):
            k0, d = rng.randint(-3, 3), rng.randint(lo, hi)
            values = [rng.randint(1, 5)]
            for k in range(k0 + 1, d + 1):
                values.append((d - k + 1) * values[-1] + rng.randint(0, 3))
            specs.append(("tight", "growth", k0, d, tuple(values)))
        for degree, hi, n in ((1, lin_hi, 8), (2, quad_hi, 7)):
            for lo, top in strata(50, hi, 2 if smoke else n):
                b = rng.randint(1, 3)
                specs.append(("wide", "linear" if degree == 1 else "quadratic", rng.randint(lo, top) * b, b))
        # tables stay cheaper than the two top linear strata, the heaviest requests of a
        # round, so the 99th percentile lands among wide requests and follows the search
        for lo, hi in strata(table_lo, table_hi * 17 // 20, 1 if smoke else 4):
            specs.append(("table", "geometric", rng.randint(1, 9), rng.randint(2, 40), rng.randint(lo, hi)))
        coeffs = [rng.randint(1, 20), rng.randint(0, 20), rng.randint(0, 20), rng.randint(1, 20)]
        specs.append(("table", "polynomial", tuple(coeffs), table_hi - rng.randrange(table_hi // 40)))
        rng.shuffle(specs)
        yield specs


def tails_build(spec, ctx: Context) -> Request:
    cls, kind = spec[0], spec[1]
    seq, engine = ctx.sequences, ctx.engine
    if cls == "tight":
        if kind == "geometric":
            _, _, scale, ratio, shift = spec
            h, expected = seq.GeometricSequence(scale, ratio, shift), ratio - shift
        elif kind == "falling":
            _, _, d, m = spec
            h = seq.FiniteSequence(-m, [math.factorial(d) // math.factorial(d - j) for j in range(d + 1)])
            expected = d - m
        else:
            _, _, k0, d, values = spec
            h, expected = seq.FiniteSequence(k0, values), d
        call = lambda: engine.qdepth(h)
    elif cls == "wide":
        _, _, a, b = spec
        degree = 1 if kind == "linear" else 2
        # a/b is at least 50: past the last threshold of both closed forms
        expected = 3 if degree == 1 else 5
        call = lambda: engine.qdepth(ctx.closed_forms.monomial_plus_constant(a, b, degree))
    else:
        return _table_request(spec, ctx)

    def check(result):
        return unexpected(result) or expect(
            result.qdepth == expected, f"{spec}: depth {result.qdepth}, expected {expected}"
        )

    return Request(cls, call, check)


def _table_request(spec, ctx: Context) -> Request:
    _, kind, *params, d = spec
    k0 = 0
    if kind == "geometric":
        scale, ratio = params
        h, value = ctx.sequences.GeometricSequence(scale, ratio), oracles.geometric_value(scale, ratio, 0)
    else:
        (coeffs,) = params
        h, value = ctx.sequences.PolynomialSequence(coeffs), oracles.polynomial_value(coeffs)
    ctx.pascal.grow(d - k0)

    def check(table):
        problem = unexpected(table)
        if problem:
            return problem
        entries = table.entries
        if sorted(entries) != list(range(k0, d + 1)):
            return f"{spec}: table indices are not [{k0}, {d}]"
        negative = next((k for k in range(k0, d + 1) if entries[k] < 0), None)
        if table.first_negative != negative:
            return f"{spec}: first_negative {table.first_negative}, entries say {negative}"
        spots = {k0, (k0 + d) // 2, d}
        if negative is not None:
            spots |= {negative, max(k0, negative - 1)}
        for k in sorted(spots):
            want = oracles.beta(value, k0, k, d, ctx.pascal)
            if entries[k] != want:
                return f"{spec}: beta[{k}] = {entries[k]}, Pascal oracle says {want}"
        return None

    return Request("table", lambda: ctx.sequences.beta_table(h, d), check)


# --------------------------------------------------------------------------
# lattice: families over small ground sets, their partitions and realizations

HARD_GROUND = 6


def lattice_rounds(rng, smoke: bool):
    # 550 requests a round put the 99th percentile among the [6] family of size >= 1,
    # the sixth heaviest request of each round
    n_search, n_realize = (40, 10) if smoke else (440, 103)
    hard = (1,) if smoke else (1, 2, 3)
    validate_sizes = (128, 64, 32) if smoke else (2048, 1024, 512)
    while True:
        specs = [("search", rng.randrange(1, 1 << 16)) for _ in range(n_search)]
        specs += [("hard", k) for k in hard]
        for _ in range(n_realize):
            width = rng.randint(1, 6)
            values = [rng.randint(0, 8) for _ in range(width)]
            if not any(values):
                values[rng.randrange(width)] = rng.randint(1, 8)
            specs.append(("realize", rng.randint(-4, 4), tuple(values)))
        specs.append(("overcap", rng.randint(9900, 10000)))
        # fixed sizes and corruptions keep the cost of a round steady across seeds
        for variant, size in zip(("valid", "overlap", "missing"), validate_sizes):
            specs.append(("validate", variant, size - rng.randrange(size // 32), rng.getrandbits(32)))
        rng.shuffle(specs)
        yield specs


def lattice_build(spec, ctx: Context) -> Request:
    posets = ctx.posets
    cls = spec[0]
    if cls in ("search", "hard"):
        if cls == "search":
            n, masks = 4, tuple(i for i in range(16) if spec[1] >> i & 1)
            cap = posets.DEFAULT_BRUTEFORCE_CAP
        else:
            n = HARD_GROUND
            masks = tuple(m for m in range(1 << n) if bin(m).count("1") >= spec[1])
            cap = len(masks)

        def call():
            poset = posets.Poset(n, masks)
            return poset, posets.sdepth_bruteforce(poset, cap=cap), posets.poset_qdepth(poset)

        def check(result):
            problem = unexpected(result)
            if problem:
                return problem
            poset, search, depth = result
            family = set(masks)
            if set(poset.sets) != family:
                return f"{spec}: poset holds other sets than given"
            problem = oracles.partition_problem(family, search.partition.intervals)
            if problem:
                return f"{spec}: best partition invalid: {problem}"
            tops = min(bin(d).count("1") for _, d in search.partition.intervals)
            if tops != search.sdepth:
                return f"{spec}: sdepth {search.sdepth} but the smallest top has {tops} elements"
            want = oracles.depth(oracles.popcount_levels(masks), ctx.pascal)
            if depth.qdepth != want:
                return f"{spec}: family depth {depth.qdepth}, oracle says {want}"
            return expect(search.sdepth <= depth.qdepth, f"{spec}: sdepth {search.sdepth} > qdepth {depth.qdepth}")

        return Request(cls, call, check)

    if cls == "realize":
        _, offset, values = spec
        h = ctx.sequences.FiniteSequence(offset, values)
        k0 = offset + next(i for i, v in enumerate(values) if v)
        shifted = {offset + i - (k0 - 1): v for i, v in enumerate(values) if v}

        def check(r):
            problem = unexpected(r)
            if problem:
                return problem
            if r.m != k0 - 1:
                return f"{spec}: shift {r.m}, expected {k0 - 1}"
            family = set(r.poset.sets)
            if oracles.popcount_levels(family) != shifted:
                return f"{spec}: level counts differ from the shifted sequence"
            problem = oracles.partition_problem(family, r.partition.intervals)
            if problem:
                return f"{spec}: certificate invalid: {problem}"
            tops = min(bin(d).count("1") for _, d in r.partition.intervals)
            want = oracles.depth(shifted, ctx.pascal)
            return expect(r.depth == want == tops, f"{spec}: depth {r.depth}, tops {tops}, oracle {want}")

        return Request(cls, lambda: posets.realize(h), check)

    if cls == "overcap":
        h = ctx.sequences.FiniteSequence(1, [spec[1]])

        def check(result):
            # level 1 alone needs spec[1] distinct singletons, far beyond 63 elements
            return expect(isinstance(result, ctx.errors.DomainError), f"{spec}: returned {result!r}")

        return Request(cls, lambda: posets.realize(h), check)

    partition, expected = _validate_case(spec, ctx)

    def check(report):
        problem = unexpected(report)
        if problem:
            return problem
        got = (report.ok, report.sdepth, report.reason)
        return expect(got == expected, f"{spec[:3]}: verdict {got}, expected {expected}")

    return Request(cls, lambda: posets.validate_partition(partition), check)


def _validate_case(spec, ctx: Context, ground: int = 14):
    """A singleton partition of a random family, valid or corrupted, with its verdict."""
    _, variant, size, seed = spec
    rng = random.Random(seed)
    masks = rng.sample(range(1, 1 << ground), size)
    intervals = [(m, m) for m in masks]
    if variant == "valid":
        expected = (True, min(bin(m).count("1") for m in masks), None)
    elif variant == "overlap":
        # the copy lands last, so a pairwise scan meets it only at the end
        dup = intervals[rng.randrange(size - size // 20, size)]
        intervals.append(dup)
        s = oracles.fmt_set(dup[0])
        expected = (False, None, f"intervals [{s},{s}] and [{s},{s}] overlap")
    else:
        # the member a scan over the family meets last, so the case costs a full scan
        last = list(frozenset(masks))[-1]
        lost = intervals.pop(masks.index(last))
        expected = (False, None, f"family member {oracles.fmt_set(lost[0])} is not covered")
    poset = ctx.posets.Poset(ground, frozenset(masks))
    return ctx.posets.IntervalPartition(poset, tuple(intervals)), expected


# --------------------------------------------------------------------------
# cli: whole processes, one at a time

MALFORMED = (
    ["qdepth", "--seq", '{"kind":"finite","offset":0,"values":[1,2'],
    ["qdepth", "--seq", '{"kind":"triangular","n":4}'],
    ["eq-bound", "--n", "2", "--alpha", "3/0"],
    ["beta-table", "--seq", '{"kind":"geometric","scale":1,"ratio":2}'],
)


def cli_rounds(rng, smoke: bool):
    large_lo, large_hi, table_d, part_size = (20, 30, 20, 32) if smoke else (200, 300, 200, 512)
    fmt = lambda: rng.choice(("json", "table"))
    while True:
        specs = []
        for f in ("json", "table"):
            specs.append(("qdepth", {"kind": "geometric", "scale": rng.randint(1, 9), "ratio": rng.randint(large_lo, large_hi)}, 0, f))
        for f in ("json", "table"):
            specs.append(("beta-table", _random_tail(rng), table_d, f))
        specs.append(("qdepth", _random_finite(rng), rng.randint(-3, 3), fmt()))
        for f in ("json", "table"):
            family = rng.choice(("geometric", "arithmetic", "quadratic"))
            a, b = (rng.randint(1, 9), rng.randint(2, 30)) if family == "geometric" else (rng.randint(1, 60), rng.randint(1, 5))
            specs.append(("closed-form", family, a, b, f))
        specs.append(("eq-bound", rng.randint(1, 3), f"{rng.randint(1, 200)}/{rng.randint(1, 9)}", fmt()))
        specs.append(("verify-partition", rng.choice(("valid", "overlap", "missing")), part_size, rng.getrandbits(32), fmt()))
        specs.append(("realize", _random_finite(rng), True, "json"))
        specs.append(("realize", _random_finite(rng), False, "table"))
        specs.append(("sdepth", rng.choice((4, 5)), rng.getrandbits(32), fmt()))
        specs.append(("sweep", rng.choice(("geometric", "arithmetic", "quadratic")), rng.randint(1, 20), rng.randint(1, 5)))
        specs.append(("malformed", rng.randrange(len(MALFORMED))))
        specs.append(("domain", rng.randrange(3), rng.randint(100, 1000)))
        rng.shuffle(specs)
        yield specs


def _random_finite(rng) -> dict:
    width = rng.randint(1, 6)
    values = [rng.randint(0, 8) for _ in range(width)]
    if not any(values):
        values[rng.randrange(width)] = rng.randint(1, 8)
    return {"kind": "finite", "offset": rng.randint(-4, 4), "values": values}


def _random_tail(rng) -> dict:
    if rng.random() < 0.5:
        return {"kind": "geometric", "scale": rng.randint(1, 9), "ratio": rng.randint(2, 40)}
    degree = rng.randint(1, 3)
    coeffs = [rng.randint(1, 20)] + [rng.randint(0, 20) for _ in range(degree - 1)] + [rng.randint(1, 20)]
    return {"kind": "polynomial", "coeffs": coeffs}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _normal(obj):
    """A library answer as it reads back from JSON."""
    return json.loads(_dump(obj))


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(obj))


def _table_fields(text: str) -> dict:
    """First value after each leading label of --format table output."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and not line.startswith(" "):
            fields.setdefault(parts[0], parts[1])
    return fields


def _table_entries(text: str) -> dict:
    """The '  beta[k] = v' lines of --format table output."""
    entries = {}
    for line in text.splitlines():
        if line.startswith("  beta["):
            k, _, v = line.strip()[5:].partition("] = ")
            entries[int(k)] = int(v.split()[0])
    return entries


def _closed_form_answer(ctx: Context, family: str, a: int, b: int) -> dict:
    cf = ctx.closed_forms
    if family == "geometric":
        predicted, branch, exact = cf.geometric_qdepth(a, b), "ratio", True
        h = ctx.sequences.GeometricSequence(a, b)
    else:
        degree = 1 if family == "arithmetic" else 2
        p = (cf.arithmetic_qdepth if degree == 1 else cf.quadratic_qdepth)(a, b)
        predicted, branch, exact = p.value, p.branch, p.is_exact
        h = cf.monomial_plus_constant(a, b, degree)
    computed = ctx.engine.qdepth(h).qdepth
    return {"family": family, "a": a, "b": b, "predicted": predicted, "computed": computed,
            "agree": predicted == computed, "branch": branch, "exact": exact}


def _cli_case(spec, ctx: Context, files: list):
    """argv, expected exit code, and a check of stdout against the library answer."""
    cls = spec[0]
    if cls in ("qdepth", "beta-table"):
        _, seq, extra, fmt = spec
        h = ctx.sequences.sequence_from_json_dict(seq)
        argv = [cls, "--seq", _dump(seq), "--format", fmt]
        if cls == "qdepth":
            argv += ["--shift", str(extra)] if extra else []
            answer = lambda: ctx.engine.qdepth(h.shifted(extra) if extra else h)
            entries = lambda r: r.accepted_table.entries
            fields = lambda r: {"qdepth": str(r.qdepth)}
        else:
            argv += ["--d", str(extra)]
            answer = lambda: ctx.sequences.beta_table(h, extra)
            entries = lambda r: r.entries
            fields = lambda r: {}

        def check(out):
            want = answer()
            if fmt == "json":
                return _json_problem(out, want.to_json_dict())
            if _table_entries(out) != entries(want):
                return f"{cls}: table entries differ from the library answer"
            return _fields_problem(out, fields(want))

        return argv, 0, check

    if cls == "closed-form":
        _, family, a, b, fmt = spec
        argv = [cls, "--family", family, "--a", str(a), "--b", str(b), "--format", fmt]
        answer = lambda: _closed_form_answer(ctx, family, a, b)
        return argv, 0, _answer_check(answer, fmt, lambda r: r, lambda r: {"computed": str(r["computed"])})

    if cls == "eq-bound":
        _, n, alpha, fmt = spec
        argv = [cls, "--n", str(n), "--alpha", alpha, "--format", fmt]
        answer = lambda: ctx.closed_forms.eq_bound(n, Fraction(alpha))
        return argv, 0, _answer_check(answer, fmt, lambda r: r.to_json_dict(), lambda r: {"bound": str(r.value)})

    if cls == "verify-partition":
        _, variant, size, seed, fmt = spec
        partition, _ = _validate_case(("validate", variant, size, seed), ctx)
        poset_path, part_path = ctx.path("poset.json"), ctx.path("partition.json")
        _write(poset_path, partition.target.to_json_dict())
        _write(part_path, partition.to_json_dict())
        files += [poset_path, part_path]
        argv = [cls, "--poset", poset_path, "--partition", part_path, "--format", fmt]
        answer = lambda: ctx.posets.validate_partition(partition)
        return argv, 0, _answer_check(answer, fmt, lambda r: r.to_json_dict(), lambda r: {"valid": str(r.ok)})

    if cls == "realize":
        _, seq, with_files, fmt = spec
        h = ctx.sequences.sequence_from_json_dict(seq)
        argv = [cls, "--seq", _dump(seq), "--format", fmt]
        outs = [ctx.path("poset-out.json"), ctx.path("partition-out.json")] if with_files else []
        if outs:
            files += outs
            argv += ["--poset-out", outs[0], "--partition-out", outs[1]]

        def check(out):
            want = ctx.posets.realize(h)
            problem = (_json_problem(out, want.to_json_dict()) if fmt == "json"
                       else _fields_problem(out, {"d": str(want.depth), "N": str(want.ground_size)}))
            for path, obj in zip(outs, (want.poset, want.partition)):
                with open(path, encoding="utf-8") as fh:
                    problem = problem or _json_problem(fh.read(), obj.to_json_dict())
            return problem

        return argv, 0, check

    if cls == "sdepth":
        _, n, seed, fmt = spec
        rng = random.Random(seed)
        sets = [list(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        poset = ctx.posets.Poset.from_iterables(n, rng.sample(sets, rng.randint(4, 16)))
        argv = [cls, "--poset", _dump(poset.to_json_dict()), "--format", fmt]

        def answer():
            r = ctx.posets.sdepth_bruteforce(poset)
            return {"sdepth": r.sdepth, "partition": r.partition.to_json_dict()}

        return argv, 0, _answer_check(answer, fmt, lambda r: r, lambda r: {"sdepth": str(r["sdepth"])})

    if cls == "sweep":
        _, family, lo, width = spec
        argv = [cls, "--family", family, "--a-range", f"{lo}:{lo + width}", "--b-range", f"1:{width}"]

        def check(out):
            want = [["a", "b", "alpha", "predicted", "computed", "agree"]]
            for a in range(lo, lo + width + 1):
                for b in range(1, width + 1):
                    r = _closed_form_answer(ctx, family, a, b)
                    alpha = b if family == "geometric" else Fraction(a, b)
                    want.append([str(v) for v in (a, b, alpha, r["predicted"], r["computed"], r["agree"])])
            return expect(list(csv.reader(io.StringIO(out))) == want, "sweep CSV differs from the library answer")

        return argv, 0, check

    if cls == "malformed":
        return list(MALFORMED[spec[1]]), 2, None

    _, which, v = spec
    pairs = [list(c) for k in (1, 2, 3) for c in combinations(range(1, 7), k)]
    argv = [
        ["beta-table", "--seq", _dump({"kind": "finite", "offset": 5, "values": [1, 2]}), "--d", "2"],
        ["sdepth", "--poset", _dump({"n": 6, "sets": pairs})],
        ["realize", "--seq", _dump({"kind": "finite", "offset": 1, "values": [v]})],
    ][which]
    return argv, 3, None


def _json_problem(out: str, want) -> str | None:
    try:
        got = json.loads(out)
    except ValueError:
        return f"output is not JSON: {out[:200]!r}"
    return expect(got == _normal(want), "JSON differs from the library answer")


def _fields_problem(out: str, want: dict) -> str | None:
    got = _table_fields(out)
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return expect(not bad, f"table fields differ from the library answer (got, want): {bad}")


def _answer_check(answer, fmt: str, to_json, fields):
    """Compare CLI output with the library's answer, computed after the call."""

    def check(out):
        want = answer()
        return _json_problem(out, to_json(want)) if fmt == "json" else _fields_problem(out, fields(want))

    return check


def cli_build(spec, ctx: Context) -> Request:
    files: list[str] = []
    argv, code_want, check_out = _cli_case(spec, ctx, files)

    def check(result):
        problem = unexpected(result)
        if problem:
            return problem
        code, out, err = result.code, result.out, result.err
        if code != code_want:
            return f"{argv[0]}: exit {code}, expected {code_want}: {err.strip()[:200]}"
        if not code_want:
            return check_out(out)
        if spec[0] == "malformed" and argv[0] == "beta-table":
            return None  # argparse rejects the missing --d with its usage text
        try:
            code_name = json.loads(err).get("code")
        except ValueError:
            return f"{argv[0]}: stderr is not one JSON line: {err[:200]!r}"
        return expect(code_name == ("schema" if code_want == 2 else "domain"), f"{argv[0]}: error code {code_name!r}")

    def cleanup():
        for path in files:
            if os.path.exists(path):
                os.remove(path)

    if ctx.inprocess:
        call = lambda: _cli_inprocess(ctx.cli, argv)
    else:
        command = [sys.executable, "-m", "qdepth.cli", *argv]
        call = lambda: _cli_process(command, ctx)
    return Request(spec[0], call, check, cleanup)


def _cli_process(command, ctx: Context):
    p = subprocess.run(command, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return CliResult(p.returncode, p.stdout, p.stderr)


def _cli_inprocess(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tails",
            loads_most="engine", loads_least="posets", entry_module="qdepth", processes=False, tail_pct=99.0,
            peak_classes=("tight", "wide"), rounds=tails_rounds, build=tails_build,
        ),
        Workload(
            name="lattice",
            loads_most="posets", loads_least="cli", entry_module="qdepth", processes=False, tail_pct=99.0,
            peak_classes=("realize", "overcap"), rounds=lattice_rounds, build=lattice_build,
        ),
        Workload(
            name="cli",
            loads_most="cli", loads_least="closed_forms", entry_module="qdepth.cli", processes=True, tail_pct=90.0,
            peak_classes=("qdepth", "realize"), rounds=cli_rounds, build=cli_build,
        ),
    )
}
