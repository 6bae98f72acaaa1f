"""Benchmark of the qdepth library and command line.

    python3 perfbench/run.py --workload {tails,lattice,cli} --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the library is imported from its src/
directory and nothing is built.  One caller sends one request at a time
and waits for the answer (a closed loop).  Requests come in rounds drawn
from the seed; the run measures whole rounds until the time spent waiting
for answers reaches --seconds.  Every answer is checked, outside the timed
span, against an expectation computed independently of the timed call.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics named in BENCHMARK.json, times scaled to a reference
speed of the host (see Calibration); with --trace 1 it carries the
per-layer metrics of a traced run instead.  The line before it holds the
run's details: the input fingerprint, the tail percentile used and its
sample count, the share of time per request class and the unscaled
figures.  Both are also written under .perfbench/ at the root of the
checkout, with the spans of a traced run.  --seconds defaults to
run_seconds in BENCHMARK.json; --smoke shrinks the expensive inputs for a
quick check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 7
REQUEST_TIMEOUT_S = 90
WALL_LIMIT_S = 120
WARMUP_REQUESTS = 6
TRACE_SHARE = 0.4
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
LOOP_REFERENCE_S = 0.003
LOOP_EVERY_S = 0.2
LOOP_WINDOW = 8
STARTUP_REFERENCE_S = 0.06
STARTUP_EVERY_S = 0.3


def die(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def load_library():
    """Import qdepth from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qdepth", "__init__.py")):
        die(f"no qdepth sources under {SRC}; run from the root of a qdepth checkout")
    sys.path.insert(0, SRC)
    import qdepth.cli  # noqa: F401  (loads every module the workloads call)

    if not os.path.abspath(sys.modules["qdepth"].__file__).startswith(SRC + os.sep):
        die("qdepth was imported from outside this checkout")
    return sys.modules["qdepth"]


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def _calibration_loop() -> int:
    """Fixed pure-Python work that shares nothing with the library: dicts, ints, lists, calls."""
    counts: dict[int, int] = {}
    acc = 1
    for i in range(10000):
        counts[i & 511] = counts.get(i & 511, 0) + i
        acc = acc * 3 + i if acc.bit_length() < 600 else acc >> 500
    rows = [list(range(64)) for _ in range(100)]
    return acc + sum(map(sum, rows)) + len(sorted(counts, key=lambda k: -counts[k]))


def _loop_time() -> float:
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - start)
    return best


def _startup_time(env: dict) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - start


class Calibration:
    """The host's current speed, sampled next to the work it scales.

    The host is shared, and its speed swings by up to a factor of two,
    from one tenth of a second to the next and over minutes, while the
    ratio of two pieces of work run side by side holds to a few percent.
    Work in this process is compared with a fixed pure-Python loop,
    averaged over its last LOOP_WINDOW samples; a whole process is compared
    with a bare interpreter start shortly before it, since a child may run
    on another CPU than this process.  scale() converts a time taken now into
    the time it takes at the reference speed, where the loop runs in
    LOOP_REFERENCE_S and a bare interpreter starts in STARTUP_REFERENCE_S.
    """

    def __init__(self, measure, reference_s: float, every_s: float, window: int):
        self.measure, self.reference_s, self.every_s, self.window = measure, reference_s, every_s, window
        self.samples: list[float] = []
        self.taken_at = -math.inf

    @classmethod
    def loop(cls) -> "Calibration":
        return cls(_loop_time, LOOP_REFERENCE_S, LOOP_EVERY_S, LOOP_WINDOW)

    @classmethod
    def startup(cls, env: dict) -> "Calibration":
        return cls(lambda: _startup_time(env), STARTUP_REFERENCE_S, STARTUP_EVERY_S, 1)

    def sample(self) -> None:
        self.samples.append(self.measure())
        self.taken_at = perf_counter()

    def refresh(self) -> None:
        if perf_counter() - self.taken_at >= self.every_s:
            self.sample()

    def scale(self) -> float:
        recent = self.samples[-self.window:]
        return self.reference_s * len(recent) / sum(recent)

    def summary_ms(self) -> dict:
        return {k: f(self.samples) * 1e3 for k, f in (("min", min), ("median", statistics.median), ("max", max))}


@dataclass
class Pass:
    samples: list = field(default_factory=list)  # (class, seconds, scale to reference speed)
    failed: int = 0
    problems: list = field(default_factory=list)
    rounds: int = 0
    waited_s: float = 0.0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def latencies(self) -> list[float]:
        """Latencies at reference speed."""
        return [t * k for _, t, k in self.samples]


class RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RequestTimeout(f"no answer within {REQUEST_TIMEOUT_S} s")


def timed(call, tracer=None):
    """Run one request; an exception is its answer."""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:
            # the traceback would keep the failed call's frames, and all they hold, alive
            result = exc.with_traceback(None)
        end = perf_counter()
    finally:
        if tracer is not None:
            tracer.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, end - start


def run_pass(workload, ctx, calibration, seed, smoke, seconds=None, rounds=None, classes=None,
             tracer=None, observe=None) -> Pass:
    """Whole rounds of requests, until `rounds` are done or `seconds` of waiting is reached."""
    out = Pass()
    calibration.sample()
    gen = workload.rounds(random.Random(f"{workload.name}:{seed}"), smoke)
    gc.collect()
    wall0 = perf_counter()
    while True:
        if rounds is not None and out.rounds >= rounds:
            break
        if rounds is None and out.rounds and (out.waited_s >= seconds or perf_counter() - wall0 > WALL_LIMIT_S):
            break
        for spec in next(gen):
            if classes and spec[0] not in classes:
                continue
            req = workload.build(spec, ctx)
            calibration.refresh()
            result, latency = timed(req.call, tracer)
            try:
                problem = req.check(result)
            except Exception as exc:
                problem = f"{spec[0]}: check raised {type(exc).__name__}: {exc}"
            if observe is not None:
                observe(result)
            if req.cleanup is not None:
                req.cleanup()
            out.samples.append((req.cls, latency, calibration.scale()))
            out.waited_s += latency
            if problem:
                out.failed += 1
                if len(out.problems) < 5:
                    out.problems.append(problem)
        out.rounds += 1
    out.wall_s = perf_counter() - wall0
    return out


def warm_up(workload, ctx) -> None:
    """A few small requests, so lazy imports and caches are ready before timing."""
    gen = workload.rounds(random.Random(f"{workload.name}:warm-up"), True)
    for spec in next(gen)[:WARMUP_REQUESTS]:
        req = workload.build(spec, ctx)
        timed(req.call)
        if req.cleanup is not None:
            req.cleanup()


def fingerprint(workload, seed, smoke) -> str:
    """Hash of the first round of inputs the seed generates."""
    first = next(workload.rounds(random.Random(f"{workload.name}:{seed}"), smoke))
    return hashlib.sha256(repr(first).encode()).hexdigest()[:16]


def time_fresh_imports(module: str | None, env: dict, calibration: Calibration | None = None):
    """Median wall time of a fresh interpreter importing module, and median in-process import time.

    With a calibration both are at reference speed.  One extra run goes
    first and is discarded, so compiled bytecode is cached.
    """
    code = "pass" if module is None else (
        f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    walls, imports = [], []
    for i in range(SETUP_RUNS + 1):
        if calibration is not None:
            calibration.sample()
        start = perf_counter()
        p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                           capture_output=True, text=True, timeout=60)
        wall = perf_counter() - start
        if p.returncode:
            die(f"a fresh interpreter could not import {module}: {p.stderr.strip()[-300:]}")
        if i:
            scale = calibration.scale() if calibration is not None else 1.0
            walls.append(wall * scale)
            imports.append(float(p.stdout) * scale if module else 0.0)
    return statistics.median(walls), statistics.median(imports)


def tail(latencies: list, target: float) -> tuple[float, int, float]:
    """Nearest-rank percentile at target, stepping down the ladder until ten samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (p for p in TAIL_LADDER if p <= target):
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, n - rank, ordered[rank - 1]
    raise AssertionError("unreachable: the ladder ends at the median")


def class_breakdown(samples) -> dict:
    total = sum(t for _, t, _ in samples) or 1.0
    busy, count = defaultdict(float), Counter()
    for cls, t, _ in samples:
        busy[cls] += t
        count[cls] += 1
    return {cls: {"requests": count[cls], "time_share": busy[cls] / total} for cls in sorted(count)}


def end_to_end(workload, ctx, args) -> tuple[dict, dict, Pass]:
    setup_s, _ = time_fresh_imports(workload.entry_module, ctx.env, Calibration.startup(ctx.env))
    warm_up(workload, ctx)
    calibration = Calibration.loop() if ctx.inprocess else Calibration.startup(ctx.env)
    p = run_pass(workload, ctx, calibration, args.seed, args.smoke, seconds=args.seconds)
    who = resource.RUSAGE_SELF if ctx.inprocess else resource.RUSAGE_CHILDREN
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    latencies = p.latencies()
    pct, beyond, tail_s = tail(latencies, workload.tail_pct)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_mb,
        "success_frac": 1 - p.failed / p.attempted,
    }
    raw = [t for _, t, _ in p.samples]
    detail = {
        "tail": {"percentile": pct, "samples": len(latencies), "beyond": beyond},
        "classes": class_breakdown(p.samples),
        "rounds": p.rounds, "waited_s": p.waited_s, "wall_s": p.wall_s,
        "unscaled": {"throughput_rps": len(raw) / sum(raw), "latency_p50_ms": statistics.median(raw) * 1e3,
                     "latency_tail_ms": tail(raw, pct)[2] * 1e3},
        "calibration_ms": calibration.summary_ms(),
    }
    return metrics, detail, p


def traced(workload, ctx, args, mods) -> tuple[dict, dict, Pass]:
    startup_s, _ = time_fresh_imports(None, ctx.env)
    _, import_s = time_fresh_imports("qdepth.cli", ctx.env)
    warm_up(workload, ctx)
    calibration = Calibration.loop()
    plain = run_pass(workload, ctx, calibration, args.seed, args.smoke, seconds=args.seconds * TRACE_SHARE)

    tracer = tracing.Tracer()
    exits, out_bytes = Counter(), [0]

    def observe(result):
        if isinstance(result, workloads.CliResult):
            exits[result.code] += 1
            out_bytes[0] += len(result.out.encode())

    tracer.install(mods)
    try:
        calibration.samples.clear()
        p = run_pass(workload, ctx, calibration, args.seed, args.smoke, rounds=plain.rounds,
                     tracer=tracer, observe=observe)
        traced_calibration_s = statistics.median(calibration.samples)
    finally:
        tracer.restore()
    probe = tracing.PeakProbe()
    probe.install(mods)
    try:
        peak_pass = run_pass(workload, ctx, calibration, args.seed, args.smoke, rounds=1,
                             classes=workload.peak_classes)
    finally:
        probe.restore()

    by_name, by_layer = tracer.self_times()
    c = tracer.counts
    pascal, memo = oracles.Pascal(), {}
    below = 0
    for levels, sdepth in tracer.searches:
        if levels not in memo:
            memo[levels] = oracles.depth(dict(levels), pascal)
        below += sdepth < memo[levels]
    wall = p.waited_s
    metrics = {
        "engine.qdepth.calls": c["engine.qdepth.calls"],
        "engine.qdepth.self_s": by_name["engine.qdepth"],
        "engine.rows_built": c["engine.rows_built"],
        "engine.rows_needed": c["engine.rows_needed"],
        "engine.row_yield": c["engine.rows_needed"] / c["engine.rows_built"] if c["engine.rows_built"] else 0.0,
        "engine.rejections": c["engine.rejections"],
        "engine.qdepth.peak_mb": probe.peaks["engine.qdepth.peak_mb"],
        "engine.self_s": by_layer["engine"],
        "sequences.beta.calls": c["sequences.beta.calls"],
        "sequences.beta.self_s": by_name["sequences.beta"],
        "sequences.beta_table.calls": c["sequences.beta_table.calls"],
        "sequences.beta_table.self_s": by_name["sequences.beta_table"],
        "sequences.beta_rows.rows": c["sequences.beta_rows.rows"],
        "sequences.beta_rows.entries": c["sequences.beta_rows.entries"],
        "sequences.beta_rows.self_s": by_name["sequences.beta_rows"],
        "sequences.entry_max_bits": c["sequences.entry_max_bits"],
        "sequences.parse.self_s": by_name["sequences.parse"],
        "sequences.self_s": by_layer["sequences"],
        "closed_forms.calls": c["closed_forms.calls"],
        "closed_forms.self_s": by_layer["closed_forms"],
        "posets.build.self_s": by_name["posets.build"],
        "posets.poset_qdepth.calls": c["posets.poset_qdepth.calls"],
        "posets.poset_qdepth.self_s": by_name["posets.poset_qdepth"],
        "posets.sdepth.calls": c["posets.sdepth.calls"],
        "posets.sdepth.self_s": by_name["posets.sdepth"],
        "posets.sdepth.members": c["posets.sdepth.members"],
        "posets.sdepth.below_qdepth": below,
        "posets.validate.calls": c["posets.validate.calls"],
        "posets.validate.self_s": by_name["posets.validate"],
        "posets.validate.intervals": c["posets.validate.intervals"],
        "posets.validate.invalid": c["posets.validate.invalid"],
        "posets.realize.calls": c["posets.realize.calls"],
        "posets.realize.self_s": by_name["posets.realize"],
        "posets.realize.domain_errors": c["posets.realize.domain_errors"],
        "posets.realize.ground_size_max": c["posets.realize.ground_size_max"],
        "posets.realize.peak_mb": probe.peaks["posets.realize.peak_mb"],
        "posets.self_s": by_layer["posets"],
        "cli.startup_s": startup_s,
        "cli.import_s": import_s,
        "cli.parse.self_s": by_name["cli.parse"],
        "cli.handler.self_s": by_name["cli.handler"],
        "cli.serialize.self_s": by_name["cli.serialize"],
        "cli.self_s": by_layer["cli"],
        "cli.output_bytes": out_bytes[0],
        "cli.exit_2": exits[2],
        "cli.exit_3": exits[3],
        "trace.requests": len(p.samples),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(by_layer.values()),
        "trace.overhead_frac": sum(p.latencies()) / sum(plain.latencies()) - 1,
        "trace.calibration_ms": traced_calibration_s * 1e3,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    detail = {
        "classes": class_breakdown(p.samples),
        "layer_self_s": by_layer,
        "rounds": p.rounds,
        "peak_pass_requests": len(peak_pass.samples),
        "spans": os.path.relpath(spans_path, ROOT),
    }
    passes = (plain, p, peak_pass)
    merged = Pass(samples=[x for q in passes for x in q.samples], failed=sum(q.failed for q in passes),
                  problems=[m for q in passes for m in q.problems][:5])
    return metrics, detail, merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for a quick check")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    mods = load_library()
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("QDEPTH_BRUTEFORCE_CAP", None)
    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        ctx = workloads.Context(ROOT, tmpdir, inprocess=bool(args.trace) or not workload.processes)
        if args.trace:
            values, detail, p = traced(workload, ctx, args, mods)
        else:
            values, detail, p = end_to_end(workload, ctx, args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"metrics not measured: {missing}")
    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "fingerprint": fingerprint(workload, args.seed, args.smoke),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "loads_most": workload.loads_most, "loads_least": workload.loads_least,
        "problems": p.problems, **detail,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
