"""Run the benchmark over several seeds and summarize it as one point of the perf trajectory.

    python3 perfbench/record.py --seeds 1-10 [--label NAME --commit REV --append perfbench/trajectory.json]

Every workload in BENCHMARK.json runs once per seed for its run_seconds
with tracing off, then once traced on the first seed.  For every end-to-end metric the summary gives the median,
the quartiles and the spread (quartile distance over the median) against
the metric's bound in BENCHMARK.json.  Runs are sequential, so they do not
compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                        "--seed", str(seed), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {p.returncode}: {p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--label", default="")
    parser.add_argument("--commit", default="")
    parser.add_argument("--append", help="trajectory file to append the point to")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "commit": args.commit, "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        fingerprints, tails, shares = {}, [], []
        for seed in args.seeds:
            detail, result = run_once(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            fingerprints[seed] = detail["fingerprint"]
            tails.append((detail["tail"]["percentile"], detail["tail"]["beyond"]))
            shares.append({c: v["time_share"] for c, v in detail["classes"].items()})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr, flush=True)
        trace_detail, traced = run_once(workload, args.seeds[0], 1)
        point["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "fingerprints": fingerprints,
            "tail_percentile_and_beyond": sorted(set(tails)),
            "class_time_share": {c: statistics.median(s[c] for s in shares) for c in shares[0]},
            "end_to_end": {name: summarize(v, bounds.get(name)) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_layer_self_s": trace_detail["layer_self_s"],
        }
        rows = point["workloads"][workload]["end_to_end"]
        for name, r in rows.items():
            flag = "" if "bound" not in r else ("ok" if r["spread"] < r["bound"] / 3 else "WIDE")
            print(f"{workload:8s} {name:16s} median {r['median']:.6g}  spread {r['spread']:.4f}  {flag}",
                  file=sys.stderr, flush=True)
    if args.append:
        with open(args.append, encoding="utf-8") as fh:
            trajectory = json.load(fh)
        trajectory["points"].append(point)
        with open(args.append, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    print(json.dumps(point, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
