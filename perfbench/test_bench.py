"""The benchmark's own tests: run with  python3 -m pytest perfbench  from the checkout root.

Each workload runs in smoke mode, traced and untraced, on two seeds; the
tests check that every metric BENCHMARK.json names is emitted with its
unit and that no request failed.  The oracles are checked against the
library on small inputs, where both are cheap.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qdepth import FiniteSequence, IntervalPartition, Poset, qdepth, validate_partition  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_fails_nothing(workload, seed, trace):
    p = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(p.stdout.strip().splitlines()[-2])["detail"]
    assert result["failed"] == 0, detail["problems"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        assert math.isfinite(got["value"])
    if not trace:
        assert result["metrics"]["success_frac"]["value"] == 1.0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_same_inputs_other_seed_other_inputs():
    for w in workloads.WORKLOADS.values():
        assert run.fingerprint(w, 1, False) == run.fingerprint(w, 1, False)
        assert run.fingerprint(w, 1, False) != run.fingerprint(w, 2, False)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "tails", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_tail_steps_down_until_ten_samples_lie_beyond():
    assert run.tail(list(range(2000)), 99.0)[:2] == (99.0, 20)
    assert run.tail(list(range(500)), 99.0)[:2] == (98.0, 10)
    assert run.tail(list(range(5)), 99.0)[0] == 50.0


def test_pascal_matches_math_comb():
    pascal = oracles.Pascal()
    for m in range(40):
        for t in range(-1, m + 2):
            assert pascal(m, t) == (math.comb(m, t) if 0 <= t <= m else 0)


def test_depth_oracle_matches_library_on_small_sequences():
    rng = random.Random(5)
    pascal = oracles.Pascal()
    for _ in range(300):
        values = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
        values[0] = values[0] or 1
        offset = rng.randint(-3, 3)
        want = qdepth(FiniteSequence(offset, values)).qdepth
        assert oracles.depth({offset + i: v for i, v in enumerate(values)}, pascal) == want


def test_partition_oracle_agrees_with_validate_partition():
    rng = random.Random(6)
    for _ in range(300):
        family = set(rng.sample(range(32), rng.randint(1, 12)))
        intervals = [(m, m) for m in family]
        roll = rng.random()
        if roll < 0.3:
            intervals.append(rng.choice(intervals))
        elif roll < 0.6 and len(intervals) > 1:
            intervals.pop(rng.randrange(len(intervals)))
        report = validate_partition(IntervalPartition(Poset(5, frozenset(family)), tuple(intervals)))
        assert (oracles.partition_problem(family, intervals) is None) == report.ok


def test_validate_case_reasons_match_the_library():
    ctx = workloads.Context(ROOT, ROOT, True)
    for variant in ("valid", "overlap", "missing"):
        partition, expected = workloads._validate_case(("validate", variant, 40, 3), ctx)
        report = validate_partition(partition)
        assert (report.ok, report.sdepth, report.reason) == expected


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
