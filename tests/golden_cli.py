"""Golden corpus of command-line runs: the case list, a recorder and a replayer.

Each case is an argv list, optionally with stdin text.  The token {tmp} in
an argument stands for a scratch directory, so subcommands that read or
write files can be recorded; the files they leave behind are stored with
the run.  Every run records its exit code, stdout, stderr and those files.

Record the corpus (only when the command-line output is meant to change):

    PYTHONPATH=src python tests/golden_cli.py

test_golden_cli.py replays the stored runs through cli.main and requires
byte-identical results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

WORKED = '{"kind":"finite","offset":-2,"values":[2,4,7,3,1]}'
CUBIC = '{"kind":"polynomial","coeffs":[1,0,0,15]}'
GEOMETRIC = '{"kind":"geometric","scale":3,"ratio":12,"shift":2}'
FAMILY = '{"n":3,"sets":[[1],[2],[1,2],[1,3],[2,3],[1,2,3]]}'
SIX = json.dumps({"n": 6, "sets": [[i, j] for i in range(1, 7) for j in range(i + 1, 7)]})
FIVE_PAIRS_UP = json.dumps({"n": 5, "sets": [[e for e in range(1, 6) if m >> (e - 1) & 1]
                                             for m in range(32) if m.bit_count() >= 2]})
PARTITION = '{"intervals":[{"C":[1],"D":[1,2]},{"C":[2],"D":[2,3]},{"C":[1,3],"D":[1,2,3]}]}'
UNCOVERED = '{"intervals":[{"C":[1],"D":[1,2]},{"C":[2],"D":[2,3]}]}'
OVERLAP = '{"intervals":[{"C":[1],"D":[1,2]},{"C":[2],"D":[1,2]},{"C":[1,3],"D":[1,2,3]},{"C":[2,3],"D":[2,3]}]}'
BAD_BOTTOM = '{"intervals":[{"C":[1,2],"D":[1]}]}'
CHAIN = '{"n":3,"sets":[[1],[1,2],[3],[2,3]]}'
TWO_OVERLAPS = ('{"intervals":[{"C":[1],"D":[1,2]},{"C":[3],"D":[3]},'
                '{"C":[3],"D":[2,3]},{"C":[1,2],"D":[1,2]}]}')
OVERLAP_THEN_OUTSIDE = ('{"intervals":[{"C":[1],"D":[1,2]},{"C":[1],"D":[1]},'
                        '{"C":[3],"D":[2,3]},{"C":[2],"D":[2]}]}')


def _both(*argv: str) -> list[dict]:
    return [{"argv": [*argv, "--format", fmt]} for fmt in ("json", "table")]


CASES: list[dict] = [
    *_both("qdepth", "--seq", WORKED),
    *_both("qdepth", "--seq", WORKED, "--shift", "-3"),
    *_both("qdepth", "--seq", CUBIC),
    *_both("qdepth", "--seq", GEOMETRIC),
    {"argv": ["qdepth", "--seq", '{"kind":"polynomial","coeffs":["3","0","2"],"shift":"-1"}']},
    {"argv": ["qdepth", "--seq", "-"], "stdin": WORKED},
    *_both("beta-table", "--seq", CUBIC, "--d", "16"),
    *_both("beta-table", "--seq", WORKED, "--d", "4"),
    *_both("beta-table", "--seq", GEOMETRIC, "--d", "9"),
    {"argv": ["beta-table", "--seq", '{"kind":"finite","offset":0,"values":[1,5,9]}', "--d", "40"]},
    *_both("closed-form", "--family", "arithmetic", "--a", "5", "--b", "1"),
    *_both("closed-form", "--family", "quadratic", "--a", "22", "--b", "3"),
    *_both("closed-form", "--family", "geometric", "--a", "2", "--b", "7"),
    *_both("eq-bound", "--n", "2", "--alpha", "73/10"),
    *_both("eq-bound", "--n", "3", "--alpha", "40"),
    *_both("realize", "--seq", WORKED),
    *_both("realize", "--seq", '{"kind":"polynomial","coeffs":[1,1]}'),
    *_both("realize", "--seq", '{"kind":"geometric","scale":1,"ratio":2}'),
    {"argv": ["realize", "--seq", '{"kind":"finite","offset":3,"values":[1,3,3,1,0,2]}']},
    {"argv": ["realize", "--seq", WORKED, "--poset-out", "{tmp}/poset.json",
              "--partition-out", "{tmp}/partition.json"]},
    *_both("verify-partition", "--poset", FAMILY, "--partition", PARTITION),
    *_both("verify-partition", "--poset", FAMILY, "--partition", UNCOVERED),
    *_both("verify-partition", "--poset", FAMILY, "--partition", OVERLAP),
    {"argv": ["verify-partition", "--poset", FAMILY, "--partition", BAD_BOTTOM]},
    {"argv": ["verify-partition", "--poset", FAMILY, "--partition", '{"intervals":[]}']},
    *_both("sdepth", "--poset", FAMILY),
    *_both("sdepth", "--poset", SIX),
    {"argv": ["sweep", "--family", "arithmetic", "--a-range", "1:6", "--b-range", "1:3"]},
    {"argv": ["sweep", "--family", "quadratic", "--a-range", "5:9", "--b-range", "1:2"]},
    {"argv": ["sweep", "--family", "geometric", "--a-range", "1:2", "--b-range", "2:4",
              "--out", "{tmp}/grid.csv"]},
    # exit 2: malformed input
    {"argv": ["qdepth", "--seq", '{"kind":"bogus"}']},
    {"argv": ["qdepth", "--seq", "{not json"]},
    {"argv": ["qdepth", "--seq", "{tmp}/missing.json"]},
    {"argv": ["qdepth", "--seq", '{"kind":"finite","offset":0,"values":[1,-2]}']},
    {"argv": ["qdepth", "--seq", '{"kind":"finite","offset":0,"values":[0,0]}']},
    {"argv": ["beta-table", "--seq", '{"kind":"polynomial","coeffs":[0,1]}', "--d", "3"]},
    {"argv": ["qdepth", "--seq", '{"kind":"geometric","scale":1,"ratio":"x"}']},
    {"argv": ["qdepth", "--seq", '{"kind":"finite","offset":0,"values":[1],"extra":1}']},
    {"argv": ["eq-bound", "--n", "2", "--alpha", "seven"]},
    {"argv": ["sweep", "--family", "arithmetic", "--a-range", "3:1", "--b-range", "1:1"]},
    {"argv": ["sdepth", "--poset", '{"n":2,"sets":[[3]]}']},
    {"argv": ["verify-partition", "--poset", FAMILY, "--partition", '{"intervals":[{"C":[1]}]}']},
    # exit 3: well-formed input outside the domain
    {"argv": ["beta-table", "--seq", WORKED, "--d", "-3"]},
    {"argv": ["sdepth", "--poset", SIX, "--cap", "10"]},
    {"argv": ["realize", "--seq", '{"kind":"finite","offset":1,"values":[100]}']},
    {"argv": ["realize", "--seq", '{"kind":"finite","offset":1,"values":[1,40]}']},
    {"argv": ["closed-form", "--family", "arithmetic", "--a", "0", "--b", "1"]},
    {"argv": ["eq-bound", "--n", "0", "--alpha", "3"]},
    # later cases go last, so the test ids of the runs above keep their index
    {"argv": ["verify-partition", "--poset", CHAIN, "--partition", TWO_OVERLAPS]},
    {"argv": ["verify-partition", "--poset", CHAIN, "--partition", OVERLAP_THEN_OUTSIDE]},
    *_both("closed-form", "--family", "arithmetic", "--a", "5", "--b", "2"),
    *_both("closed-form", "--family", "quadratic", "--a", "3", "--b", "1"),
    {"argv": ["eq-bound", "--n", "2", "--alpha", "11"]},
    {"argv": ["eq-bound", "--n", "1", "--alpha", "3"]},
    {"argv": ["eq-bound", "--n", "3", "--alpha", "1000"]},
    {"argv": ["qdepth", "--seq", '{"kind":"polynomial"}']},
    {"argv": ["qdepth", "--seq", '{"kind":"geometric","scale":1}']},
    {"argv": ["qdepth", "--seq", '{"kind":"polynomial","coeffs":[1,1],"ratio":2}']},
    {"argv": ["qdepth", "--seq", '{"kind":[1]}']},
    {"argv": ["qdepth", "--seq", '{"kind":"geometric","scale":1,"ratio":2,"shift":"x"}']},
    *_both("sdepth", "--poset", FIVE_PAIRS_UP, "--cap", "26"),
    {"argv": ["beta-table", "--seq", '{"kind":"polynomial","coeffs":[1,1]}', "--d", "1000000"]},
    {"argv": ["qdepth", "--seq", '{"kind":"polynomial","coeffs":[1,1000000]}']},
    {"argv": ["sweep", "--family", "arithmetic", "--a-range", "1-3", "--b-range", "1:1"]},
    {"argv": ["sweep", "--family", "arithmetic", "--a-range", "a:b", "--b-range", "1:1"]},
    {"argv": ["realize", "--seq", '{"kind":"polynomial","coeffs":[1,1]}', "--poset-out", "{tmp}/no-such-dir/x.json"]},
    {"argv": ["sweep", "--family", "arithmetic", "--a-range", "1:2", "--b-range", "1:2",
              "--out", "{tmp}/no-such-dir/x.csv"]},
]


def run_case(case: dict) -> dict:
    """Run one case through cli.main in-process and return what it produced."""
    from qdepth import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(case.get("stdin", ""))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = stdin
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), encoding="utf-8", newline="") as fh:
                files[name] = fh.read()
    text = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    return {"exit": code, "files": files, **{k: v.replace(tmp, "{tmp}") for k, v in text.items()}}


def record() -> list[dict]:
    return [{**case, **run_case(case)} for case in CASES]


if __name__ == "__main__":
    corpus = record()
    with open(CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = [c["exit"] for c in corpus]
    print(f"recorded {len(corpus)} runs to {CORPUS_PATH}: "
          + ", ".join(f"exit {k}: {codes.count(k)}" for k in sorted(set(codes))))
