"""The command line reproduces a recorded corpus of runs byte for byte.

The corpus and its recorder live in golden_cli.py / golden_cli.json.  Every
subcommand appears in both output formats, next to inputs that must exit
2 (malformed) and 3 (out of domain).
"""

import json

import pytest

from golden_cli import CORPUS_PATH, run_case

with open(CORPUS_PATH, encoding="utf-8") as fh:
    CORPUS = json.load(fh)


def test_corpus_covers_every_subcommand_and_exit_code():
    from qdepth.cli import build_parser

    commands = {run["argv"][0] for run in CORPUS}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert commands == set(subparsers.choices)
    assert {run["exit"] for run in CORPUS} == {0, 2, 3}


@pytest.mark.parametrize("run", CORPUS, ids=[f"{i:02d}-{r['argv'][0]}" for i, r in enumerate(CORPUS)])
def test_replay_is_byte_identical(run):
    assert run_case(run) == {k: run[k] for k in ("exit", "stdout", "stderr", "files")}
