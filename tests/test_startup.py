"""What a fresh process imports, and that commands still run from a cold start.

Each check runs in a new interpreter with PYTHONDONTWRITEBYTECODE=1, so no
test run leaves bytecode behind and nothing loaded by another test hides a
missing import.  The golden corpus replays in-process, where every module
is already loaded and the process outlives each run, so only these runs can
catch a lazy import gone wrong or a fault in the process entry's exit path.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import qdepth
from golden_cli import CORPUS_PATH, ENV, run_id, written_files

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SUBMODULES = ("cli", "closed_forms", "engine", "errors", "posets", "records", "sequences")


def _fresh(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return subprocess.run([sys.executable, *args], env=env, input=stdin, capture_output=True,
                          encoding="utf-8", timeout=60)


def _loaded_by(statement: str) -> set:
    """Modules a fresh interpreter holds after statement that it did not hold before."""
    code = (
        "import json, sys; before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    p = _fresh("-c", code)
    assert p.returncode == 0, p.stderr
    return set(json.loads(p.stdout))


def test_cli_import_leaves_out_unused_modules():
    loaded = _loaded_by("import qdepth.cli")
    assert "qdepth.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "qdepth.posets", "qdepth.closed_forms", "qdepth.engine"}
    assert "__future__" not in loaded


def _loaded_after(argv: list) -> tuple:
    """Exit code of cli.main(argv) in a fresh interpreter, and the qdepth modules it then holds."""
    code = (
        "import contextlib, io, json, sys\n"
        "from qdepth import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('qdepth'))]))"
    )
    p = _fresh("-c", code)
    assert p.returncode == 0, p.stderr
    status, loaded = json.loads(p.stdout)
    return status, set(loaded)


@pytest.mark.parametrize("argv, status", [
    (["beta-table", "--seq", '{"kind":"polynomial","coeffs":[1,2]}', "--d", "6"], 0),
    (["eq-bound", "--n", "2", "--alpha", "22/3"], 0),
    (["qdepth", "--seq", '{"kind":"finite",'], 2),
    (["sdepth", "--poset", '{"n":2,"sets":[[1],[2],[1,2]]}'], 0),
    (["verify-partition", "--poset", '{"n":2,"sets":[[1],[1,2]]}', "--partition", '{"intervals":[{"C":[1],"D":[1,2]}]}'], 0),
], ids=["beta-table", "eq-bound", "invalid-seq", "sdepth", "verify-partition"])
def test_commands_without_a_depth_search_leave_engine_unloaded(argv, status):
    got, loaded = _loaded_after(argv)
    assert got == status
    assert "qdepth.engine" not in loaded


def test_record_classes_compile_on_first_construction():
    code = (
        "import json\n"
        "from qdepth import cli, closed_forms, engine, posets, sequences\n"
        "from qdepth.records import Record\n"
        "def subclasses(cls):\n"
        "    for sub in cls.__subclasses__():\n"
        "        yield sub\n"
        "        yield from subclasses(sub)\n"
        "def compiled():\n"
        "    return sorted(c.__name__ for c in subclasses(Record) if '_values' in c.__dict__)\n"
        "before = compiled()\n"
        "sequences.FiniteSequence(0, [1, 3])\n"
        "print(json.dumps([len(list(subclasses(Record))), before, compiled()]))"
    )
    p = _fresh("-c", code)
    assert p.returncode == 0, p.stderr
    classes, before, after = json.loads(p.stdout)
    assert classes >= 13
    assert before == []
    assert after == ["FiniteSequence", "SequenceStats"]


def test_records_built_without_their_checks_are_values_from_a_cold_start():
    # the search's partition and result and a poset's level sequence come first, by the library's own path,
    # before any public construction of their classes compiles them
    code = (
        "import copy, json, pickle\n"
        "from qdepth import posets, sequences\n"
        "poset = posets.Poset(3, frozenset({1, 2, 3, 5, 6, 7}))\n"
        "result = posets.sdepth_bruteforce(poset)\n"
        "levels = poset.level_sequence()\n"
        "cold = [result, result.partition, levels]\n"
        "compiled = sorted(type(r).__name__ for r in cold if '_init' in type(r).__dict__)\n"
        "partition = posets.IntervalPartition(poset, result.partition.intervals)\n"
        "public = [posets.SdepthResult(result.sdepth, partition), partition, sequences.FiniteSequence(0, [0, 2, 3, 1])]\n"
        "checks = []\n"
        "for r, p in zip(cold, public):\n"
        "    twins = [pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)]\n"
        "    checks.append([type(r) is type(p), r == p, p == r, hash(r) == hash(p), repr(r) == repr(p),\n"
        "                   pickle.dumps(r) == pickle.dumps(p), all(t == p and hash(t) == hash(p) for t in twins)])\n"
        "    try:\n"
        "        setattr(r, r._fields[0], 0)\n"
        "    except AttributeError:\n"
        "        checks[-1].append(True)\n"
        "print(json.dumps([compiled, checks, levels.stats() == public[2].stats()]))"
    )
    p = _fresh("-c", code)
    assert p.returncode == 0, p.stderr
    compiled, checks, same_stats = json.loads(p.stdout)
    assert compiled == ["FiniteSequence", "IntervalPartition", "SdepthResult"]
    assert checks == [[True] * 8] * 3
    assert same_stats


def test_package_import_loads_no_submodule():
    loaded = _loaded_by("import qdepth")
    assert "qdepth" in loaded
    assert not {m for m in loaded if m.startswith("qdepth.")}


def test_first_access_loads_only_the_defining_module():
    loaded = _loaded_by("import qdepth; qdepth.Poset")
    assert "qdepth.posets" in loaded
    assert "qdepth.closed_forms" not in loaded


def test_every_public_name_is_its_submodule_object():
    assert qdepth.__all__ == sorted(set(qdepth.__all__))
    for name in qdepth.__all__:
        value = getattr(qdepth, name)
        home = value.__module__
        assert home.startswith("qdepth.") and home.split(".")[1] in SUBMODULES
        assert getattr(importlib.import_module(home), name) is value
    assert set(qdepth.__all__) <= set(dir(qdepth))
    assert "__version__" in dir(qdepth)


def test_library_submodules_are_package_attributes():
    for name in ("closed_forms", "engine", "errors", "posets", "sequences"):
        assert getattr(qdepth, name) is importlib.import_module(f"qdepth.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qdepth.no_such_name
    assert not hasattr(qdepth, "dataclass")


with open(CORPUS_PATH, encoding="utf-8") as fh:
    CORPUS = json.load(fh)


def _argparse_level(run: dict) -> bool:
    """Help or a usage error: argparse ends the process before any subcommand runs."""
    return run["stdout"].startswith("usage:") or run["stderr"].startswith("usage:")


def _first_golden_runs() -> list:
    """The first corpus run of each subcommand that reads no files and no stdin."""
    first = {}
    for run in CORPUS:
        if ("stdin" not in run and not run["files"] and not any("{tmp}" in a for a in run["argv"])
                and not _argparse_level(run)):
            first.setdefault(run["argv"][0], run)
    return [first[command] for command in sorted(first)]


@pytest.mark.parametrize("run", _first_golden_runs(), ids=lambda run: run["argv"][0])
def test_fresh_cli_process_matches_golden_run(run):
    p = _fresh("-m", "qdepth.cli", *run["argv"])
    assert (p.returncode, p.stdout, p.stderr) == (run["exit"], run["stdout"], run["stderr"])


_EXIT_PATH_RUNS = [(i, run) for i, run in enumerate(CORPUS)
                   if _argparse_level(run) or any("{tmp}" in a for a in run["argv"])]


@pytest.mark.parametrize("run", [run for _, run in _EXIT_PATH_RUNS],
                         ids=[run_id(i, run) for i, run in _EXIT_PATH_RUNS])
def test_fresh_cli_process_replays_exit_paths(run, tmp_path):
    """Argparse exits and runs that write files, through the process entry, match the corpus."""
    tmp = str(tmp_path)
    p = _fresh("-m", "qdepth.cli", *(a.replace("{tmp}", tmp) for a in run["argv"]))
    got = {"exit": p.returncode, "stdout": p.stdout.replace(tmp, "{tmp}"), "stderr": p.stderr.replace(tmp, "{tmp}")}
    assert {**got, "files": written_files(tmp)} == {k: run[k] for k in ("exit", "stdout", "stderr", "files")}
