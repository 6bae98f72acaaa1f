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
                          text=True, timeout=60)


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
    assert not loaded & {"dataclasses", "inspect", "fractions", "qdepth.posets", "qdepth.closed_forms"}


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
