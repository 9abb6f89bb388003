"""Import footprint of the CLI: each verb loads only the modules it runs, its
own handler module among them, and argparse only when the argv is not plainly
spelled.

Each case runs the CLI in a fresh interpreter with the benchmark's child
environment (no bytecode cache written, so every module is compiled) and
lists the modules loaded at exit, minus those a bare interpreter already
holds at start-up.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "twoarr" / "fixtures"
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}
LIST_MODULES = "import sys; print(*sorted(sys.modules), sep='\\n', file=sys.stderr)"
RUN_CLI = (
    "import sys; from twoarr.cli import main; code = main(sys.argv[1:]); " + LIST_MODULES
    + "; sys.exit(code)"
)
HEAVY = {"twoarr.matroid", "twoarr.exterior", "twoarr.presentation", "twoarr.invariants"}
NEVER = {"__future__", "dataclasses", "inspect"}
# argparse and what it loads; a plainly spelled argv is read without them
PARSER = {"argparse", "gettext", "locale"}

B = str(FIXTURES / "example22-B.arr")
BPRIME = str(FIXTURES / "example22-Bprime.arr")
CASES = {
    "validate": (["validate", B], 0, HEAVY),
    "restrict": (["restrict", B, "--index", "1"], 0, HEAVY),
    "lattice": (["lattice", B], 0, HEAVY - {"twoarr.matroid"}),
    "circuits": (["circuits", B], 0, HEAVY - {"twoarr.matroid"}),
    "betti": (["betti", B], 0, HEAVY - {"twoarr.matroid"}),
    # the presentation reads the circuits the arrangement found, without twoarr.matroid
    "present": (["present", B], 0, {"twoarr.invariants", "twoarr.matroid"}),
    "kappa": (["kappa", B], 0, {"twoarr.matroid"}),
    "linking": (["linking", B], 0, HEAVY - {"twoarr.invariants"}),
    "compare": (["compare", B, BPRIME], 10, set()),
}


def child(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=CHILD_ENV, cwd=SRC.parent, capture_output=True, text=True, timeout=60
    )


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    """Modules a bare interpreter in the child environment loads by itself."""
    proc = child("-c", LIST_MODULES)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("verb", list(CASES))
def test_verb_loads_only_its_modules(verb, baseline):
    argv, exit_code, absent = CASES[verb]
    proc = child("-c", RUN_CLI, *argv)
    assert proc.returncode == exit_code, proc.stderr
    loaded = set(proc.stderr.split()) - baseline
    assert "twoarr.cli" in loaded
    assert not loaded & (NEVER | PARSER)
    assert not loaded & absent
    assert {m for m in loaded if m.startswith("twoarr.verbs")} == {"twoarr.verbs", f"twoarr.verbs.{verb}"}
    assert ("twoarr.restriction" in loaded) == (verb == "restrict")


def importtime_names(*argv: str, exit_code: int = 0) -> set[str]:
    """The modules `python -X importtime -m twoarr.cli *argv` imports, after `exit_code`."""
    proc = child("-X", "importtime", "-m", "twoarr.cli", *argv)
    assert proc.returncode == exit_code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("verb", list(CASES))
def test_cli_run_as_main_is_compiled_once(verb):
    """Under -m, cli.py runs as __main__; no verb module imports it a second time as twoarr.cli."""
    argv, exit_code, _ = CASES[verb]
    names = importtime_names(*argv, exit_code=exit_code)
    assert f"twoarr.verbs.{verb}" in names
    assert "twoarr.cli" not in names


def test_importtime_of_validate_lists_no_heavy_module():
    names = importtime_names("validate", B)
    assert "twoarr.arrangement" in names
    assert not names & (NEVER | HEAVY | PARSER)


@pytest.mark.parametrize("argv", [["--help"], ["validate", B, "--form", "json"]], ids=["help", "abbreviation"])
def test_help_and_abbreviations_still_import_argparse(argv):
    assert "argparse" in importtime_names(*argv)


def test_bare_package_import_loads_no_submodule():
    proc = child("-c", "import twoarr; " + LIST_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in proc.stderr.split() if m.startswith("twoarr.")] == []
