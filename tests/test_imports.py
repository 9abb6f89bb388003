"""Import footprint of the CLI: each verb loads only the modules it runs.

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
NEVER = {"dataclasses", "inspect"}

B = str(FIXTURES / "example22-B.arr")
BPRIME = str(FIXTURES / "example22-Bprime.arr")
CASES = {
    "validate": (["validate", B], 0, HEAVY),
    "restrict": (["restrict", B, "--index", "1"], 0, HEAVY),
    "lattice": (["lattice", B], 0, HEAVY - {"twoarr.matroid"}),
    "circuits": (["circuits", B], 0, HEAVY - {"twoarr.matroid"}),
    "betti": (["betti", B], 0, HEAVY - {"twoarr.matroid"}),
    "present": (["present", B], 0, {"twoarr.invariants"}),
    "kappa": (["kappa", B], 0, set()),
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
    assert not loaded & NEVER
    assert not loaded & absent


def test_importtime_of_validate_lists_no_heavy_module():
    proc = child("-X", "importtime", "-m", "twoarr.cli", "validate", B)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "twoarr.arrangement" in names
    assert not names & (NEVER | HEAVY)


def test_bare_package_import_loads_no_submodule():
    proc = child("-c", "import twoarr; " + LIST_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in proc.stderr.split() if m.startswith("twoarr.")] == []
