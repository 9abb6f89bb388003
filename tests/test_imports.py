"""Import footprint of the CLI: each verb loads only the modules it runs, its
own handler module among them, and argparse only when the argv is not plainly
spelled.

Each listing is what `conftest.python_child`'s start-up hook writes when a
child ends: its `sys.modules`, minus what a bare interpreter in the same
environment holds (`conftest.baseline`). A verb's footprint is read off the
one `python -m twoarr.cli` run of its golden process case in
`test_goldens.py`, which is compiled afresh, as the benchmark runs it; under
`-m`, cli.py runs as `__main__`.
"""

from pathlib import Path

import pytest

import twoarr
from test_goldens import CASES, PROCESS_CASES
from twoarr.cli import _plain_args

HEAVY = {"twoarr.matroid", "twoarr.exterior", "twoarr.presentation", "twoarr.invariants"}
NEVER = {"__future__", "dataclasses", "inspect"}
# argparse and what it loads; a plainly spelled argv is read without them
PARSER = {"argparse", "gettext", "locale"}
# each name of PROCESS_CASES -> the heavy modules its run must not load
ABSENT = {
    "validate": HEAVY,
    "restrict": HEAVY,
    "lattice": HEAVY - {"twoarr.matroid"},
    "circuits": HEAVY - {"twoarr.matroid"},
    "betti": HEAVY - {"twoarr.matroid"},
    # the presentation reads the circuits the arrangement found, without twoarr.matroid
    "present": {"twoarr.invariants", "twoarr.matroid"},
    "kappa": {"twoarr.matroid"},
    "linking": HEAVY - {"twoarr.invariants"},
    "compare": set(),
    "usage": HEAVY,  # argparse rejects the argv before any handler loads
}


@pytest.mark.parametrize("name", list(PROCESS_CASES))
def test_verb_loads_only_its_modules(name, cli_run, inputs, baseline):
    argv = [a.format(**inputs) for a in CASES[PROCESS_CASES[name]]]
    loaded = cli_run(*argv).modules - baseline
    plain = _plain_args(argv) is not None
    handlers = {"twoarr.verbs", f"twoarr.verbs.{argv[0]}"} if plain else {"twoarr.verbs"}
    assert "twoarr.arrangement" in loaded
    assert "twoarr.cli" not in loaded  # no module imports cli.py a second time
    assert not loaded & (NEVER | ABSENT[name])
    assert {m for m in loaded if m.startswith("twoarr.verbs")} == handlers
    assert ("twoarr.restriction" in loaded) == (argv[0] == "restrict")
    assert ("argparse" in loaded) == (not plain)
    if plain:
        assert not loaded & PARSER


@pytest.mark.parametrize("argv", [["--help"], ["validate", "{example22-B}", "--form", "json"]], ids=["help", "abbreviation"])
def test_help_and_abbreviations_still_import_argparse(argv, cli_run, inputs, baseline):
    assert "argparse" in cli_run(*(a.format(**inputs) for a in argv)).modules - baseline


def test_bare_package_import_loads_no_submodule(python_child):
    proc = python_child("-c", "import twoarr")
    assert proc.returncode == 0, proc.stderr
    assert "twoarr" in proc.modules
    assert [m for m in proc.modules if m.startswith("twoarr.")] == []


def test_no_module_loads_typing(python_child):
    """Under -S no `site` start-up hook runs, and some hooks load typing themselves; the child
    imports the listing hook by hand, then every twoarr module."""
    src = Path(twoarr.__file__).resolve().parent
    names = [".".join(("twoarr", *p.relative_to(src).with_suffix("").parts)).removesuffix(".__init__") for p in src.rglob("*.py")]
    proc = python_child("-S", "-c", "\n".join(f"import {m}" for m in ["sitecustomize", *names]))
    assert proc.returncode == 0, proc.stderr
    assert set(names) <= proc.modules and "typing" not in proc.modules
