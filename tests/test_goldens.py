"""Golden CLI output, byte for byte: every verb, and the parser's help and usage errors.

Each case runs `cli.main` in process with `COLUMNS` pinned (argparse wraps
help to the terminal width) and compares its stdout, then its stderr under a
`--- stderr` line when there is any, then a last line `exit N` with the exit
code (the `SystemExit` code for `--help`), with `tests/goldens/<case>.txt`.
One case per verb, a usage error and a validation failure also run as
`python -m twoarr.cli` processes, through `cli.run`, in the benchmark's child
environment. Running this file as a script rewrites every golden from the
current code:

    PYTHONPATH=src python tests/test_goldens.py

A golden is refreshed only together with a CHANGES.md entry saying why.

The goldens are written by CPython 3.11. Every case also matches on 3.10,
the declared floor (`requires-python >= 3.10`), and on 3.12 and 3.13; `help`
matches on 3.13 because the CLI spells out the top-level usage, which that
argparse would wrap differently. `check_goldens.py` in this directory runs
that check on an interpreter without pytest.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from twoarr.arrangement import restrict, serialize_arrangement
from twoarr.cli import main
from twoarr.fixtures import FIXTURES, load_fixture

GOLDENS = Path(__file__).resolve().parent / "goldens"
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE_DIR = SRC / "twoarr" / "fixtures"
# generated inputs, written to a scratch directory: name -> conftest generator and its arguments
GENERATED = {
    "lines7": ("generic_lines", (7, 3, False)),
    "lines7-conj": ("generic_lines", (7, 3, True)),
    "a4": ("braid_a4", ()),
}
VERBS = ("validate", "lattice", "circuits", "betti", "present", "kappa", "linking", "restrict", "compare")
FORMATS = ("text", "json")


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv, with `{name}` standing for an input file's path."""
    out = {}
    for fixture in FIXTURES:
        name = fixture.removesuffix(".arr")
        n = load_fixture(name).n
        for index in range(1, n + 1):
            for fmt in FORMATS:
                out[f"restrict-{name}-{index}-{fmt}"] = [
                    "restrict", f"{{{name}}}", "--index", str(index), "--format", fmt
                ]
        out[f"kappa-{name}-json"] = ["kappa", f"{{{name}}}", "--format", "json"]
        out[f"kappa-{name}-text"] = ["kappa", f"{{{name}}}"]
        for verb in ("validate", "lattice", "circuits", "betti", "present"):
            for fmt in FORMATS:
                out[f"{verb}-{name}-{fmt}"] = [verb, f"{{{name}}}", "--format", fmt]
        for fmt in FORMATS:
            out[f"compare-{name}-self-{fmt}"] = ["compare", f"{{{name}}}", f"{{{name}}}", "--format", fmt]
        reversed_order = ",".join(str(k) for k in range(n, 0, -1))
        out[f"betti-{name}-reversed"] = ["betti", f"{{{name}}}", "--order", reversed_order]
        out[f"present-{name}-normalized"] = ["present", f"{{{name}}}", "--normalize-signs"]
    for name in ("example22-B", "thm32-Bhat-complex", "thm32-Bhat"):
        out[f"present-mode-complex-{name}"] = ["present", f"{{{name}}}", "--mode", "complex"]
    for first, second in (("example22-B", "example22-Bprime"), ("thm32-Bhat", "thm32-Bhat-complex")):
        for fmt in FORMATS:
            argv = ["compare", f"{{{first}}}", f"{{{second}}}", "--format", fmt]
            out[f"compare-{first}-{second}-{fmt}"] = argv
            out[f"compare-{first}-{second}-permutations-{fmt}"] = argv + ["--permutation-search"]
    for name in ("example22-B", "example22-Bprime", "lines7", "lines7-conj"):
        out[f"linking-{name}"] = ["linking", f"{{{name}}}"]
    for verb in ("lattice", "betti"):
        out[f"{verb}-a4"] = [verb, "{a4}"]
    for name in ("lines7", "lines7-conj"):
        out[f"present-{name}"] = ["present", f"{{{name}}}"]
        out[f"kappa-{name}"] = ["kappa", f"{{{name}}}"]
    out["compare-lines7-lines7-conj"] = ["compare", "{lines7}", "{lines7-conj}"]
    out.update(usage_cases())
    return out


def usage_cases() -> dict[str, list[str]]:
    """Help text, usage errors, and the abbreviated and `--opt=value` spellings that still parse."""
    out = {"help": ["--help"], "usage-no-arguments": []}
    for verb in VERBS:
        out[f"help-{verb}"] = [verb, "--help"]
    out["usage-unknown-verb"] = ["frobnicate", "{example22-B}"]
    out["usage-restrict-without-index"] = ["restrict", "{example22-B}"]
    out["usage-format-xml"] = ["validate", "{example22-B}", "--format", "xml"]
    out["usage-extra-positional"] = ["validate", "{example22-B}", "extra"]
    out["usage-format-before-verb"] = ["--format", "json", "validate", "{example22-B}"]
    out["usage-abbreviated-option"] = ["validate", "{example22-B}", "--form", "json"]
    out["usage-option-equals-value"] = ["validate", "{example22-B}", "--format=json"]
    return out


CASES = cases()


def input_paths(directory: Path) -> dict[str, str]:
    import conftest

    paths = {f.removesuffix(".arr"): str(FIXTURE_DIR / f) for f in FIXTURES}
    for name, (generator, args) in GENERATED.items():
        path = directory / f"{name}.arr"
        path.write_text(serialize_arrangement(getattr(conftest, generator)(*args)))
        paths[name] = str(path)
    return paths


def transcript(out: str, err: str, code) -> str:
    stderr = f"--- stderr\n{err}" if err else ""
    return out + stderr + f"exit {code}\n"


def run_case(argv: list[str], paths: dict[str, str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main([a.format(**paths) for a in argv])
        except SystemExit as e:  # --help
            code = e.code
    return transcript(out.getvalue(), err.getvalue(), code)


# the benchmark's child environment, with COLUMNS pinned as in run_case
PROCESS_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
    "COLUMNS": "80",
}
# one case per verb, and a usage error
PROCESS_CASES = (
    "validate-example22-B-text",
    "lattice-a4",
    "circuits-thm32-Bhat-json",
    "betti-example22-Bprime-reversed",
    "present-thm32-Bhat-text",
    "kappa-example22-Bprime-json",
    "linking-lines7-conj",
    "restrict-thm32-Bhat-3-text",
    "compare-example22-B-example22-Bprime-text",
    "usage-format-xml",
)


def run_process_case(argv: list[str], paths: dict[str, str]) -> str:
    """`run_case` in a `python -m twoarr.cli` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "twoarr.cli", *(a.format(**paths) for a in argv)],
        env=PROCESS_ENV, capture_output=True, encoding="utf-8", timeout=60,
    )
    return transcript(proc.stdout, proc.stderr, proc.returncode)


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    return input_paths(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, paths):
    expected = (GOLDENS / f"{case}.txt").read_text()
    assert run_case(CASES[case], paths) == expected


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_process_output_matches_golden(case, paths):
    expected = (GOLDENS / f"{case}.txt").read_text()
    assert run_process_case(CASES[case], paths) == expected


def test_process_validation_failure_matches_main(paths, tmp_path):
    """No golden fails validation, so the in-process run is the reference here."""
    origin = tmp_path / "origin.arr"  # every member of example22-B restricts to the origin of R^2
    origin.write_text(serialize_arrangement(restrict(load_fixture("example22-B"), 1)))
    argv = ["validate", str(origin)]
    expected = run_case(argv, paths)
    assert expected.endswith("exit 2\n")
    assert run_process_case(argv, paths) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDENS.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    GOLDENS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = input_paths(Path(tmp))
        for case, argv in CASES.items():
            (GOLDENS / f"{case}.txt").write_text(run_case(argv, inputs))
    print(f"wrote {len(CASES)} goldens to {GOLDENS}")
