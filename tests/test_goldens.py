"""Golden CLI output, byte for byte: every verb, and the parser's help and usage errors.

Each case runs `cli.main` in process with `COLUMNS` pinned (argparse wraps
help to the terminal width) and compares its stdout, then its stderr under a
`--- stderr` line when there is any, then a last line `exit N` with the exit
code (the `SystemExit` code for `--help`), with `tests/goldens/<case>.txt`.
These transcripts are the suite's one check of what a verb prints on these
inputs; `test_cli.py` asserts only what no golden shows. With
`test_acceptance.py` and the reference comparisons of `test_lattice_walk.py`
and `test_properties.py`, they are also the check of the library values those
verbs print on the paper's fixtures.
A restriction is an arrangement file whatever the format, so its `-text`
and `-json` cases both read one golden, `restrict-<fixture>-<index>.txt`.
One case per verb, a usage error and a validation failure also run as
`python -m twoarr.cli` processes, through `cli.run`, in the benchmark's child
environment (`conftest.cli_run`); `test_imports.py` reads the import
footprint of the same runs. Running this file as a script rewrites every
golden from the current code:

    PYTHONPATH=src python tests/test_goldens.py

The `-json` case of a restriction rewrites the golden its `-text` case
wrote, so a difference between the two spellings fails the `-text` case.
A golden is refreshed only together with a CHANGES.md entry saying why.

The goldens are written by CPython 3.11. Every case also matches on 3.10,
the declared floor (`requires-python >= 3.10`), on 3.12 and on every 3.13
release: `help` matches on 3.13 because the CLI spells out the top-level
usage, which that argparse would wrap differently, and the invalid-choice
usage errors match on 3.13.13 because the CLI words that message itself,
where that argparse leaves the quotes off the choices. `check_goldens.py` in
this directory runs that check on an interpreter without pytest.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from conftest import input_paths
from twoarr.restriction import restrict, serialize_arrangement
from twoarr.cli import main
from twoarr.fixtures import FIXTURES, load_fixture

GOLDENS = Path(__file__).resolve().parent / "goldens"
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
        out[f"linking-{name}-json"] = ["linking", f"{{{name}}}", "--format", "json"]
    for name in ("a4", "lines7", "lines7-conj"):
        for verb in ("validate", "lattice", "circuits", "betti", "present", "kappa"):
            out[f"{verb}-{name}"] = [verb, f"{{{name}}}"]
        out[f"present-{name}-normalized"] = ["present", f"{{{name}}}", "--normalize-signs"]
        out[f"present-mode-complex-{name}"] = ["present", f"{{{name}}}", "--mode", "complex"]
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


def golden(case: str) -> Path:
    """The golden file of a case: both formats of a restriction read `restrict-<fixture>-<index>.txt`."""
    if case.startswith("restrict-"):
        case = case.rsplit("-", 1)[0]  # drop the format
    return GOLDENS / f"{case}.txt"


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


# one case per verb, and a usage error, by the name of its footprint check in test_imports.py
PROCESS_CASES = {
    "validate": "validate-example22-B-text",
    "lattice": "lattice-a4",
    "circuits": "circuits-thm32-Bhat-json",
    "betti": "betti-example22-Bprime-reversed",
    "present": "present-thm32-Bhat-text",
    "kappa": "kappa-example22-Bprime-json",
    "linking": "linking-lines7-conj",
    "restrict": "restrict-thm32-Bhat-3-text",
    "compare": "compare-example22-B-example22-Bprime-text",
    "usage": "usage-format-xml",
}


def run_process_case(cli_run, argv: list[str], inputs: dict[str, str]) -> str:
    """`run_case` in a `python -m twoarr.cli` process (`conftest.cli_run`)."""
    proc = cli_run(*(a.format(**inputs) for a in argv))
    return transcript(proc.stdout.decode(), proc.stderr.decode(), proc.returncode)


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, inputs):
    expected = golden(case).read_text()
    assert run_case(CASES[case], inputs) == expected


@pytest.mark.parametrize("case", list(PROCESS_CASES.values()))
def test_process_output_matches_golden(case, cli_run, inputs):
    expected = golden(case).read_text()
    assert run_process_case(cli_run, CASES[case], inputs) == expected


def test_process_validation_failure_matches_main(cli_run, inputs, tmp_path):
    """No golden fails validation, so the in-process run is the reference here."""
    origin = tmp_path / "origin.arr"  # every member of example22-B restricts to the origin of R^2
    origin.write_text(serialize_arrangement(restrict(load_fixture("example22-B"), 1)))
    argv = ["validate", str(origin)]
    expected = run_case(argv, inputs)
    assert expected.endswith("exit 2\n")
    assert run_process_case(cli_run, argv, inputs) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDENS.glob("*.txt")) == sorted({golden(case).stem for case in CASES})


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = input_paths(Path(tmp))
        for case, argv in CASES.items():
            golden(case).write_text(run_case(argv, inputs))
    print(f"wrote {len({golden(case) for case in CASES})} goldens to {GOLDENS}")
