"""Golden CLI output: stdout of `restrict`, `linking` and `kappa`, byte for byte.

Each case runs `cli.main` in process and compares its stdout, followed by a
last line `exit N` with the exit code, with `tests/goldens/<case>.txt`.
Running this file as a script rewrites every golden from the current code:

    PYTHONPATH=src python tests/test_goldens.py

A golden is refreshed only together with a CHANGES.md entry saying why.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from twoarr.arrangement import serialize_arrangement
from twoarr.cli import main
from twoarr.fixtures import FIXTURES, load_fixture

GOLDENS = Path(__file__).resolve().parent / "goldens"
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "twoarr" / "fixtures"
# generated inputs, written to a scratch directory: name -> generic_lines arguments
GENERATED = {"lines7": (7, 3, False), "lines7-conj": (7, 3, True)}


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv, with `{name}` standing for an input file's path."""
    out = {}
    for fixture in FIXTURES:
        name = fixture.removesuffix(".arr")
        for index in range(1, load_fixture(name).n + 1):
            for fmt in ("text", "json"):
                out[f"restrict-{name}-{index}-{fmt}"] = [
                    "restrict", f"{{{name}}}", "--index", str(index), "--format", fmt
                ]
        out[f"kappa-{name}-json"] = ["kappa", f"{{{name}}}", "--format", "json"]
    for name in ("example22-B", "example22-Bprime", *GENERATED):
        out[f"linking-{name}"] = ["linking", f"{{{name}}}"]
    return out


CASES = cases()


def input_paths(directory: Path) -> dict[str, str]:
    from conftest import generic_lines

    paths = {f.removesuffix(".arr"): str(FIXTURE_DIR / f) for f in FIXTURES}
    for name, (n, seed, conjugate_last) in GENERATED.items():
        path = directory / f"{name}.arr"
        path.write_text(serialize_arrangement(generic_lines(n, seed, conjugate_last)))
        paths[name] = str(path)
    return paths


def run_case(argv: list[str], paths: dict[str, str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([a.format(**paths) for a in argv])
    return out.getvalue() + f"exit {code}\n"


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    return input_paths(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, paths):
    expected = (GOLDENS / f"{case}.txt").read_text()
    assert run_case(CASES[case], paths) == expected


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
