"""Check every CLI golden under an interpreter that may have no pytest.

`test_goldens.py` needs pytest only for its decorators, so this script puts
a stub `pytest` module in its place, imports it, and compares `run_case`'s
output for every case with its golden file; the `-text` and `-json` cases
of a restriction share one golden. It prints each case that differs, and
each golden file without a case, and exits 1 if there is any:

    PYTHONPATH=src python3.13 tests/check_goldens.py

pytest does not collect this file; its name does not start with `test_`.
"""

import sys
import tempfile
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def stub_pytest() -> types.ModuleType:
    """A `pytest` whose `fixture` and `mark.parametrize` hand the function back unchanged."""
    stub = types.ModuleType("pytest")
    stub.fixture = lambda *args, **kwargs: args[0] if args else (lambda f: f)
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda f: f)
    return stub


def main() -> int:
    sys.path.insert(0, str(TESTS))
    sys.modules["pytest"] = stub_pytest()
    import test_goldens

    with tempfile.TemporaryDirectory() as tmp:
        paths = test_goldens.input_paths(Path(tmp))
        bad = [
            case
            for case, argv in test_goldens.CASES.items()
            if test_goldens.run_case(argv, paths) != test_goldens.golden(case).read_text()
        ]
    goldens = {test_goldens.golden(case).stem for case in test_goldens.CASES}
    orphans = sorted({p.stem for p in test_goldens.GOLDENS.glob("*.txt")} - goldens)
    for case in bad:
        print(f"differs: {case}")
    for case in orphans:
        print(f"no case: {case}")
    version = ".".join(map(str, sys.version_info[:3]))
    matched = len(goldens - {test_goldens.golden(case).stem for case in bad})
    print(f"Python {version}: {matched} of {len(goldens)} goldens match, over {len(test_goldens.CASES)} cases")
    return 1 if bad or orphans else 0


if __name__ == "__main__":
    sys.exit(main())
