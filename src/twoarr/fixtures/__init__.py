"""Bundled arrangement files used by the test suite and handy for the CLI."""

import os

from ..arrangement import Arrangement, parse_arrangement

FIXTURES = (
    "example22-B.arr",
    "example22-Bprime.arr",
    "thm32-Bhat.arr",
    "thm32-Bhat-complex.arr",
)


def fixture_text(name: str) -> str:
    if not name.endswith(".arr"):
        name += ".arr"
    if name not in FIXTURES:
        raise KeyError(f"no bundled fixture {name!r}; have {FIXTURES}")
    with open(os.path.join(os.path.dirname(__file__), name), encoding="utf-8") as f:
        return f.read()


def load_fixture(name: str) -> Arrangement:
    return parse_arrangement(fixture_text(name))
