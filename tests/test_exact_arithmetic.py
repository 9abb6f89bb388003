"""The package computes without floating point: a scan of its source.

The README promises that no floating point is used anywhere. Every module
under `src/twoarr` is parsed, and any float or complex constant, any use of
the name `float`, any true division `/` (on `Fraction`s it is exact, but on
ints it makes a float) and any `math` function other than the integer ones
fails the test.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twoarr"
INTEGER_MATH = {"gcd", "lcm", "comb"}


def floating_point(tree):
    """(line, what) for each construct of `tree` that may compute in floating point."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in INTEGER_MATH:
                yield node.lineno, f"math.{node.attr}"


MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_module_uses_no_floating_point(path):
    assert list(floating_point(ast.parse(path.read_text(), str(path)))) == []


def test_the_scan_finds_each_construct():
    source = "from math import sqrt, gcd\nx = 0.5\ny = float(1)\nz = 1 / 2\nz /= 2\nw = math.log(2) + math.comb(4, 2)\n"
    assert sorted(floating_point(ast.parse(source))) == [
        (1, "math.sqrt"),
        (2, "constant 0.5"),
        (3, "name float"),
        (4, "true division"),
        (5, "true division"),
        (6, "math.log"),
    ]


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {"arrangement.py", "cli.py", "exterior.py", "linalg.py", "presentation.py"}
