"""The public surface: lazy package names and the immutable value classes."""

import ast
import copy
import hashlib
import pickle
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import twoarr
from twoarr import exterior, linalg
from twoarr._value import Value
from twoarr.arrangement import (
    Arrangement,
    SubspacePair,
    parse_arrangement,
    validate,
)
from twoarr.fixtures import FIXTURES, fixture_text, load_fixture
from twoarr.invariants import compare, kappa
from twoarr.matroid import Flat, flats, nbc_sets
from twoarr.presentation import circuit_dependencies, full_presentation
from twoarr.restriction import restrict

# repr(parse_arrangement(example22-B)): the dataclass-based value classes' format, each
# form its tuple of coefficients
EXAMPLE22_B_REPR = (
    "Arrangement(dim=4, subspaces=(SubspacePair(name='H1', first=(Fraction(1, 1), "
    "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), second=(Fraction(0, 1), Fraction(1, "
    "1), Fraction(0, 1), Fraction(0, 1)), complex_spec=ComplexFormSpec(z=((Fraction(1, 1), "
    "Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1))), zbar=((Fraction(0, 1), Fraction(0, "
    "1)), (Fraction(0, 1), Fraction(0, 1))))), SubspacePair(name='H2', first=(Fraction(0, "
    "1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), second=(Fraction(0, 1), "
    "Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
    "complex_spec=ComplexFormSpec(z=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), "
    "Fraction(0, 1))), zbar=((Fraction(0, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, "
    "1))))), SubspacePair(name='H3', first=(Fraction(-1, 1), Fraction(0, 1), Fraction(1, "
    "1), Fraction(0, 1)), second=(Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1), "
    "Fraction(1, 1)), complex_spec=ComplexFormSpec(z=((Fraction(-1, 1), Fraction(0, 1)), "
    "(Fraction(1, 1), Fraction(0, 1))), zbar=((Fraction(0, 1), Fraction(0, 1)), "
    "(Fraction(0, 1), Fraction(0, 1))))), SubspacePair(name='H4', first=(Fraction(-2, 1), "
    "Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), second=(Fraction(0, 1), Fraction(-2, "
    "1), Fraction(0, 1), Fraction(1, 1)), complex_spec=ComplexFormSpec(z=((Fraction(-2, 1), "
    "Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))), zbar=((Fraction(0, 1), Fraction(0, "
    "1)), (Fraction(0, 1), Fraction(0, 1)))))))"
)
# sha256 of the reprs in test_reprs_match_the_dataclass_reprs, joined by newlines,
# in the same format
REPRS_SHA256 = "105d6b6e00014605a6ad84396c5d6501d9c88dd84a4448a4ff73aa5cfa6fba61"
README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_its_submodule_object():
    assert len(twoarr.__all__) == len(set(twoarr.__all__)) == 18
    for name in twoarr.__all__:
        obj = getattr(twoarr, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("twoarr.")


def test_readme_library_section_lists_exactly_the_exported_names():
    text = README.read_text()
    section = text[text.index("## Library") :]
    section = section[: section.index("\n## ", 1)]
    # the bullets, each up to its blank line, without the parenthesised notes
    items = [re.sub(r"\(.*?\)", "", item.split("\n\n")[0], flags=re.S) for item in section.split("\n- ")[1:]]
    kinds = ("Functions:", "Result types:", "Exceptions:")
    listed = [name for item in items if item.startswith(kinds) for name in re.findall(r"`(\w+)`", item)]
    assert sorted(listed) == sorted(twoarr.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from twoarr import *", namespace)
    assert set(twoarr.__all__) <= set(namespace)
    assert namespace["parse_arrangement"] is parse_arrangement


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        twoarr.no_such_name
    assert not hasattr(twoarr, "Value")
    assert twoarr.linalg is sys.modules["twoarr.linalg"]
    assert {"Arrangement", "compare", "__version__"} <= set(dir(twoarr))


def test_unknown_fixture_names_the_bundled_files():
    with pytest.raises(KeyError) as info:
        load_fixture("nope")
    assert info.value.args == (f"no bundled fixture 'nope.arr'; have {FIXTURES}",)
    assert len(FIXTURES) == 4


def test_moved_names_still_resolve_from_their_old_modules():
    """`restrict` moved to `restriction`, the circuit search's gate and exception from
    `matroid` to `arrangement`; those old names still resolve. The document writer,
    which moved with `restrict`, is read from `restriction` alone."""
    from twoarr import arrangement, matroid, restriction

    assert arrangement.restrict is restriction.restrict
    assert matroid.NotAdmissible is arrangement.NotAdmissible
    for name in ("arrangement_to_document", "serialize_arrangement", "no_such_name"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(arrangement, name)


def test_not_admissible_is_raised_at_one_site():
    """The odd-codimension rule is stated once: `_admissible_walk` alone raises `NotAdmissible`."""
    from twoarr import matroid

    sites = []
    for path in sorted(Path(twoarr.__file__).resolve().parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "NotAdmissible":
                enclosing = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, enclosing))
    assert sites == [("arrangement.py", ["_admissible_walk"])]
    assert not hasattr(matroid, "matroid_rank")


def test_a_form_is_scaled_to_integers_at_one_edge():
    """`arrangement.integer_form` alone computes a form's scale, the lcm of its
    denominators: the integer kernel imports nothing from `fractions`, and
    `circuit_dependencies` reads a member's forms only as that function's argument, so
    it builds no `Fraction` to recover a scale."""
    from twoarr import presentation

    src = Path(twoarr.__file__).resolve().parent
    trees = {p.relative_to(src).as_posix(): ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}
    funcs = [(name, f) for name, tree in trees.items() for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    lcm = [(name, f.name) for name, f in funcs if any(getattr(n, "attr", getattr(n, "id", None)) == "lcm" for n in ast.walk(f))]
    assert lcm == [("arrangement.py", "integer_form")]
    imports = [n for n in ast.walk(trees["linalg.py"]) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert "fractions" not in {getattr(n, "module", None) for n in imports} | {a.name for n in imports for a in n.names}
    assert not hasattr(linalg, "integer_row") and not hasattr(linalg, "Vector")
    (func,) = [f for name, f in funcs if (name, f.name) == ("presentation.py", "circuit_dependencies")]
    scaled = [n.args[0] for n in ast.walk(func) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "integer_form"]
    forms = [n for n in ast.walk(func) if isinstance(n, ast.Attribute) and n.attr in ("first", "second")]
    assert scaled and forms == scaled
    assert presentation.integer_form is twoarr.arrangement.integer_form
    assert not [n for n in ast.walk(func) if isinstance(n, ast.Attribute) and n.attr == "_integer_forms"]


def test_the_value_layer_keeps_the_papers_data_once():
    """A subspace holds its two coefficient tuples, with no wrapper class, and a relation
    holds its circuit and signs: its element is computed from them, and `normalize_signs`
    reads only the signs, with no negation of elements."""
    from twoarr import arrangement, presentation

    src = Path(twoarr.__file__).resolve().parent
    trees = {p.relative_to(src).as_posix(): ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}
    assert not hasattr(arrangement, "LinearForm")
    attrs = {name: {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} for name, tree in trees.items()}
    assert [name for name, read in attrs.items() if "coeffs" in read] == []
    assert presentation.CircuitRelation._fields == ("circuit", "signs")
    assert not hasattr(presentation, "_relation") and not hasattr(exterior.ExtElement, "__neg__")
    (func,) = [f for f in trees["presentation.py"].body if getattr(f, "name", None) == "normalize_signs"]
    assert not [n for n in ast.walk(func) if isinstance(n, ast.Attribute) and n.attr == "element"]


def test_no_module_imports_typing():
    """Annotations take `Iterable`, `Sequence` and the rest from collections.abc: typing
    costs a fresh process a few milliseconds of import (test_imports.py checks the run)."""
    for path in sorted(Path(twoarr.__file__).resolve().parent.rglob("*.py")):
        imports = [n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert "typing" not in {getattr(n, "module", None) for n in imports} | {a.name for n in imports for a in n.names}, path.name


def test_reprs_match_the_dataclass_reprs(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    assert repr(parse_arrangement(fixture_text("example22-B"))) == EXAMPLE22_B_REPR
    objs = [
        arr_b,
        arr_bprime,
        arr_bhat,
        arr_bhat_complex,
        validate(arr_b),
        flats(arr_bhat),
        nbc_sets(arr_bhat),
        full_presentation(arr_bprime),
        circuit_dependencies(arr_bprime, (1, 2, 3)),
        kappa(arr_b),
        compare(arr_b, arr_bprime),
        compare(arr_bhat, arr_bhat_complex),
        restrict(arr_bhat, 3),
    ]
    text = "\n".join(repr(o) for o in objs)
    assert hashlib.sha256(text.encode()).hexdigest() == REPRS_SHA256


def test_exterior_arithmetic_is_one_product_on_bitmasks():
    """`_product` alone multiplies terms, on (bitmask, coefficient) pairs; the
    tuple arithmetic lives in tests/exterior_reference.py."""
    assert exterior._inversions(0b0110, 0b1001) == 2  # e23 ^ e14: 2 > 1 and 3 > 1
    def names(code):  # the globals a function reads, in its generator expressions too
        nested = (names(c) for c in code.co_consts if isinstance(c, types.CodeType))
        return set(code.co_names).union(*nested)

    functions = [f for f in vars(exterior).values() if isinstance(f, types.FunctionType)]
    assert [f.__name__ for f in functions if "_inversions" in names(f.__code__)] == ["_product"]
    callers = {f.__name__ for f in functions if "_product" in names(f.__code__)}
    assert callers == {"ideal_slices", "gram_rows"}
    assert not hasattr(exterior, "normalize") and not hasattr(linalg, "vec")
    for name in ("from_terms", "monomial", "zero", "coeff_vector", "scale", "__add__", "wedge"):
        assert not hasattr(exterior.ExtElement, name), name
    x = exterior.ExtElement((((1, 2), 1), ((3, 4), -2)))
    assert (x.degree, str(x), x.is_zero) == (2, "+e12 -2e34", False)


class Point(Value):
    x: int
    y: int = 0


class Other(Value):
    x: int
    y: int = 0


def test_construction_positional_keyword_and_defaults():
    assert Point._fields == ("x", "y")
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
    assert Point(1).y == 0
    f = (Fraction(1), Fraction(0))
    assert SubspacePair("H", f, f).complex_spec is None
    assert SubspacePair("H", f, f) == SubspacePair(name="H", second=f, first=f, complex_spec=None)
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 1})]:
        with pytest.raises(TypeError):
            Point(*args, **kwargs)


def test_equality_only_within_one_class_and_hash_of_fields():
    assert Point(1, 2) != Point(2, 1)
    assert Point(1, 2) != Other(1, 2)
    assert Point(1, 2).__eq__(Other(1, 2)) is NotImplemented
    assert Point(1, 2) != (1, 2)
    assert hash(Point(1, 2)) == hash((1, 2))
    assert Flat((1, 2), 1) == Flat((1, 2), 1)
    assert len({Flat((1, 2), 1), Flat((1, 2), 1), Flat((1,), 1)}) == 2
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"


def test_instances_are_immutable_but_keep_cached_properties():
    arr = load_fixture("example22-B")
    for target in (arr, Point(1)):
        with pytest.raises(AttributeError):
            target.x = 5
        with pytest.raises(AttributeError):
            target.new_attribute = 5
        with pytest.raises(AttributeError):
            del target.x
    before = (repr(arr), hash(arr))
    assert validate(arr).ok  # fills the rank cache
    assert vars(arr)["_walk"]
    assert (repr(arr), hash(arr)) == before
    assert arr == load_fixture("example22-B")


def test_copies_and_pickles_are_equal():
    arr = load_fixture("thm32-Bhat")
    assert copy.deepcopy(arr) == arr
    assert pickle.loads(pickle.dumps(arr)) == arr
    assert isinstance(arr, Arrangement)
