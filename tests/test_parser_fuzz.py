"""Parser fuzz: whatever a file holds, `twoarr validate` exits 0, 2 or 3 and never raises.

Derandomized Hypothesis feeds arbitrary text and JSON-level mutations of the
four fixtures (wrong types, dropped or duplicated entries, odd rationals)
through `cli.main(["validate", path])`.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoarr.cli import main
from twoarr.fixtures import FIXTURES, fixture_text

DOCUMENTS = [json.loads(fixture_text(f)) for f in FIXTURES]
# JSON's own characters, or any code point, lone surrogates included; an explicit
# alphabet spares Hypothesis building its Unicode category tables on a cold cache
CHARACTERS = st.one_of(st.sampled_from('{}[]",:-+/.eE 0123456789\ntrunlfasdimzbrpc'), st.integers(0, 0x10FFFF).map(chr))
ODD_RATIONALS = (
    "1/0", "0/000", "-0", "+3", "1/-3", "--2", " 1", "1 ", "1.5", "1e3", "0x10", "1_0", "١/٢",
    "3/06", "", "/", "1/", "/2", "9" * 5000, "1/" + "9" * 5000,
)
ODD_VALUES = st.one_of(
    st.sampled_from(ODD_RATIONALS),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(CHARACTERS, max_size=6),
    st.lists(st.sampled_from(["0", "1", 0, None]), max_size=3),
    st.dictionaries(st.sampled_from(["z", "zbar", "name", "forms", "dim"]), st.just([]), max_size=2),
)
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def nodes(doc, path=()):
    """Every path into a JSON document, the root excluded."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


@st.composite
def mutated_fixtures(draw) -> str:
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(nodes(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        operation = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if operation == "replace":
            parent[key] = draw(ODD_VALUES)
        elif operation == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[draw(st.sampled_from(["dim", "subspaces", "name", "forms", "complex", "z", "zbar"]))] = parent[key]
    return json.dumps(doc)


def validate_exit_code(path, content: bytes) -> int:
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", str(path)])


@FUZZ
@given(text=st.text(CHARACTERS))
@example(text="")
@example(text="\ud800")
@example(text="[" * 100_000)
@example(text='{"dim": 4, "subspaces": [{"name": "H1", "forms": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}]}')
def test_any_text_is_output_or_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-text.arr"
    assert validate_exit_code(path, text.encode("utf-8", "surrogatepass")) in (0, 2, 3)


@FUZZ
@given(text=mutated_fixtures())
def test_mutated_fixtures_are_output_or_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-json.arr"
    assert validate_exit_code(path, text.encode()) in (0, 2, 3)

