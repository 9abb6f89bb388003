"""`_jsontext.dumps` writes what `json.dumps(obj, indent=2)` writes, byte for byte.

Derandomized Hypothesis draws nested dicts, lists and tuples whose leaves
are None, bools, ints of any size and strings with quotes, backslashes,
control characters and non-ASCII code points, which `ensure_ascii` escapes.
The kappa documents of twelve generic lines, with and without conj, check the
reuse of a repeated int list's text at scale.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import generic_lines
from twoarr._jsontext import dumps
from twoarr.restriction import serialize_arrangement
from twoarr.verbs import kappa as kappa_verb

# what JSON escapes, or any code point, lone surrogates included
CHARACTERS = st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é €\U0001f600'), st.integers(0, 0x10FFFF).map(chr))
TEXT = st.text(CHARACTERS, max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200), TEXT)
# lists of ints with bools mixed in, the writer's one-join case and its exception
INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), max_size=6)
DOCUMENTS = st.recursive(
    st.one_of(LEAVES, INT_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(doc=DOCUMENTS)
@example(doc={"": {}, "a": [], "b": [[], (), {}], "c": {"d": [{}, [[]], ()]}})
@example(doc=[1, True, -0, False, None, 2**100, -(2**64)])
@example(doc={"kappa": {"gram": (((1, 0, -1), (0, 0, 0)),), "scalar": False, "rank": 1}})
@example(doc={'k"\\\x01é\U0001f600': ['"', "\\", "\x1f", " ", "\udc80"]})
# equal as tuples, (1, 0) == (True, False), and one int list at three indents
@example(doc=[(1, 0), (True, False), [1, 0], {"a": [[1, 0]], "b": (1, 0)}, (1, 0)])
def test_dumps_equals_json_dumps_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("conjugate_last", [False, True], ids=["lines12", "lines12-conj"])
def test_dumps_of_a_kappa_document_equals_json_dumps(conjugate_last, tmp_path):
    """Its Gram holds 3025 vectors of 495 ints, 661 of them distinct (951 with conj)."""
    path = tmp_path / "lines12.arr"
    path.write_text(serialize_arrangement(generic_lines(12, 3, conjugate_last)))
    _, _, doc = kappa_verb.run(SimpleNamespace(file=str(path), format="json"))
    assert len(doc["kappa"]["gram"]) == 55
    assert dumps(doc) == json.dumps(doc, indent=2)
