"""JSON text as `json.dumps(obj, indent=2)` writes it, byte for byte.

With `indent` set, `json` encodes in pure Python, one call per value. Here a
list of plain ints, such as each degree-4 coefficient vector of a kappa
Gram, is one join, and every other leaf goes through the C encoder. Only
the verbs' JSON output and the arrangement writer load this module.
"""

from json import dumps as _leaf
from json.encoder import encode_basestring_ascii as _key


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)` for dicts with str keys, lists, tuples, str, int,
    bool and None (and any other value `json` encodes as a leaf)."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in obj.items():
            out += (sep, _key(k), ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif {*map(type, obj)} == {int}:  # type, not isinstance: a bool is written true or false
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + nl + "]")
        else:
            sep = "[" + inner
            for v in obj:
                out.append(sep)
                _write(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(_leaf(obj))
