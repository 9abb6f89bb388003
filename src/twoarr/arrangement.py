"""Arrangement input model.

An arrangement is an ordered list of named codimension-2 subspaces of
R^(2d), each cut out by an ordered pair of real linear forms: two `Fraction`
tuples over the coordinates (x1, y1, ..., xd, yd). With z_j = x_j + i*y_j a
complex or conjugate-linear equation converts into the ordered pair (real
part, imaginary part), whose order fixes the signs downstream.

Arrangement files are JSON documents:

    {
      "dim": 4,
      "subspaces": [
        {"name": "H1", "forms": [["1","0","0","0"], ["0","1","0","0"]]},
        {"name": "H4", "complex": {"z":    [["0","0"], ["1","0"]],
                                   "zbar": [["-2","0"], ["0","0"]]}}
      ]
    }

Rationals are strings "p" or "p/q" with q > 0; `forms` entries list 2d
coefficients; `complex` blocks list d coefficient pairs [re, im] for the
z_j and the conjugate zbar_j variables. Unknown fields are rejected.

Every verb parses, so this module holds only what parsing and the rank
questions need: the parser (`_subspace` reads each record), `validate`,
the one walk every rank question reads (`codim`, `_closure`) and the
circuit search that fills an arrangement's `_circuits` cache, so `present`
and `kappa` load no matroid module. `restrict` and the document writer
live in `restriction`, which only the `restrict` verb loads.

It is also the one edge between the rationals and the integer kernel
(`linalg`): `integer_form` gives a form's positive scale and its integer
row. `_integer_forms` caches the rows; `presentation.circuit_dependencies`
divides the scales back out.
"""

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._value import Value
from .linalg import bitmask, closed_sets


class ParseError(ValueError):
    """Malformed arrangement document."""


class ZeroForm(ValueError):
    """A complex form specification with no nonzero coefficient."""


class UnknownLabel(KeyError):
    """Subspace label or index not present in the arrangement."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


class DegenerateRestriction(ValueError):
    """Restriction dropped some subspace below codimension 2, or left no subspace."""


class ValidationError(ValueError):
    """Arrangement violates an admissibility invariant; carries the report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(v.detail for v in report.violations))
        self.report = report


class NotAdmissible(ValueError):
    """A subset's intersection has odd codimension, so there is no matroid rank."""


def parse_rational(text: str) -> Fraction:
    num, slash, den = text.partition("/") if isinstance(text, str) else ("", "", "")
    # the pattern [+-]?\d+(/\d+)?\Z, uncompiled: isdecimal() is \d, any Unicode decimal digit, and int() reads each
    if not (num[1:] if num[:1] in "+-" else num).isdecimal() or slash and not den.isdecimal():
        raise ParseError(f"malformed rational {text!r}")
    if slash and not any(map(int, den)):
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError as e:  # more digits than int() accepts
        raise ParseError(f"rational of {len(text)} characters: {e}") from e


def integer_form(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """The positive lcm s of the denominators (1 for a zero form) and s times the form: int entries, same span."""
    s = math.lcm(*(x.denominator for x in coeffs))
    return s, [x.numerator * (s // x.denominator) for x in coeffs]


class ComplexFormSpec(Value):
    """Coefficients of sum(z_coeffs[j] * z_j) + sum(zbar_coeffs[j] * conj(z_j))."""

    z: tuple[tuple[Fraction, Fraction], ...]
    zbar: tuple[tuple[Fraction, Fraction], ...]

    @property
    def support(self) -> tuple[int, int]:
        """Bitmasks of the coordinates j with a nonzero z_j and a nonzero conj(z_j) coefficient."""
        return tuple(sum(1 << j for j, c in enumerate(side) if any(c)) for side in (self.z, self.zbar))


def from_complex_form(spec: ComplexFormSpec) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Real and imaginary part of a complex/conjugate-linear equation.

    With f = sum (a_j + i b_j) z_j + (c_j + i d_j) conj(z_j) and
    z_j = x_j + i y_j:

        Re f = sum (a_j + c_j) x_j + (-b_j + d_j) y_j
        Im f = sum (b_j + d_j) x_j + ( a_j - c_j) y_j
    """
    if spec.support == (0, 0):
        raise ZeroForm("complex form has no nonzero coefficient")
    re_part: list[Fraction] = []
    im_part: list[Fraction] = []
    for (a, b), (c, dd) in zip(spec.z, spec.zbar):
        re_part += [a + c, -b + dd]
        im_part += [b + dd, a - c]
    return tuple(re_part), tuple(im_part)


class SubspacePair(Value):
    """A named codimension-2 subspace, cut out by an ordered pair of coefficient tuples."""

    name: str
    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]
    complex_spec: ComplexFormSpec | None = None


class Arrangement(Value):
    dim: int
    subspaces: tuple[SubspacePair, ...]

    @property
    def n(self) -> int:
        return len(self.subspaces)

    def pair(self, index: int) -> SubspacePair:
        """Subspace by 1-based index."""
        if not 1 <= index <= self.n:
            raise UnknownLabel(f"index {index} out of range 1..{self.n}")
        return self.subspaces[index - 1]

    # The caches below sit in the instance __dict__, outside the value
    # fields, so ==, hash and repr ignore them.

    @cached_property
    def _integer_forms(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Each subspace's two forms scaled to integer rows (`integer_form`), in index order."""
        return tuple((integer_form(s.first)[1], integer_form(s.second)[1]) for s in self.subspaces)

    @cached_property
    def _walk(self) -> tuple[dict[int, int], dict[int, int]]:
        """The closed sets' codims and covers (`linalg.closed_sets`); bit a-1 stands for subspace a."""
        return closed_sets(self._integer_forms)

    @cached_property
    def _circuits(self) -> tuple[tuple[int, ...], ...]:
        """The circuits, found once by `_scan_circuits`; `matroid.circuits` hands out copies."""
        return tuple(_scan_circuits(self))


class Violation(Value):
    kind: str  # pair-rank | not-essential | pairwise-rank | odd-rank
    subset: tuple[int, ...]
    detail: str


class ValidationReport(Value):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _mask(arr: Arrangement, subset: Iterable[int]) -> int:
    """`linalg.bitmask` of a caller's subset of 1-based indices, each checked first."""
    subset = tuple(subset)
    for a in subset:
        arr.pair(a)
    return bitmask(subset)


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _closure(arr: Arrangement, mask: int) -> int:
    """The bitmask of cl(S), S the subset `mask`: from cl(()), one cover per element not yet inside."""
    covers = arr._walk[1]
    f = covers[0]
    while rest := mask & ~f:
        f = covers[f | rest & -rest]
    return f


def codim(arr: Arrangement, subset: Iterable[int]) -> int:
    """Real codimension of the intersection over a subset: rank of its stacked forms.

    Order and repeats in the subset do not matter. The forms of a subset
    span what those of its closure span, so the answer is read off the
    closed set `_closure` reaches, and no subset is ranked on its own.
    """
    return arr._walk[0][_closure(arr, _mask(arr, subset))]


def validate(arr: Arrangement) -> ValidationReport:
    """Check the admissibility invariants; violations are data, not exceptions.

    Checks: every pair has rank 2, the whole arrangement is essential, every
    two subspaces are transversal (rank 4), and every intersection has even
    codimension. Evenness is checked on the cached closed sets only: a
    subset's forms span the same space as its closure's forms, so any
    odd-rank subset is witnessed by a closed one.
    """
    out: list[Violation] = []
    for a in range(1, arr.n + 1):
        r = codim(arr, (a,))
        if r != 2:
            out.append(Violation("pair-rank", (a,), f"subspace {a} has form rank {r}, expected 2"))
    if out:
        # rank bookkeeping below assumes honest codim-2 members
        return ValidationReport(tuple(out))
    total = codim(arr, range(1, arr.n + 1))
    if total != arr.dim:
        out.append(
            Violation(
                "not-essential",
                tuple(range(1, arr.n + 1)),
                f"all forms span rank {total}, expected {arr.dim}",
            )
        )
    for a in range(1, arr.n + 1):
        for b in range(a + 1, arr.n + 1):
            r = codim(arr, (a, b))
            if r != 4:
                out.append(
                    Violation("pairwise-rank", (a, b), f"subset {{{a},{b}}} has rank {r}, expected 4")
                )
    odd = [(_members(mask), r) for mask, r in arr._walk[0].items() if r % 2]
    for f, r in sorted(odd, key=lambda fr: (len(fr[0]), fr[0])):
        out.append(Violation("odd-rank", f, f"subset {set(f)} has rank {r} (odd)"))
    return ValidationReport(tuple(out))


def _admissible_walk(arr: Arrangement) -> tuple[dict[int, int], dict[int, int]]:
    """The walk (closed sets, covers); `NotAdmissible` on its first odd closed set, in walk order."""
    closed, covers = arr._walk
    for mask, c in closed.items():
        if c % 2:
            raise NotAdmissible(f"subset {set(_members(mask))} has odd codimension {c}")
    return closed, covers


def _scan_circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """The minimal dependent subsets, in lexicographic order, for `Arrangement._circuits`.

    Grows independent sets I depth first by each x > max I. If x is outside
    cl(I), I + x is independent; otherwise it is a circuit exactly when no
    cl(I - y), y in I, holds x (Oxley, Matroid Theory, ch. 1).
    """
    _, covers = _admissible_walk(arr)
    found: list[int] = []

    def grow(indep: int, closed: int, start: int) -> None:
        for x in range(start, arr.n):
            if not closed >> x & 1:
                grow(indep | 1 << x, covers[closed | 1 << x], x + 1)
            elif not any(_closure(arr, indep ^ 1 << y) >> x & 1 for y in range(x) if indep >> y & 1):
                found.append(indep | 1 << x)

    grow(0, covers[0], 0)
    return sorted(map(_members, found))


# --- document parsing -----------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    if unknown := set(obj) - allowed:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")


def _grid(rows, count: int, width: int, where: str, bad_rows: str, bad_row: str) -> tuple[tuple[Fraction, ...], ...]:
    """`count` lists of `width` rationals, each list checked before it is parsed; every error names `where`."""
    if not isinstance(rows, list) or len(rows) != count:
        raise ParseError(f"{where}: {bad_rows}")
    grid = []
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"{where}: {bad_row}")
        try:
            grid.append(tuple(map(parse_rational, row)))
        except ParseError as e:
            raise ParseError(f"{where}: {e}") from e
    return tuple(grid)


def _subspace(rec, dim: int, where: str) -> SubspacePair:
    """One subspace record in R^dim, checked field by field before its grids; every error names `where`."""
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: must be an object")
    _require_keys(rec, {"name", "forms", "complex"}, where)
    if not isinstance(rec.get("name"), str) or not rec["name"]:
        raise ParseError(f"{where}: missing or empty 'name'")
    if ("forms" in rec) == ("complex" in rec):
        raise ParseError(f"{where}: needs exactly one of 'forms' or 'complex'")
    if "forms" in rec:
        forms = _grid(rec["forms"], 2, dim, where, "'forms' must list exactly two forms",
                      f"each form needs {dim} coefficients")
        return SubspacePair(rec["name"], *forms)
    block, d = rec["complex"], dim // 2
    if not isinstance(block, dict):
        raise ParseError(f"{where}: complex block must be an object")
    _require_keys(block, {"z", "zbar"}, where)
    if "z" not in block or "zbar" not in block:
        raise ParseError(f"{where}: complex block needs both 'z' and 'zbar'")
    spec = ComplexFormSpec(*(
        _grid(block[k], d, 2, where, f"'{k}' must list {d} coefficient pairs", f"'{k}' entries must be [re, im] pairs")
        for k in ("z", "zbar")
    ))
    try:
        return SubspacePair(rec["name"], *from_complex_form(spec), spec)
    except ZeroForm as e:
        raise ParseError(f"{where}: {e}") from e


def arrangement_from_document(doc: dict) -> Arrangement:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _require_keys(doc, {"dim", "subspaces"}, "document")
    if "dim" not in doc or "subspaces" not in doc:
        raise ParseError("document needs 'dim' and 'subspaces'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim <= 0 or dim % 2 != 0:
        raise ParseError(f"'dim' must be a positive even integer, got {dim!r}")
    if not isinstance(doc["subspaces"], list) or not doc["subspaces"]:
        raise ParseError("'subspaces' must be a non-empty list")
    pairs: dict[str, SubspacePair] = {}
    for k, rec in enumerate(doc["subspaces"], 1):
        pair = _subspace(rec, dim, f"subspace #{k}")
        if pairs.setdefault(pair.name, pair) is not pair:
            raise ParseError(f"subspace #{k}: duplicate name {pair.name!r}")
    arr = Arrangement(dim, tuple(pairs.values()))
    report = validate(arr)
    if not report.ok:
        raise ValidationError(report)
    return arr


def parse_arrangement(text: str) -> Arrangement:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or a bare number with too many digits
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e
    return arrangement_from_document(doc)


def __getattr__(name: str):
    """`restrict`, which moved to `restriction` (PEP 562); only the `restrict` verb loads that module.

    The name stays resolvable here because bench/tracer.py wraps
    `twoarr.arrangement.restrict` by name; cutting the benchmark's ties into
    `src` (ROADMAP item 15) deletes this shim.
    """
    if name == "restrict":
        from .restriction import restrict

        return restrict
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
