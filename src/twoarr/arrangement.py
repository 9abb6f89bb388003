"""Arrangement input model.

An arrangement is an ordered list of named codimension-2 subspaces of
R^(2d); each subspace is cut out by an ordered pair of real linear forms.
Real coordinates are ordered (x1, y1, ..., xd, yd), and with
z_j = x_j + i*y_j a complex or conjugate-linear equation converts into the
ordered pair (real part, imaginary part). The pair order is what fixes the
orientation data every sign downstream depends on.

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
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from ._value import Value
from .linalg import Vector, closed_sets, dot, integer_rank, integer_row, sparse_echelon, vec


class ParseError(ValueError):
    """Malformed arrangement document."""


class ZeroForm(ValueError):
    """A complex form specification with no nonzero coefficient."""


class UnknownLabel(KeyError):
    """Subspace label or index not present in the arrangement."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


class DegenerateRestriction(ValueError):
    """Restriction dropped some subspace below codimension 2."""


class ValidationError(ValueError):
    """Arrangement violates an admissibility invariant; carries the report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(v.detail for v in report.violations))
        self.report = report


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"malformed rational {text!r}")
    if "/" in text and text.split("/")[1].lstrip("0") == "":
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return Fraction(text)
    except ValueError as e:  # more digits than int() accepts
        raise ParseError(f"rational of {len(text)} characters: {e}") from e


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class LinearForm(Value):
    """A real linear form given by its coefficient vector."""

    coeffs: Vector

    @staticmethod
    def of(entries: Iterable) -> "LinearForm":
        return LinearForm(vec(entries))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def restrict_to(self, basis: Sequence[Vector]) -> "LinearForm":
        """Compose with the inclusion of the subspace the basis spans."""
        return LinearForm(tuple(dot(self.coeffs, b) for b in basis))


class ComplexFormSpec(Value):
    """Coefficients of sum(z_coeffs[j] * z_j) + sum(zbar_coeffs[j] * conj(z_j))."""

    z: tuple[tuple[Fraction, Fraction], ...]
    zbar: tuple[tuple[Fraction, Fraction], ...]

    @property
    def d(self) -> int:
        return len(self.z)

    @property
    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.z + self.zbar)

    @property
    def is_holomorphic(self) -> bool:
        """True when no conjugate variable appears."""
        return all(a == 0 and b == 0 for a, b in self.zbar)


def from_complex_form(spec: ComplexFormSpec, d: int | None = None) -> tuple[LinearForm, LinearForm]:
    """Real and imaginary part of a complex/conjugate-linear equation.

    With f = sum (a_j + i b_j) z_j + (c_j + i d_j) conj(z_j) and
    z_j = x_j + i y_j:

        Re f = sum (a_j + c_j) x_j + (-b_j + d_j) y_j
        Im f = sum (b_j + d_j) x_j + ( a_j - c_j) y_j
    """
    if d is not None and spec.d != d:
        raise ParseError(f"expected {d} complex coefficients, got {spec.d}")
    if spec.is_zero:
        raise ZeroForm("complex form has no nonzero coefficient")
    re_part: list[Fraction] = []
    im_part: list[Fraction] = []
    for (a, b), (c, dd) in zip(spec.z, spec.zbar):
        re_part += [a + c, -b + dd]
        im_part += [b + dd, a - c]
    return LinearForm(tuple(re_part)), LinearForm(tuple(im_part))


class SubspacePair(Value):
    """A named codimension-2 subspace, cut out by an ordered form pair."""

    name: str
    first: LinearForm
    second: LinearForm
    complex_spec: ComplexFormSpec | None = None


class Arrangement(Value):
    dim: int
    subspaces: tuple[SubspacePair, ...]

    @property
    def n(self) -> int:
        return len(self.subspaces)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subspaces)

    def pair(self, index: int) -> SubspacePair:
        """Subspace by 1-based index."""
        if not 1 <= index <= self.n:
            raise UnknownLabel(f"index {index} out of range 1..{self.n}")
        return self.subspaces[index - 1]

    def index_of(self, label: str | int) -> int:
        """1-based index from a label string or an index."""
        if isinstance(label, int):
            self.pair(label)
            return label
        for i, s in enumerate(self.subspaces, start=1):
            if s.name == label:
                return i
        raise UnknownLabel(f"no subspace named {label!r}")

    # The caches below sit in the instance __dict__, outside the value
    # fields, so ==, hash and repr ignore them.

    @cached_property
    def _integer_forms(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Each subspace's two forms scaled to integer rows, in index order."""
        return tuple(
            (integer_row(s.first.coeffs), integer_row(s.second.coeffs))
            for s in self.subspaces
        )

    @cached_property
    def _codim_cache(self) -> dict[int, int]:
        """codim by subset bitmask; bit a-1 stands for subspace a."""
        return {}

    @cached_property
    def _closed_sets(self) -> dict[int, int]:
        """codim of every closed set, by bitmask (as `_codim_cache`), found in one walk."""
        return closed_sets(self._integer_forms)

    @cached_property
    def _circuits(self) -> tuple[tuple[int, ...], ...]:
        """The circuits, found once; `matroid.circuits` hands out copies."""
        from .matroid import _scan_circuits

        return tuple(_scan_circuits(self))

    @property
    def is_holomorphic_input(self) -> bool:
        """True when every subspace came from a z-linear complex block."""
        return all(
            s.complex_spec is not None and s.complex_spec.is_holomorphic
            for s in self.subspaces
        )


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
    """Bitmask of a subset of 1-based indices, each checked; bit a-1 stands for subspace a."""
    mask = 0
    for a in subset:
        arr.pair(a)
        mask |= 1 << (a - 1)
    return mask


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def codim(arr: Arrangement, subset: Iterable[int]) -> int:
    """Real codimension of the intersection over a subset: rank of its stacked forms.

    Order and repeats in the subset do not matter. Results are cached on the
    arrangement, keyed by the subset, and computed by integer elimination
    over the forms scaled to integers.
    """
    mask = _mask(arr, subset)
    cache = arr._codim_cache
    r = cache.get(mask)
    if r is None:
        r = cache[mask] = integer_rank(
            row
            for i, rows in enumerate(arr._integer_forms)
            if mask >> i & 1
            for row in rows
        )
    return r


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
    odd = [(_members(mask), r) for mask, r in arr._closed_sets.items() if r % 2]
    for f, r in sorted(odd, key=lambda fr: (len(fr[0]), fr[0])):
        out.append(Violation("odd-rank", f, f"subset {set(f)} has rank {r} (odd)"))
    return ValidationReport(tuple(out))


def _kernel_basis(rows: Sequence[Sequence[int]], cols: int) -> list[Vector]:
    """Basis of the right null space of integer rows, one vector per free column.

    The vector of free column f has v[f] = 1, zero at the other free
    columns, and v[p] = -row[f] / row[p] for each row of the reduced
    echelon form pivoted at p: the entries of the classical rref, since
    that form is unique and `sparse_echelon` only scales its rows.
    """
    echelon = sparse_echelon((dict(enumerate(r)) for r in rows), reduced=True, columns=cols)
    pivots = {min(row): row for row in echelon}
    basis: list[Vector] = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for p, row in pivots.items():
            v[p] = -Fraction(row.get(f, 0), row[p])
        basis.append(tuple(v))
    return basis


def restrict(arr: Arrangement, at: str | int) -> Arrangement:
    """Arrangement induced on one subspace by intersecting all the others with it.

    The subspace is identified with R^(2d-2) through the deterministic kernel
    basis of its two forms; every other pair of forms is composed with that
    inclusion. Orientations of restricted pairs are convention-dependent.
    """
    i = arr.index_of(at)
    basis = _kernel_basis(arr._integer_forms[i - 1], arr.dim)
    pairs: list[SubspacePair] = []
    for j, p in enumerate(arr.subspaces, start=1):
        if j == i:
            continue
        first = p.first.restrict_to(basis)
        second = p.second.restrict_to(basis)
        if integer_rank((integer_row(first.coeffs), integer_row(second.coeffs))) != 2:
            raise DegenerateRestriction(
                f"subspace {p.name!r} loses codimension when restricted to {arr.pair(i).name!r}"
            )
        pairs.append(SubspacePair(p.name, first, second))
    return Arrangement(arr.dim - 2, tuple(pairs))


# --- document parsing and serialization ---------------------------------


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)} in {where}")


def _parse_complex_block(obj: dict, d: int, where: str) -> ComplexFormSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: complex block must be an object")
    _require_keys(obj, {"z", "zbar"}, where)
    if "z" not in obj or "zbar" not in obj:
        raise ParseError(f"{where}: complex block needs both 'z' and 'zbar'")

    def coeffs(key: str) -> tuple[tuple[Fraction, Fraction], ...]:
        entries = obj[key]
        if not isinstance(entries, list) or len(entries) != d:
            raise ParseError(f"{where}: '{key}' must list {d} coefficient pairs")
        out = []
        for pair in entries:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{where}: '{key}' entries must be [re, im] pairs")
            out.append((parse_rational(pair[0]), parse_rational(pair[1])))
        return tuple(out)

    return ComplexFormSpec(coeffs("z"), coeffs("zbar"))


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
    d = dim // 2
    pairs: list[SubspacePair] = []
    for k, rec in enumerate(doc["subspaces"]):
        where = f"subspace #{k + 1}"
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: must be an object")
        _require_keys(rec, {"name", "forms", "complex"}, where)
        if "name" not in rec or not isinstance(rec["name"], str) or not rec["name"]:
            raise ParseError(f"{where}: missing or empty 'name'")
        name = rec["name"]
        if ("forms" in rec) == ("complex" in rec):
            raise ParseError(f"{where}: needs exactly one of 'forms' or 'complex'")
        if "forms" in rec:
            forms = rec["forms"]
            if not isinstance(forms, list) or len(forms) != 2:
                raise ParseError(f"{where}: 'forms' must list exactly two forms")
            coeff_rows = []
            for form in forms:
                if not isinstance(form, list) or len(form) != dim:
                    raise ParseError(f"{where}: each form needs {dim} coefficients")
                coeff_rows.append(tuple(parse_rational(c) for c in form))
            pairs.append(SubspacePair(name, LinearForm(coeff_rows[0]), LinearForm(coeff_rows[1])))
        else:
            spec = _parse_complex_block(rec["complex"], d, where)
            try:
                first, second = from_complex_form(spec, d)
            except ZeroForm as e:
                raise ParseError(f"{where}: {e}") from e
            pairs.append(SubspacePair(name, first, second, spec))
    names = [p.name for p in pairs]
    if len(set(names)) != len(names):
        raise ParseError("duplicate subspace names")
    arr = Arrangement(dim, tuple(pairs))
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


def arrangement_to_document(arr: Arrangement) -> dict:
    subspaces = []
    for p in arr.subspaces:
        rec: dict = {"name": p.name}
        if p.complex_spec is not None:
            rec["complex"] = {
                "z": [[format_rational(a), format_rational(b)] for a, b in p.complex_spec.z],
                "zbar": [[format_rational(a), format_rational(b)] for a, b in p.complex_spec.zbar],
            }
        else:
            rec["forms"] = [
                [format_rational(c) for c in p.first.coeffs],
                [format_rational(c) for c in p.second.coeffs],
            ]
        subspaces.append(rec)
    return {"dim": arr.dim, "subspaces": subspaces}


def serialize_arrangement(arr: Arrangement) -> str:
    return json.dumps(arrangement_to_document(arr), indent=2) + "\n"
