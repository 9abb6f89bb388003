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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import Matrix, Vector, dot, integer_rank, integer_row, kernel_basis, rank, vec


class ParseError(ValueError):
    """Malformed arrangement document."""


class ZeroForm(ValueError):
    """A complex form specification with no nonzero coefficient."""


class UnknownLabel(KeyError):
    """Subspace label or index not present in the arrangement."""


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
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class LinearForm:
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


@dataclass(frozen=True)
class ComplexFormSpec:
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


@dataclass(frozen=True)
class SubspacePair:
    """A named codimension-2 subspace, cut out by an ordered form pair."""

    name: str
    first: LinearForm
    second: LinearForm
    complex_spec: ComplexFormSpec | None = None


@dataclass(frozen=True)
class Arrangement:
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

    def forms_matrix(self, subset: Iterable[int] | None = None) -> Matrix:
        """Stack of the form vectors of a subset (1-based indices), in index order."""
        indices = sorted(set(subset)) if subset is not None else list(range(1, self.n + 1))
        rows: list[Vector] = []
        for a in indices:
            p = self.pair(a)
            rows += [p.first.coeffs, p.second.coeffs]
        return Matrix.from_rows(rows, self.dim)

    # The two caches below sit in the instance __dict__, outside the
    # dataclass fields, so ==, hash and repr ignore them.

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

    @property
    def is_holomorphic_input(self) -> bool:
        """True when every subspace came from a z-linear complex block."""
        return all(
            s.complex_spec is not None and s.complex_spec.is_holomorphic
            for s in self.subspaces
        )


@dataclass(frozen=True)
class Violation:
    kind: str  # pair-rank | not-essential | pairwise-rank | odd-rank
    subset: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def codim(arr: Arrangement, subset: Iterable[int]) -> int:
    """Real codimension of the intersection over a subset: rank of its stacked forms.

    Order and repeats in the subset do not matter. Results are cached on the
    arrangement, keyed by the subset, and computed by integer elimination
    over the forms scaled to integers.
    """
    mask = 0
    for a in subset:
        arr.pair(a)
        mask |= 1 << (a - 1)
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


def _span_closure(arr: Arrangement, subset: tuple[int, ...]) -> tuple[int, ...]:
    base = codim(arr, subset)
    out = []
    for b in range(1, arr.n + 1):
        if b in subset or codim(arr, subset + (b,)) == base:
            out.append(b)
    return tuple(out)


def _closed_sets(arr: Arrangement) -> list[tuple[int, ...]]:
    # breadth-first closure; works whether or not the arrangement is admissible
    first = _span_closure(arr, ())
    seen = {first}
    frontier = [first]
    while frontier:
        nxt = []
        for f in frontier:
            for a in range(1, arr.n + 1):
                if a in f:
                    continue
                g = _span_closure(arr, tuple(sorted(f + (a,))))
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def validate(arr: Arrangement) -> ValidationReport:
    """Check the admissibility invariants; violations are data, not exceptions.

    Checks: every pair has rank 2, the whole arrangement is essential, every
    two subspaces are transversal (rank 4), and every intersection has even
    codimension. Evenness is checked on closed sets only: a subset's forms
    span the same space as its closure's forms, so any odd-rank subset is
    witnessed by a closed one.
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
    for f in _closed_sets(arr):
        r = codim(arr, f)
        if r % 2 != 0:
            out.append(Violation("odd-rank", f, f"subset {set(f)} has rank {r} (odd)"))
    return ValidationReport(tuple(out))


def restrict(arr: Arrangement, at: str | int) -> Arrangement:
    """Arrangement induced on one subspace by intersecting all the others with it.

    The subspace is identified with R^(2d-2) through the deterministic kernel
    basis of its two forms; every other pair of forms is composed with that
    inclusion. Orientations of restricted pairs are convention-dependent.
    """
    i = arr.index_of(at)
    basis = kernel_basis(arr.forms_matrix((i,)))
    pairs: list[SubspacePair] = []
    for j in range(1, arr.n + 1):
        if j == i:
            continue
        p = arr.pair(j)
        first = p.first.restrict_to(basis)
        second = p.second.restrict_to(basis)
        if rank(Matrix.from_rows([first.coeffs, second.coeffs])) != 2:
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
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
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
