"""Restriction onto one subspace, and the arrangement document writer.

Only the `restrict` verb loads this module: every other verb reads an
arrangement by index and never writes one, so neither the label lookup,
the restriction nor the serializer is compiled on its path.
"""

from fractions import Fraction

from ._jsontext import dumps
from .arrangement import Arrangement, DegenerateRestriction, LinearForm, SubspacePair, UnknownLabel, codim
from .linalg import reduced_echelon


def _index_of(arr: Arrangement, label: str | int) -> int:
    """1-based index from a label string or an index."""
    if isinstance(label, int):
        arr.pair(label)
        return label
    for i, s in enumerate(arr.subspaces, start=1):
        if s.name == label:
            return i
    raise UnknownLabel(f"no subspace named {label!r}")


def restrict(arr: Arrangement, at: str | int) -> Arrangement:
    """Arrangement induced on one subspace by intersecting all the others with it.

    The subspace is identified with R^(2d-2) through the kernel basis its
    two forms' rref gives, one vector per free column f: 1 at f, 0 at the
    other free columns and -row[f]/row[p] at the pivot p of each reduced
    echelon row. Every other pair of forms is composed with that inclusion,
    and keeps codimension 2 exactly when the pair and the subspace span
    codimension 4, which the walk answers. Orientations of restricted pairs
    are convention-dependent.
    """
    i = _index_of(arr, at)
    name = arr.pair(i).name
    if arr.n == 1:
        raise DegenerateRestriction(f"restricting to {name!r} leaves no subspace")
    if (r := codim(arr, (i,))) != 2:
        raise DegenerateRestriction(f"subspace {name!r} has form rank {r}, expected 2")
    echelon = reduced_echelon(dict(enumerate(f)) for f in arr._integer_forms[i - 1])
    pivots = {min(row): row for row in echelon}
    kernel = [(f, [(p, Fraction(row[f], row[p])) for p, row in pivots.items() if f in row])
              for f in range(arr.dim) if f not in pivots]

    def compose(form: LinearForm) -> LinearForm:
        c = form.coeffs
        return LinearForm(tuple(c[f] - sum((c[p] * x for p, x in v), Fraction(0)) for f, v in kernel))

    pairs: list[SubspacePair] = []
    for j, p in enumerate(arr.subspaces, start=1):
        if j == i:
            continue
        if codim(arr, (i, j)) != 4:
            raise DegenerateRestriction(
                f"subspace {p.name!r} loses codimension when restricted to {name!r}"
            )
        pairs.append(SubspacePair(p.name, compose(p.first), compose(p.second)))
    return Arrangement(arr.dim - 2, tuple(pairs))


def arrangement_to_document(arr: Arrangement) -> dict:
    subspaces = []
    for p in arr.subspaces:
        rec: dict = {"name": p.name}
        if p.complex_spec is not None:
            rec["complex"] = {
                "z": [[str(a), str(b)] for a, b in p.complex_spec.z],
                "zbar": [[str(a), str(b)] for a, b in p.complex_spec.zbar],
            }
        else:
            rec["forms"] = [
                [str(c) for c in p.first.coeffs],
                [str(c) for c in p.second.coeffs],
            ]
        subspaces.append(rec)
    return {"dim": arr.dim, "subspaces": subspaces}


def serialize_arrangement(arr: Arrangement) -> str:
    return dumps(arrangement_to_document(arr)) + "\n"
