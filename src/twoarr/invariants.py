"""Invariants that separate arrangements sharing an intersection lattice.

The kappa pairing multiplies two degree-2 relation-ideal elements into
degree 4; its rank is invariant under graded algebra isomorphism. For
arrangements in R^4 the degree-4 slice is one-dimensional, so kappa is an
honest symmetric bilinear form. Its Gram data comes from
`exterior.gram_of_basis`, which multiplies on bitmasks, and its rank from
`sparse_echelon` on the Gram rows without their zeros. Pairwise linking
signs of the great circles cut out on the unit 3-sphere are determinant
signs of the stacked integer forms, by Bareiss elimination (`det_sign`);
triple products of those signs do not depend on the member orientations at
all, and are read off one pairwise table.

`kappa` and `compare` import the presentation, exterior-algebra and
matroid modules when called, so the linking signs load none of them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

from ._value import Value
from .arrangement import Arrangement
from .linalg import det_sign, sparse_echelon

if TYPE_CHECKING:
    from .exterior import ExtElement
    from .presentation import Presentation

VERDICT_DISTINGUISHED = "DISTINGUISHED"
VERDICT_UNRESOLVED = "OTHERWISE_UNRESOLVED"


class DimensionNot4(ValueError):
    """Linking data is defined only for arrangements in R^4."""


GramVector = tuple[int, ...]


class KappaForm(Value):
    """Gram data of the multiplication pairing on the degree-2 relation slice.

    gram[i][j] is the coefficient vector of basis_i ^ basis_j over the
    degree-4 monomials. When n = 4 that slice is one-dimensional and
    `scalar_gram` exposes the integer matrix.
    """

    n: int
    basis: tuple[ExtElement, ...]
    gram: tuple[tuple[GramVector, ...], ...]

    @property
    def is_scalar(self) -> bool:
        return self.n == 4

    def scalar_gram(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_scalar:
            raise ValueError("scalar view exists only for n = 4")
        return tuple(tuple(v[0] for v in row) for row in self.gram)


def kappa(arr: Arrangement) -> KappaForm:
    """Kappa form of an arrangement, over the echelon basis of the degree-2 slice."""
    from .presentation import full_presentation

    return _kappa_of(full_presentation(arr))


def _kappa_of(pres: Presentation) -> KappaForm:
    from .exterior import degree_span_rank, gram_of_basis

    _, basis = degree_span_rank(pres.elements(), 2, pres.n)
    return KappaForm(pres.n, tuple(basis), gram_of_basis(basis, pres.n))


def kappa_rank(form: KappaForm) -> int:
    """Rank over the rationals of the flattened Gram data, as sparse rows."""
    rows = (
        {c: x for c, x in enumerate(itertools.chain.from_iterable(row)) if x}
        for row in form.gram
    )
    return len(sparse_echelon(rows))


def pairwise_linking(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Linking signs of the great circles: det sign of the four stacked forms.

    Symmetric n x n table of +-1 with an unused zero diagonal; ambient
    orientation is the coordinate order (x1, y1, ..., xd, yd).
    """
    if arr.dim != 4:
        raise DimensionNot4(f"dim is {arr.dim}")
    forms = arr._integer_forms  # positive row scales keep the determinant sign
    table = [[0] * arr.n for _ in range(arr.n)]
    for a, b in itertools.combinations(range(arr.n), 2):
        table[a][b] = table[b][a] = det_sign([*forms[a], *forms[b]])
    return tuple(tuple(row) for row in table)


def triple_coefficients(arr: Arrangement) -> dict[tuple[int, int, int], int]:
    """Orientation-independent +-1 per triple: product of its three pairwise signs."""
    return _triples(pairwise_linking(arr))


def _triples(lk: Sequence[Sequence[int]]) -> dict[tuple[int, int, int], int]:
    """`triple_coefficients` read off a `pairwise_linking` table."""
    if len(lk) < 3:
        raise ValueError("need at least three subspaces")
    return {
        (a, b, c): lk[a - 1][b - 1] * lk[a - 1][c - 1] * lk[b - 1][c - 1]
        for a, b, c in itertools.combinations(range(1, len(lk) + 1), 3)
    }


class ComparisonReport(Value):
    matroids_equal: bool
    betti: tuple[tuple[int, ...], tuple[int, ...]]
    ideal_ranks: tuple[tuple[int, ...], tuple[int, ...]]
    kappa_ranks: tuple[int, int]
    triple_multisets: tuple[tuple[int, ...], tuple[int, ...]] | None
    differing: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return VERDICT_DISTINGUISHED if self.differing else VERDICT_UNRESOLVED


def compare(
    a1: Arrangement, a2: Arrangement, *, permutation_search: bool = False
) -> ComparisonReport:
    """Compare every computed invariant of two arrangements.

    The verdict is DISTINGUISHED when any invariant differs, and
    OTHERWISE_UNRESOLVED when all agree; agreement of these invariants
    never establishes that the complements are equivalent.
    """
    from .matroid import SizeMismatch, betti_vector, same_labeled_matroid
    from .presentation import full_presentation, ideal_rank_profile

    if a1.n != a2.n:
        raise SizeMismatch(f"{a1.n} vs {a2.n} subspaces")
    differing: list[str] = []
    matroids_equal = same_labeled_matroid(a1, a2, up_to_relabeling=permutation_search)
    if not matroids_equal:
        differing.append("matroid")
    betti = (betti_vector(a1), betti_vector(a2))
    if betti[0] != betti[1]:
        differing.append("betti")
    presentations = (full_presentation(a1), full_presentation(a2))
    profiles = (ideal_rank_profile(presentations[0]), ideal_rank_profile(presentations[1]))
    if profiles[0] != profiles[1]:
        differing.append("ideal-ranks")
    kranks = (kappa_rank(_kappa_of(presentations[0])), kappa_rank(_kappa_of(presentations[1])))
    if kranks[0] != kranks[1]:
        differing.append("kappa-rank")
    triples = None
    if a1.dim == 4 and a2.dim == 4 and a1.n >= 3 and a2.n >= 3:
        triples = (
            tuple(sorted(triple_coefficients(a1).values())),
            tuple(sorted(triple_coefficients(a2).values())),
        )
        if triples[0] != triples[1]:
            differing.append("triple-multiset")
    return ComparisonReport(
        matroids_equal, betti, profiles, kranks, triples, tuple(differing)
    )
