"""Invariants that separate arrangements sharing an intersection lattice.

The kappa pairing multiplies two degree-2 relation-ideal elements into
degree 4; its rank is invariant under graded algebra isomorphism. For
n = 4 members the degree-4 slice is one-dimensional, since C(4, 4) = 1, so
kappa is an honest symmetric bilinear form. Its basis is the degree-2
slice, in reduced echelon form, of the graded ideal pass
(`exterior.ideal_slices`), read lazily to degree 2. Its rank is that of
`sparse_echelon` on the products of the basis, one sparse row per element
(`exterior.gram_rows`, which multiplies on bitmasks); no dense Gram vector
is built for it. That pass is `compare`'s only graded one: its ideal-ranks
row is C(n, p) - b_p from its Betti row, as E/I is free on the NBC
monomials (Björner–Ziegler), and `present` keeps the eliminated ranks.
Pairwise linking signs of the great circles cut out on the unit 3-sphere
are signs of the Plücker pairing: the determinant of two members' stacked
forms, expanded along their 2x2 minors, so no elimination runs. Triple
products of those signs do not depend on the member orientations at all,
and are read off one pairwise table.

`kappa` imports the presentation and exterior-algebra modules when
called, and `compare` the matroid module too, so the linking signs load
none of them and kappa loads no matroid module. The names are also looked
up at each call, so a test's `monkeypatch` of them takes effect after this
module has loaded: `test_invariants.py` patches `exterior.ideal_slices` to
count `compare`'s graded passes. Imported at module level, the name would
stay bound to the original, and the spy would see no call.
"""

import itertools
from collections.abc import Sequence
from functools import cached_property
from math import comb

from ._value import Value
from .arrangement import Arrangement
from .linalg import SparseRow, sparse_echelon

VERDICT_DISTINGUISHED = "DISTINGUISHED"
VERDICT_UNRESOLVED = "OTHERWISE_UNRESOLVED"


class DimensionNot4(ValueError):
    """Linking data is defined only for arrangements in R^4."""


class KappaForm(Value):
    """The multiplication pairing on the degree-2 relation slice, over its basis.

    Its Gram data, the products basis_i ^ basis_j in degree 4, is computed
    as sparse rows (`exterior.gram_rows`) when first read; `gram` is its
    dense view.
    """

    n: int
    basis: tuple["ExtElement", ...]

    @cached_property
    def _rows(self) -> list[SparseRow]:
        from .exterior import gram_rows

        return gram_rows(self.basis, self.n)

    def gram(self) -> tuple:
        """The dense Gram: basis_i ^ basis_j at (i, j), as its coefficient vector over
        the degree-4 monomials in lexicographic order, or its one integer when n = 4."""
        m, width = len(self.basis), comb(self.n, 4)
        zeros = (0,) * width
        vectors = [[tuple(map(row.get, range(j * width, j * width + width), zeros)) for j in range(m)]
                   for row in self._rows]
        return tuple(tuple(v[0] if self.n == 4 else v for v in row) for row in vectors)


def kappa(arr: Arrangement) -> KappaForm:
    """Kappa form of an arrangement, over the reduced echelon basis of the degree-2 slice.

    Only degrees 0..2 of the lazy pass are read, so it builds no more.
    A loop, a zero member, has the relation 1: the pass ends on the full
    degree-0 slice, and every degree-2 monomial is a basis element.
    """
    from .exterior import ExtElement, ideal_slices, monomials
    from .presentation import full_presentation

    pres = full_presentation(arr)
    cols = monomials(pres.n, 2)
    slices = list(itertools.islice(ideal_slices(pres.elements(), pres.n), 3))
    rows = slices[2] if len(slices) == 3 else [{j: 1} for j in range(len(cols))]
    basis = tuple(ExtElement(tuple((cols[j], row[j]) for j in sorted(row))) for row in rows)
    return KappaForm(pres.n, basis)


def kappa_rank(form: KappaForm) -> int:
    """Rank over the rationals of the flattened Gram data, as sparse rows."""
    return len(sparse_echelon(form._rows))


def pairwise_linking(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Linking signs of the great circles: det sign of the four stacked forms.

    Symmetric n x n table of +-1 with an unused zero diagonal; ambient
    orientation is the coordinate order (x1, y1, ..., xd, yd). det[A; B] is
    expanded along A's rows (Laplace): a pairing of the members' 2x2 minors,
    their Plücker coordinates over the column pairs in lexicographic order.
    """
    if arr.dim != 4:
        raise DimensionNot4(f"linking signs need an arrangement in R^4, got R^{arr.dim}")
    pairs = list(itertools.combinations(range(4), 2))
    # positive row scales keep the determinant sign
    minors = [[f[i] * g[j] - f[j] * g[i] for i, j in pairs] for f, g in arr._integer_forms]
    table = [[0] * arr.n for _ in range(arr.n)]
    for a, b in itertools.combinations(range(arr.n), 2):
        p, q = minors[a], minors[b]
        det = p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
        table[a][b] = table[b][a] = (det > 0) - (det < 0)
    return tuple(tuple(row) for row in table)


def triple_coefficients(arr: Arrangement) -> dict[tuple[int, int, int], int]:
    """Orientation-independent +-1 per triple: product of its three pairwise signs."""
    return _triples(pairwise_linking(arr))


def _triples(lk: Sequence[Sequence[int]]) -> dict[tuple[int, int, int], int]:
    """`triple_coefficients` read off a `pairwise_linking` table; none below three members."""
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
    never establishes that the complements are equivalent. The ideal-ranks
    row is C(n, p) - b_p for p = 1..n, from the Betti row, since E/I is free
    on the NBC monomials (Björner–Ziegler); `present` keeps the eliminated
    ranks. `differing` names the rows whose two values differ, in report
    order; the CLI marks DIFFER from it alone. Arrangements of different
    sizes raise `matroid.SizeMismatch`, from `same_labeled_matroid`.
    """
    from .matroid import betti_vector, same_labeled_matroid

    matroids_equal = same_labeled_matroid(a1, a2, up_to_relabeling=permutation_search)
    betti = (betti_vector(a1), betti_vector(a2))
    # the report's rows in order, each a pair or None; `differing` is read off them
    rows = {
        "betti": betti,
        "ideal-ranks": tuple(
            tuple(comb(a.n, p) - (b[p] if p < len(b) else 0) for p in range(1, a.n + 1))
            for a, b in zip((a1, a2), betti)
        ),
        "kappa-rank": (kappa_rank(kappa(a1)), kappa_rank(kappa(a2))),
        "triple-multiset": None,
    }
    if a1.dim == 4 and a2.dim == 4:
        rows["triple-multiset"] = tuple(
            tuple(sorted(triple_coefficients(a).values())) for a in (a1, a2)
        )
    differing = ("matroid",) * (not matroids_equal) + tuple(
        key for key, pair in rows.items() if pair is not None and pair[0] != pair[1]
    )
    return ComparisonReport(matroids_equal, *rows.values(), differing)
