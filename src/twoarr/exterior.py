"""Integer exterior algebra on generators e_1 .. e_n.

Monomials are strictly increasing index tuples; elements are integer
combinations of monomials. Ranks of graded spans are taken over the
rationals by sparse integer elimination (`linalg.sparse_echelon`) on rows
built from bitmask monomials. One pass, `ideal_slices`, builds every
graded slice of an ideal, each grown from the forward echelon basis of the
slice below: `ideal_ranks` reads its lengths, and kappa reduces its
degree-2 slice to the unique reduced echelon basis. `gram_of_basis`
multiplies elements on bitmasks; `ExtElement.wedge` is on neither path.
"""

import itertools
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value
from .linalg import SparseRow, bitmask, sparse_echelon

Monomial = tuple[int, ...]


def normalize(indices: Sequence[int]) -> tuple[Monomial, int]:
    """Sort generator indices; return (monomial, sign of the sorting permutation).

    The sign is 0 when an index repeats.
    """
    idx = tuple(sorted(indices))
    if len(set(idx)) < len(idx):
        return idx, 0
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return idx, -1 if inversions & 1 else 1


def monomials(n: int, p: int) -> tuple[Monomial, ...]:
    """All degree-p monomials over generators 1..n, in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), p))


def _mon_str(mon: Monomial) -> str:
    if not mon:
        return "1"
    if mon[-1] <= 9:
        return "e" + "".join(str(i) for i in mon)
    return "e(" + ",".join(str(i) for i in mon) + ")"


class ExtElement(Value):
    """An integer combination of wedge monomials, terms in graded-lex order."""

    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def from_terms(
        terms: Mapping[Monomial, int] | Iterable[tuple[Sequence[int], int]],
    ) -> "ExtElement":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, int] = {}
        for mon, coeff in items:
            mon2, sign = normalize(tuple(mon))
            if sign == 0 or coeff == 0:
                continue
            acc[mon2] = acc.get(mon2, 0) + sign * coeff
        kept = [(m, c) for m, c in acc.items() if c]
        kept.sort(key=lambda t: (len(t[0]), t[0]))
        return ExtElement(tuple(kept))

    @staticmethod
    def zero() -> "ExtElement":
        return ExtElement(())

    @staticmethod
    def monomial(indices: Sequence[int], coeff: int = 1) -> "ExtElement":
        return ExtElement.from_terms([(tuple(indices), coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Common degree of all terms; None for the zero or a mixed element."""
        degs = {len(m) for m, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def coeff_vector(self, mons: Sequence[Monomial]) -> tuple[int, ...]:
        lookup = dict(self.terms)
        return tuple(lookup.get(m, 0) for m in mons)

    def scale(self, k: int) -> "ExtElement":
        if k == 0:
            return ExtElement.zero()
        return ExtElement(tuple((m, k * c) for m, c in self.terms))

    def __neg__(self) -> "ExtElement":
        return self.scale(-1)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement.from_terms(list(self.terms) + list(other.terms))

    def wedge(self, other: "ExtElement") -> "ExtElement":
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mon, sign = normalize(m1 + m2)
                if sign:
                    acc[mon] = acc.get(mon, 0) + sign * c1 * c2
        return ExtElement.from_terms(acc)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            body = _mon_str(m) if mag == 1 and m else f"{mag}{_mon_str(m)}" if m else str(mag)
            parts.append(f"{sign}{body}")
        return " ".join(parts)


def _inversions(t: int, m: Monomial) -> int:
    """The pairs (i in t, j in m) with i > j: t ^ m has sign (-1) to this power.

    They are the inversions of the concatenation t + m; `t` is a bitmask.
    """
    return sum((t >> j).bit_count() for j in m)


def _masked(generators: Sequence[ExtElement]) -> list[tuple[int, list[tuple[int, int]]]]:
    """The nonzero generators as (degree, [(bitmask, coefficient)]).

    Raises ValueError for a generator that is not homogeneous.
    """
    out = []
    for g in generators:
        if g.is_zero:
            continue
        q = g.degree
        if q is None:
            raise ValueError("generators must be homogeneous")
        out.append((q, [(bitmask(t), c) for t, c in g.terms]))
    return out


def _slice_rows(
    generators: Sequence[tuple[int, list[tuple[int, int]]]],
    p: int,
    n: int,
    column: Mapping[int, int],
) -> Iterable[SparseRow]:
    """The nonzero rows g ^ m over columns `column[bitmask]`, computed on bitmasks.

    `generators` come as `_masked` gives them; those above degree p add no
    row. A term t of g times m is zero when t and m share a generator, and
    otherwise has the sign of `_inversions(t, m)`.
    """
    cofactors: dict[int, list[tuple[int, Monomial]]] = {}
    for q, terms in generators:
        if q > p:
            continue
        if q not in cofactors:
            cofactors[q] = [(bitmask(m), m) for m in monomials(n, p - q)]
        for mm, m in cofactors[q]:
            row = {}
            for t, c in terms:
                if not t & mm:
                    row[column[t | mm]] = -c if _inversions(t, m) & 1 else c
            if row:
                yield row


def _columns(n: int, p: int) -> tuple[tuple[Monomial, ...], dict[int, int]]:
    """The degree-p monomials in lexicographic order, and each one's index by bitmask."""
    cols = monomials(n, p)
    return cols, {bitmask(m): j for j, m in enumerate(cols)}


def ideal_slices(generators: Sequence[ExtElement], n: int) -> Iterator[list[SparseRow]]:
    """Forward echelon basis of each graded slice of the ideal, from degree 0 up.

    The rows are over the degree-p monomials in lexicographic order
    (`monomials(n, p)`), each primitive with a positive pivot. Each slice
    grows from the one below: I^p is spanned by b ^ e_j over the echelon
    basis b of I^(p-1) and the generators of degree p, which is
    rank(I^(p-1)) * n rows at most rather than one per generator and
    monomial of complementary degree. The pass stops after the first slice
    that is all of E^p, since E^p ^ E^1 = E^(p+1): every slice it does not
    yield is full. Raises ValueError for a generator that is not homogeneous.
    """
    generators = _masked(generators)
    below: list[tuple[int, list[tuple[int, int]]]] = []
    for p in range(n + 1):
        cols, column = _columns(n, p)
        rows = _slice_rows(below + [g for g in generators if g[0] == p], p, n, column)
        echelon = sparse_echelon(rows, columns=len(cols))
        yield echelon
        if len(echelon) == len(cols):
            return
        masks = list(column)
        below = [(p, [(masks[j], c) for j, c in row.items()]) for row in echelon]


def ideal_ranks(generators: Sequence[ExtElement], n: int) -> tuple[int, ...]:
    """Ranks of the degree 0..n slices of the ideal the generators span (`ideal_slices`)."""
    ranks = tuple(len(echelon) for echelon in ideal_slices(generators, n))
    return ranks + tuple(comb(n, p) for p in range(len(ranks), n + 1))


def gram_of_basis(basis: Sequence[ExtElement], n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coefficient vectors over the degree-4 monomials of each product b_i ^ b_j.

    The products are taken on bitmasks, each term's sign the parity of its
    `_inversions`; terms of other degrees are dropped.
    """
    cols, column = _columns(n, 4)
    masked = [[(bitmask(t), t, c) for t, c in b.terms] for b in basis]
    gram = []
    for left in masked:
        row = []
        for right in masked:
            v = [0] * len(cols)
            for t, _, c in left:
                for u, um, d in right:
                    k = None if t & u else column.get(t | u)
                    if k is not None:
                        v[k] += -c * d if _inversions(t, um) & 1 else c * d
            row.append(tuple(v))
        gram.append(tuple(row))
    return tuple(gram)
