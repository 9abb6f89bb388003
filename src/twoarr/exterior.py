"""Integer exterior algebra on generators e_1 .. e_n.

Monomials are strictly increasing index tuples; an `ExtElement`, the value
relations and kappa bases come in, is an integer combination of them.
`_masked` turns elements into bitmask terms, and one product (`_product`)
multiplies two term lists into a sparse row over a column map. Ranks of
graded spans are taken over the rationals by sparse integer elimination
(`linalg.sparse_echelon`) on its rows. One pass, `ideal_slices`, builds
every graded slice of an ideal, each grown from the forward echelon basis
of the slice below: `ideal_ranks` reads its lengths, and kappa reduces its
degree-2 slice by `linalg.reduced_echelon`. `gram_rows` lays the
products of that basis side by side in one sparse row per element, which
kappa's rank reads as they are.
"""

import itertools
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value
from .linalg import SparseRow, bitmask, sparse_echelon

Monomial = tuple[int, ...]
Terms = list[tuple[int, int]]  # (bitmask, coefficient) pairs


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

    def __neg__(self) -> "ExtElement":
        return ExtElement(tuple((m, -c) for m, c in self.terms))

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


def _inversions(t: int, u: int) -> int:
    """The pairs (i in t, j in u) of bitmasks with i > j: t ^ u has sign (-1) to this power.

    They are the inversions of the concatenation t + u; each set bit of u
    counts the bits of t above it.
    """
    count = 0
    while u:
        low = u & -u
        count += (t >> low.bit_length()).bit_count()
        u ^= low
    return count


def _product(left: Terms, right: Terms, column: Mapping[int, int]) -> SparseRow:
    """left ^ right over columns `column[bitmask]`, both (bitmask, coefficient) term lists.

    A product of two terms that share a generator is zero, and one whose
    bitmask has no column is dropped; the others carry the sign of their
    `_inversions`. Entries may cancel to 0.
    """
    row: SparseRow = {}
    for t, c in left:
        for u, d in right:
            k = None if t & u else column.get(t | u)
            if k is not None:
                row[k] = row.get(k, 0) + (-c * d if _inversions(t, u) & 1 else c * d)
    return row


def _masked(elements: Sequence[ExtElement]) -> list[tuple[int, Terms]]:
    """Each element as (degree, [(bitmask, coefficient)]), the zero element at degree 0.

    The one conversion from `ExtElement` to the terms `_product` takes.
    Raises ValueError for an element that is not homogeneous.
    """
    out = []
    for x in elements:
        q = 0 if x.is_zero else x.degree
        if q is None:
            raise ValueError("elements must be homogeneous")
        out.append((q, [(bitmask(t), c) for t, c in x.terms]))
    return out


def _columns(n: int, p: int) -> dict[int, int]:
    """The index of each degree-p monomial, by bitmask, in lexicographic order."""
    return {bitmask(m): j for j, m in enumerate(monomials(n, p))}


def ideal_slices(generators: Sequence[ExtElement], n: int) -> Iterator[list[SparseRow]]:
    """Forward echelon basis of each graded slice of the ideal, from degree 0 up.

    The rows are over the degree-p monomials in lexicographic order
    (`monomials(n, p)`), each primitive with a positive pivot. Each slice
    grows from the one below: its rows are b ^ e_j for each echelon row b
    of I^(p-1) and each j, then the generators of degree p: rank(I^(p-1)) * n
    rows plus those generators at most, rather than one per generator and
    monomial of complementary degree. Each is built only when the
    elimination reads it. The pass stops after the first slice that is all
    of E^p, since E^p ^ E^1 = E^(p+1): every slice it does not yield is
    full. Raises ValueError for a generator that is not homogeneous.
    """
    generators = _masked(generators)
    units = [[(1 << i, 1)] for i in range(n)]  # e_1 .. e_n
    below: list[Terms] = []
    for p in range(n + 1):
        column = _columns(n, p)
        rows = itertools.chain(
            (_product(b, e, column) for b in below for e in units),
            (_product(g, [(0, 1)], column) for q, g in generators if q == p),
        )
        echelon = sparse_echelon(filter(None, rows), columns=len(column))
        yield echelon
        if len(echelon) == len(column):
            return
        masks = list(column)
        below = [[(masks[j], c) for j, c in row.items()] for row in echelon]


def _slice_ranks(slices: Iterable[list[SparseRow]], n: int) -> tuple[int, ...]:
    """Ranks of the degree 0..n slices from those a pass over n generators yields."""
    ranks = tuple(len(echelon) for echelon in slices)
    return ranks + tuple(comb(n, p) for p in range(len(ranks), n + 1))


def ideal_ranks(generators: Sequence[ExtElement], n: int) -> tuple[int, ...]:
    """Ranks of the degree 0..n slices of the ideal the generators span (`ideal_slices`)."""
    return _slice_ranks(ideal_slices(generators, n), n)


def gram_rows(basis: Sequence[ExtElement], n: int) -> list[SparseRow]:
    """Row i holds each product b_i ^ b_j, by `_product`, at columns j * C(n, 4) + k.

    k indexes the degree-4 monomials in lexicographic order, and
    `KappaForm.gram` reads the layout back; terms of other degrees are
    dropped. Homogeneous elements of degrees p and q commute up to the sign
    (-1)^(pq), so the product for each j >= i fills both rows. Raises
    ValueError for an element that is not homogeneous.
    """
    masked = _masked(basis)
    column = _columns(n, 4)
    rows: list[SparseRow] = [{} for _ in masked]
    for (i, (p, s)), (j, (q, t)) in itertools.combinations_with_replacement(enumerate(masked), 2):
        product = _product(s, t, column).items()
        sign = -1 if p * q % 2 else 1
        rows[i].update((j * len(column) + k, x) for k, x in product)
        rows[j].update((i * len(column) + k, sign * x) for k, x in product)
    return rows
