"""Integer exterior algebra on generators e_1 .. e_n.

Monomials are strictly increasing index tuples; an `ExtElement`, the value
a relation's element and kappa bases come in, is an integer combination of
them with no arithmetic of its own. `_masked` turns elements into bitmask
terms, and one product (`_product`) multiplies two term lists into a
sparse row over a column map. One pass, `ideal_slices`, builds every
graded slice of an ideal as its reduced echelon basis over the rationals
(`linalg.reduced_echelon`), each grown from the basis of the slice below
and fed its unit-lead rows first, so that on a relation ideal every step
is a unit step over Z: `ideal_ranks` reads their lengths, and kappa reads
the degree-2 basis as it is. `gram_rows` lays the products of that basis
side by side in one sparse row per element, which kappa's rank reads as
they are.
"""

import itertools
from collections.abc import Iterator, Mapping, Sequence
from math import comb

from ._value import Value
from .linalg import SparseRow, bitmask, reduced_echelon

Monomial = tuple[int, ...]
Terms = list[tuple[int, int]]  # (bitmask, coefficient) pairs


def monomials(n: int, p: int) -> tuple[Monomial, ...]:
    """All degree-p monomials over generators 1..n, in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), p))


def _mon_str(mon: Monomial) -> str:
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
    """Reduced echelon basis of each graded slice of the ideal, from degree 0 up.

    The rows are over the degree-p monomials in lexicographic order
    (`monomials(n, p)`), each primitive, positive at its pivot and zero in
    every other pivot column. Each slice grows from the one below: its rows
    are b ^ e_j for each basis row b of I^(p-1) and each j, and the
    generators of degree p: rank(I^(p-1)) * n rows plus those generators at
    most, rather than one per generator and monomial of complementary
    degree. Each is built only when the elimination reads it. The pass
    stops after the first slice that is all of E^p, since E^p ^ E^1 =
    E^(p+1): every slice it does not yield is full. Raises ValueError for a
    generator that is not homogeneous.

    The rows come in broken-circuit order: first, for each monomial some
    row leads at with coefficient ±1, one such row; then the rest. A
    generator leads at its least monomial, and b ^ e_j, j outside b's
    pivot, at pivot + j with b's pivot coefficient: a disjoint factor keeps
    the order of monomials. Each relation r_C leads at C - max C with ±1,
    so on a relation ideal these are all the pivots, and no step scales or
    divides a row: each basis spans a saturated lattice, and E/I is free
    over Z (Björner–Ziegler). No order changes a reduced echelon form.
    If the unit-lead rows, independent, lead at every monomial, the slice
    is all of E^p, and its basis the identity: nothing is eliminated.
    """
    generators = _masked(generators)
    units = [1 << i for i in range(n)]
    below: list[tuple[int | None, Terms]] = []  # the basis of I^(p-1), each row with its pivot's bitmask if that is 1
    for p in range(n + 1):
        column = _columns(n, p)

        def factors():  # each row's two factors, and the bitmask it leads at with ±1, if it does
            for lead, b in below:
                yield from ((b, u, None if lead is None or lead & u else lead | u) for u in units)
            for q, g in generators:
                if q == p and g:
                    mask, c = min(g, key=lambda t: column[t[0]])
                    yield g, 0, mask if abs(c) == 1 else None

        # the first factor at each unit lead adds the lead, and in the second pass removes it
        leads: set[int] = set()
        unit = [f for f in factors() if f[2] is not None and not (f[2] in leads or leads.add(f[2]))]
        if len(unit) == len(column):
            yield [{j: 1} for j in range(len(column))]
            return
        rest = (f for f in factors() if f[2] not in leads or leads.remove(f[2]))
        rows = (_product(left, [(u, 1)], column) for left, u, _ in itertools.chain(unit, rest))
        echelon = reduced_echelon(filter(None, rows))
        yield echelon
        if len(echelon) == len(column):
            return
        masks = list(column)
        below = [(masks[min(r)] if r[min(r)] == 1 else None, [(masks[j], c) for j, c in r.items()]) for r in echelon]


def ideal_ranks(generators: Sequence[ExtElement], n: int) -> tuple[int, ...]:
    """Ranks of the degree 0..n slices of the ideal the generators span (`ideal_slices`)."""
    ranks = tuple(len(echelon) for echelon in ideal_slices(generators, n))
    return ranks + tuple(comb(n, p) for p in range(len(ranks), n + 1))


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
