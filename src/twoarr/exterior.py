"""Integer exterior algebra on generators e_1 .. e_n.

Monomials are strictly increasing index tuples; elements are integer
combinations of monomials. Ranks of graded spans are taken over the
rationals by sparse integer elimination (`linalg.sparse_echelon`) on rows
built from bitmask monomials. Only the echelon basis needs the
back-substitution pass; a rank alone comes from forward elimination.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from ._value import Value
from .linalg import SparseRow, sparse_echelon

Monomial = tuple[int, ...]


def normalize(indices: Sequence[int]) -> tuple[Monomial, int]:
    """Sort generator indices; return (monomial, sign of the sorting permutation).

    The sign is 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


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

    @staticmethod
    def generator(a: int) -> "ExtElement":
        return ExtElement.monomial((a,))

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

    def coefficient(self, mon: Sequence[int]) -> int:
        key = tuple(mon)
        for m, c in self.terms:
            if m == key:
                return c
        return 0

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

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

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


def _mask(mon: Monomial) -> int:
    """Bitmask of a monomial; bit i-1 stands for generator e_i."""
    out = 0
    for i in mon:
        out |= 1 << (i - 1)
    return out


def _slice_rows(
    generators: Sequence[ExtElement], p: int, n: int, column: Mapping[int, int]
) -> Iterable[SparseRow]:
    """The nonzero rows g ^ m over columns `column[bitmask]`, computed on bitmasks.

    A term t of g times m is zero when t and m share a generator; otherwise
    its sign is the parity of the pairs (i in t, j in m) with i > j, the
    inversions of the concatenation t + m.
    """
    for g in generators:
        if g.is_zero:
            continue
        q = g.degree
        if q is None:
            raise ValueError("generators must be homogeneous")
        if q > p:
            continue
        terms = [(_mask(t), c) for t, c in g.terms]
        for m in monomials(n, p - q):
            mm = _mask(m)
            row = {}
            for t, c in terms:
                if t & mm:
                    continue
                inversions = sum((t >> j).bit_count() for j in m)
                row[column[t | mm]] = -c if inversions & 1 else c
            if row:
                yield row


def degree_span_rank(
    generators: Sequence[ExtElement], p: int, n: int, basis: bool = True
) -> tuple[int, list[ExtElement]]:
    """Rank and echelon basis of the degree-p slice of the ideal the generators span.

    The slice is the span of g ^ m over all generators g and monomials m of
    complementary degree. The echelon basis is read off the reduced row
    echelon form over monomial columns in lexicographic order, each row
    scaled to a primitive integer vector with a positive leading coefficient.
    With `basis=False` only the rank is computed and the list is empty.
    """
    cols = monomials(n, p)
    column = {_mask(m): j for j, m in enumerate(cols)}
    echelon = sparse_echelon(_slice_rows(generators, p, n, column), reduced=basis)
    if not basis:
        return len(echelon), []
    return len(echelon), [
        ExtElement(tuple((cols[j], row[j]) for j in sorted(row))) for row in echelon
    ]
