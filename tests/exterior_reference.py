"""Exterior algebra on sorted index tuples: the oracle of the product tests.

The package multiplies on bitmasks only (`twoarr.exterior._product`). This
module keeps the textbook arithmetic on monomial tuples, each product's
sign the parity of the permutation that sorts the concatenated indices, so
the tests can check the bitmask product against code that shares nothing
with it. The element functions return `ExtElement`s, the package's value
type, which is all this module imports from the package.
"""

import itertools
from typing import Iterable, Mapping, Sequence

from twoarr.exterior import ExtElement

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


def from_terms(terms: Mapping[Monomial, int] | Iterable[tuple[Sequence[int], int]]) -> ExtElement:
    """The element sum c * e_mon, each mon sorted with its sign, terms in graded-lex order."""
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


def zero() -> ExtElement:
    return ExtElement(())


def monomial(indices: Sequence[int], coeff: int = 1) -> ExtElement:
    return from_terms([(tuple(indices), coeff)])


def coeff_vector(x: ExtElement, mons: Sequence[Monomial]) -> tuple[int, ...]:
    lookup = dict(x.terms)
    return tuple(lookup.get(m, 0) for m in mons)


def scale(x: ExtElement, k: int) -> ExtElement:
    if k == 0:
        return zero()
    return ExtElement(tuple((m, k * c) for m, c in x.terms))


def add(x: ExtElement, y: ExtElement) -> ExtElement:
    return from_terms(list(x.terms) + list(y.terms))


def wedge(x: ExtElement, y: ExtElement) -> ExtElement:
    acc: dict[Monomial, int] = {}
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            mon, sign = normalize(m1 + m2)
            if sign:
                acc[mon] = acc.get(mon, 0) + sign * c1 * c2
    return from_terms(acc)
