"""The graded slices of the relation ideal over the integers: the oracle of the integral claim.

The package ranks each slice over the rationals (`exterior.ideal_slices`).
Björner–Ziegler's theorem is about Z: E/I is free, with the NBC monomials
as a basis. An echelon Z-basis whose pivots are all ±1 spans a saturated
lattice, so if each slice's pivots are units, E^p/I^p has no torsion.

`integral_slices` grows each slice as `ideal_slices` does, from a Z-basis
of the slice below times each e_j, plus the relations of degree p, and
eliminates by unimodular row operations alone. Where a row meets a kept
row at its pivot column, the two are replaced by their extended-gcd
combination, a 2x2 change of determinant 1: no row is scaled, and the
rows span the same lattice throughout. Rows are `{monomial: int}` dicts
over sorted index tuples, multiplied by `exterior_reference.normalize`, so
the pass shares no code with the package's bitmask product.
"""

import itertools
from math import comb
from typing import Iterator, Sequence

from exterior_reference import Monomial, normalize
from twoarr.exterior import ExtElement

Row = dict[Monomial, int]


def _combine(a: int, r: Row, b: int, s: Row) -> Row:
    """a*r + b*s, without its zero entries."""
    out = {k: a * x for k, x in r.items() if a}
    for k, y in s.items():
        w = out.get(k, 0) + b * y
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) > 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a > 0 else (-a, -u0, -v0)


def _keep(r: Row, kept: dict[Monomial, Row]) -> None:
    """The forward step over Z: meet r with the kept row at r's smallest monomial until r
    is zero or has a new pivot, which is kept positive (a sign change is unimodular)."""
    while r:
        c = min(r)
        b = kept.get(c)
        if b is None:
            kept[c] = r if r[c] > 0 else {k: -x for k, x in r.items()}
            return
        if r[c] % b[c] == 0:  # b stays; r loses a multiple of it
            r = _combine(1, r, -(r[c] // b[c]), b)
            continue
        g, u, v = _xgcd(b[c], r[c])
        p, x = b[c] // g, r[c] // g  # [[u, v], [-x, p]] has determinant (u b[c] + v r[c]) / g = 1
        kept[c] = _combine(u, b, v, r)
        r = _combine(p, r, -x, b)


def _times(row: Row, j: int) -> Row:
    """row ^ e_j."""
    out = {}
    for mon, x in row.items():
        mon2, sign = normalize(mon + (j,))
        if sign:
            out[mon2] = sign * x
    return out


def integral_slices(generators: Sequence[ExtElement], n: int) -> Iterator[dict[Monomial, Row]]:
    """Each degree's slice of the ideal over Z as an echelon basis, pivot monomial -> row, from
    degree 0 up to the first slice that is all of E^p (every slice above it is full too)."""
    below: list[Row] = []
    for p in range(n + 1):
        kept: dict[Monomial, Row] = {}
        rows = itertools.chain(
            (_times(b, j) for b in below for j in range(1, n + 1)),
            (dict(g.terms) for g in generators if not g.is_zero and g.degree == p),
        )
        for row in rows:
            _keep(row, kept)
        yield kept
        if len(kept) == comb(n, p):
            return
        below = list(kept.values())
