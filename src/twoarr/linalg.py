"""Exact linear algebra over the rationals.

Nothing is ever rounded. The hot work runs on Python ints, fraction-free,
after scaling each rational row by the positive lcm of its denominators
(`integer_row`), which leaves rank, row span and determinant sign as they
were:

- `integer_rank` counts the rank of short dense rows; the arrangement rank
  oracle and `restrict`'s degeneracy check use it. `closed_sets` walks the
  lattice of spans of groups of such rows, an arrangement's closed sets.
- `sparse_echelon` eliminates sparse rows, `{column: int}` dicts, and stops
  once every column has a pivot. Forward elimination alone gives the rank
  and an echelon basis, which is all the ideal slices' rank profile needs.
  With `reduced=True` a back-substitution pass returns the unique reduced
  echelon form with each row primitive and its pivot positive; the
  degree-2 slice basis of kappa, the circuit dependency solves and
  `restrict`'s kernel basis read it.
- `det_sign` runs Bareiss elimination on integer rows.

`Fraction` appears only at the edges: `vec`, `dot` and `integer_row`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]


class NotSquare(ValueError):
    """Determinant requested for a non-square matrix."""


def vec(entries: Iterable) -> Vector:
    """Coerce ints / strings / Fractions to a rational vector."""
    return tuple(Fraction(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the positive lcm of its denominators: same span, int entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _clear(r: list[int], c: int, b: Sequence[int]) -> list[int]:
    """p*r - x*b with the common factor of p = b[c] and x = r[c] divided out; zero at c."""
    g = math.gcd(b[c], r[c])
    p, x = b[c] // g, r[c] // g
    return [p * u - x * v for u, v in zip(r, b)]


def _extend(
    basis: Sequence[tuple[int, list[int]]], rows: Iterable[Sequence[int]]
) -> list[tuple[int, list[int]]]:
    """The (pivot, row) pairs that extend an echelon basis to span(basis + rows).

    In `basis` and in the result each row is zero in the pivot columns
    listed before it, primitive, and pivoted at its first nonzero entry.
    """
    kept = list(basis)
    for row in rows:
        r = list(row)
        for c, b in kept:
            if r[c]:
                r = _clear(r, c, b)
        content = math.gcd(*r)
        if content:
            c = next(j for j, x in enumerate(r) if x)
            kept.append((c, [x // content for x in r]))
            if len(kept) == len(r):
                break  # full column rank: no later row can add to it
    return kept[len(basis):]


def _span_key(rows: Sequence[tuple[int, list[int]]]) -> tuple[tuple[int, ...], ...]:
    """The reduced echelon form of the span of `_extend`'s rows: equal iff the spans are."""
    done: list[tuple[int, tuple[int, ...]]] = []
    for c, r in reversed(rows):
        for d, b in done:
            if r[d]:
                r = _clear(r, d, b)
        g = math.gcd(*r) if r[c] > 0 else -math.gcd(*r)
        done.append((c, tuple(x // g for x in r)))
    return tuple(r for _, r in sorted(done))


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Row rank over the rationals of integer rows, by fraction-free elimination."""
    return len(_extend((), rows))


def closed_sets(groups: Sequence[Sequence[Sequence[int]]]) -> dict[int, int]:
    """Rank of every closed set of row groups, by bitmask, breadth-first from the closure of ().

    A set of groups is closed when no other group's rows lie in its span.
    A closed set F carries, for each group b outside it, the rows b adds to
    F's span, cleared in F's pivot columns (`new[b]`). closure(F + a) is F
    plus each b whose new rows lie in the span of a's: those with the same
    span, and those that add less and reduce to nothing against a's rows.
    """
    start = {b: _extend((), rows) for b, rows in enumerate(groups)}
    bottom = sum(1 << b for b, rows in start.items() if not rows)
    closed = {bottom: 0}
    frontier = [(bottom, {b: rows for b, rows in start.items() if rows})]
    while frontier:
        nxt = []
        for mask, new in frontier:
            spans: dict[tuple, list[int]] = {}
            for b, rows in new.items():
                spans.setdefault(_span_key(rows), []).append(b)
            for a, *same in spans.values():
                rows = new[a]
                cover = mask | sum(1 << b for b in (a, *same))
                for b, others in new.items():
                    if len(others) < len(rows) and not _extend(rows, (r for _, r in others)):
                        cover |= 1 << b
                if cover not in closed:
                    closed[cover] = closed[mask] + len(rows)
                    rest = (b for b in new if not cover >> b & 1)
                    nxt.append((cover, {b: _extend(rows, (r for _, r in new[b])) for b in rest}))
        frontier = nxt
    return closed


def _primitive(row: SparseRow, pivot: int) -> SparseRow:
    """The row divided by its content, negated if needed so the pivot is positive."""
    g = math.gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _cancel(r: SparseRow, b: SparseRow, c: int) -> SparseRow:
    """p*r - x*b with the common factor of p = b[c] and x = r[c] divided out; zero at c."""
    p, x = b[c], r[c]
    g = math.gcd(p, x)
    p, x = p // g, x // g
    out = {k: p * v for k, v in r.items()} if p != 1 else dict(r)
    for k, v in b.items():
        w = out.get(k, 0) - x * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def sparse_echelon(
    rows: Iterable[SparseRow], reduced: bool = False, columns: int | None = None
) -> list[SparseRow]:
    """Echelon basis of the row span of sparse integer rows, in pivot-column order.

    Each row is cancelled, at its smallest column, against the kept row with
    that pivot until it is zero or has a new pivot; then it is kept,
    primitive with a positive pivot. When the rows' keys lie in
    range(columns), no row can add a pivot once all `columns` have one, so
    the rest of `rows` is not read. The number of rows returned is the rank
    over the rationals. With `reduced`, each kept row is also cleared in
    every other pivot column, from the last pivot back: the result is the
    reduced row echelon form with each row scaled to a primitive integer row.
    """
    kept: dict[int, SparseRow] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        while r:
            c = min(r)
            b = kept.get(c)
            if b is None:
                kept[c] = _primitive(r, c)
                break
            r = _cancel(r, b, c)
        if len(kept) == columns:
            break
    pivots = sorted(kept)
    if reduced:
        for c in reversed(pivots):
            r = kept[c]
            later = [k for k in r if k > c and k in kept]
            if later:
                for k in later:
                    r = _cancel(r, kept[k], k)
                kept[c] = _primitive(r, c)
    return [kept[c] for c in pivots]


def det_sign(rows: Sequence[Sequence[int]]) -> int:
    """Sign of the exact determinant of square integer rows: -1, 0 or +1.

    Bareiss elimination: each step's entries are 2x2 minors divided exactly
    by the previous pivot, and the last pivot is the determinant. Rows
    scaled by positive factors (`integer_row`) keep the sign.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare(f"{n} rows of lengths {sorted({len(r) for r in rows})} have no determinant")
    a = [list(r) for r in rows]
    sign, last = 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        pivot = a[c]
        for i in range(c + 1, n):
            f = a[i][c]
            a[i] = [(pivot[c] * x - f * y) // last for x, y in zip(a[i], pivot)]
        last = pivot[c]
    return sign if last > 0 else -sign
