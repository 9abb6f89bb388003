"""Exact linear algebra over the rationals.

Nothing is ever rounded. The hot work runs on Python ints, fraction-free,
after scaling each rational row by the positive lcm of its denominators
(`integer_row`), which leaves rank, row span and determinant sign as they
were. Every elimination but the determinant's works on sparse rows,
`{column: int}` dicts, with one row operation (`_cancel`) and one
normalisation (`_primitive`):

- `sparse_echelon` eliminates rows and stops once every column has a
  pivot. Forward elimination alone gives the rank and an echelon basis,
  which is all the ideal slices' rank profile and `integer_rank` need.
  With `reduced=True` a back-substitution pass returns the unique reduced
  echelon form with each row primitive and its pivot positive; the
  degree-2 slice basis of kappa, the circuit dependency solves,
  `restrict`'s kernel basis and the walk's span keys read it.
- `closed_sets` walks the lattice of spans of groups of rows, an
  arrangement's closed sets, whose covers answer every rank question.
- `det_sign` runs Bareiss elimination on dense integer rows.

`Fraction` appears only at the edges: `dot` and `integer_row`.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]


class NotSquare(ValueError):
    """Determinant requested for a non-square matrix."""


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the positive lcm of its denominators: same span, int entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _extend(basis: Sequence[SparseRow], rows: Iterable[SparseRow]) -> list[SparseRow]:
    """The sparse rows that extend an echelon basis to span(basis + rows).

    In `basis` and in the result each row is primitive, pivoted at its
    smallest column, and zero in the pivot columns of the rows before it.
    """
    kept = list(basis)
    for r in rows:
        for b in kept:
            c = min(b)
            if c in r:
                r = _cancel(r, b, c)
        if r:
            kept.append(_primitive(r, min(r)))
    return kept[len(basis):]


def bitmask(indices: Iterable[int]) -> int:
    """The bitmask of 1-based indices: bit i-1 stands for element i."""
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def _span_key(rows: Iterable[SparseRow]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The reduced echelon form of the rows' span as a tuple: equal iff the spans are."""
    return tuple(tuple(sorted(r.items())) for r in sparse_echelon(rows, reduced=True))


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Row rank over the rationals of dense integer rows."""
    return len(sparse_echelon(dict(enumerate(r)) for r in rows))


def closed_sets(groups: Sequence[Sequence[Sequence[int]]]) -> tuple[dict[int, int], dict[int, int]]:
    """Rank of every closed set of row groups, by bitmask, breadth-first from cl(()); and covers.

    A set of groups is closed when no other group's rows lie in its span.
    The covers map key 0 to cl(()) and F | 1 << b to cl(F + b), for closed
    F and each group b outside it. F carries, for each such b, the rows b
    adds to F's span, cleared in F's pivot columns (`new[b]`). cl(F + a) is
    F plus each b whose new rows lie in the span of a's: those with the
    same span, and those that add less and reduce to nothing against a's.
    """
    start = {
        b: _extend((), ({c: x for c, x in enumerate(r) if x} for r in rows))
        for b, rows in enumerate(groups)
    }
    bottom = sum(1 << b for b, rows in start.items() if not rows)
    closed = {bottom: 0}
    covers = {0: bottom}
    frontier = [(bottom, {b: rows for b, rows in start.items() if rows})]
    while frontier:
        nxt = []
        for mask, new in frontier:
            spans: dict[tuple, list[int]] = {}
            for b, rows in new.items():
                spans.setdefault(_span_key(rows), []).append(b)
            for group in spans.values():
                rows = new[group[0]]
                cover = mask | sum(1 << b for b in group)
                for b, others in new.items():
                    if len(others) < len(rows) and not _extend(rows, others):
                        cover |= 1 << b
                for b in group:
                    covers[mask | 1 << b] = cover
                if cover not in closed:
                    closed[cover] = closed[mask] + len(rows)
                    rest = (b for b in new if not cover >> b & 1)
                    nxt.append((cover, {b: _extend(rows, new[b]) for b in rest}))
        frontier = nxt
    return closed, covers


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
