"""Exact linear algebra over the rationals.

Nothing is ever rounded. The hot work runs on Python ints, fraction-free,
after scaling each rational row by the positive lcm of its denominators
(`integer_row`), which leaves rank and row span as they were. Every
elimination works on sparse rows, `{column: int}` dicts, with one row
operation (`_cancel`), one normalisation (`_primitive`) and one forward
step (`_keep`), which the two echelon routines share:

- `sparse_echelon` is forward elimination alone. It gives the rank and an
  echelon basis: all that kappa's rank needs.
- `reduced_echelon` extends an echelon basis, if any, by the rows fixed by
  the span and the basis's pivots: primitive, positive at the pivot, zero
  in every other pivot column. The walk, the circuit solves, the ideal
  slices (kappa's degree-2 basis among them) and `restrict`'s kernel read
  it.
- `closed_sets` walks the lattice of spans of groups of rows, an
  arrangement's closed sets, whose covers answer every rank question.

`Fraction` appears only at the edge, in `integer_row`.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
SparseRow = dict[int, int]


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the positive lcm of its denominators: same span, int entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def bitmask(indices: Iterable[int]) -> int:
    """The bitmask of 1-based indices: bit i-1 stands for element i."""
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def closed_sets(groups: Sequence[Sequence[Sequence[int]]]) -> tuple[dict[int, int], dict[int, int]]:
    """Rank of every closed set of row groups, by bitmask, breadth-first from cl(()); and covers.

    A set of groups is closed when no other group's rows lie in its span.
    The covers map key 0 to cl(()) and F | 1 << b to cl(F + b), for closed
    F and each group b outside it. F carries, for each such b, the reduced
    rows b adds to F's span (`new[b]`), which span(F + b) fixes. cl(F + a)
    is F plus each b whose new rows lie in the span of a's: those equal to
    a's, and those that add less and reduce to nothing against a's.
    """
    start = {b: reduced_echelon(dict(enumerate(r)) for r in rows) for b, rows in enumerate(groups)}
    bottom = sum(1 << b for b, rows in start.items() if not rows)
    closed = {bottom: 0}
    covers = {0: bottom}
    frontier = [(bottom, {b: rows for b, rows in start.items() if rows})]
    while frontier:
        nxt = []
        for mask, new in frontier:
            spans: dict[tuple, list[int]] = {}
            for b, rows in new.items():
                spans.setdefault(tuple(tuple(sorted(r.items())) for r in rows), []).append(b)
            for group in spans.values():
                rows = new[group[0]]
                cover = mask | sum(1 << b for b in group)
                for b, others in new.items():
                    if len(others) < len(rows) and not reduced_echelon(others, rows):
                        cover |= 1 << b
                for b in group:
                    covers[mask | 1 << b] = cover
                if cover not in closed:
                    closed[cover] = closed[mask] + len(rows)
                    rest = (b for b in new if not cover >> b & 1)
                    nxt.append((cover, {b: reduced_echelon(new[b], rows) for b in rest}))
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


def _keep(r: SparseRow, kept: dict[int, SparseRow]) -> None:
    """The forward step: cancel r, which has no zero entries, at its smallest column
    against the kept row with that pivot until it is zero or has a new pivot; keep
    that pivot's row primitive and positive there."""
    while r:
        c = min(r)
        b = kept.get(c)
        if b is None:
            kept[c] = _primitive(r, c)
            return
        r = _cancel(r, b, c)


def sparse_echelon(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """Echelon basis of the row span of sparse integer rows, in pivot-column order.

    Each row takes the forward step (`_keep`). The number of rows returned
    is the rank over the rationals.
    """
    kept: dict[int, SparseRow] = {}
    for row in rows:
        _keep({c: x for c, x in row.items() if x}, kept)
    return [kept[c] for c in sorted(kept)]


def reduced_echelon(rows: Iterable[SparseRow], basis: Sequence[SparseRow] = ()) -> list[SparseRow]:
    """The rows that extend an echelon basis, given in pivot order, to span(basis + rows).

    Each row is cleared in the basis's pivot columns and takes the forward
    step (`_keep`); kept rows are then cleared in each later pivot column,
    last pivot first. Each row returned is primitive, positive at its pivot
    and zero in every other pivot column: with no basis, the primitive
    reduced row echelon form.
    """
    fixed = {min(b): b for b in basis}
    kept: dict[int, SparseRow] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for c, b in fixed.items():
            if c in r:
                r = _cancel(r, b, c)
        _keep(r, kept)
    pivots = sorted(kept)
    for c in reversed(pivots):
        r = kept[c]
        later = [k for k in r if k > c and k in kept]
        if later:
            for k in later:
                r = _cancel(r, kept[k], k)
            kept[c] = _primitive(r, c)
    return [kept[c] for c in pivots]
