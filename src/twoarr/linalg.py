"""Exact linear algebra over the rationals.

Dense matrices of Fraction entries; nothing is ever rounded. `rref`,
`solve_unique`, `kernel_basis` and `det_sign` eliminate over Fraction with
a fixed pivot policy: pivots are always the first nonzero entry scanning
left to right, and kernel bases come out in free-column order. `rank` only
needs a count, so it scales each row to integers and runs fraction-free
elimination on Python ints (`integer_rank`), which the arrangement rank
oracle shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class NotSquare(ValueError):
    """Determinant requested for a non-square matrix."""


class NoSolution(ValueError):
    """Right-hand side lies outside the column span."""


class NotUnique(ValueError):
    """Columns are linearly dependent, so no unique solution exists."""


def vec(entries: Iterable) -> Vector:
    """Coerce ints / strings / Fractions to a rational vector."""
    return tuple(Fraction(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; `entries` is row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = [vec(r) for r in rows]
        if data:
            cols = len(data[0])
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return Matrix(len(data), cols, tuple(itertools.chain.from_iterable(data)))

    @staticmethod
    def from_columns(columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols = [vec(c) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("row count required for an empty matrix")
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged columns")
        return Matrix.from_rows([[c[i] for c in cols] for i in range(rows)], len(cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n
        )

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(
            [[self.entries[i * self.cols + j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        return tuple(dot(self.row(i), v) for i in range(self.rows))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form plus the pivot columns (0-based).

    Pivot policy: leftmost column first, first nonzero row from the top.
    Rows appear in pivot order, zero rows trail.
    """
    a = m.to_rows()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        p = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Matrix.from_rows(a, m.cols), tuple(pivots)


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the positive lcm of its denominators: same span, int entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Row rank over the rationals of integer rows, by fraction-free elimination.

    Each row is reduced against the rows kept so far, one pivot column each,
    and is kept, divided by its content, when anything nonzero is left.
    """
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        r = list(row)
        for c, b in kept:
            x = r[c]
            if x:
                p = b[c]
                g = math.gcd(p, x)
                p, x = p // g, x // g
                r = [p * u - x * v for u, v in zip(r, b)]
        content = math.gcd(*r)
        if content:
            c = next(j for j, x in enumerate(r) if x)
            kept.append((c, [x // content for x in r]))
            if len(kept) == len(r):
                break  # full column rank: no later row can add to it
    return len(kept)


def rank(m: Matrix) -> int:
    """Row rank over the rationals."""
    return integer_rank(integer_row(m.row(i)) for i in range(m.rows))


def solve_unique(a: Matrix, b: Sequence[Fraction]) -> Vector:
    """The unique x with a.x = b.

    Raises NoSolution when b is outside the column span and NotUnique when
    the columns of `a` are linearly dependent.
    """
    b = vec(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    aug = Matrix.from_rows(
        [list(a.row(i)) + [b[i]] for i in range(a.rows)], a.cols + 1
    )
    reduced, pivots = rref(aug)
    if a.cols in pivots:
        raise NoSolution("right-hand side outside column span")
    if len(pivots) < a.cols:
        raise NotUnique("columns are linearly dependent")
    return tuple(reduced.row(i)[a.cols] for i in range(a.cols))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the right null space, one vector per free column."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced.row(i)[f]
        basis.append(tuple(v))
    return basis


def det_sign(m: Matrix) -> int:
    """Sign of the exact determinant: -1, 0 or +1."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols} matrix has no determinant")
    a = m.to_rows()
    sign = 1
    for c in range(m.cols):
        p = next((i for i in range(c, m.rows) if a[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        if a[c][c] < 0:
            sign = -sign
        for i in range(c + 1, m.rows):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return sign
