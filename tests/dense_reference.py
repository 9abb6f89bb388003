"""Dense elimination over `Fraction`: the oracle of the differential tests.

The package eliminates on integers only (`twoarr.linalg`). This module keeps
the textbook algorithm on rational rows, so the tests can check the integer
kernels against a computation that shares no code with them.
"""

from fractions import Fraction


def rref(rows) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form of rational rows, and the pivot columns (0-based).

    Pivot policy: leftmost column first, first nonzero row from the top.
    Rows appear in pivot order, zero rows trail.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        support = [j for j, y in enumerate(a[r]) if y]  # zero entries change nothing below
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f, row = a[i][c], a[i]
                for j in support:
                    row[j] -= f * a[r][j]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def rank(rows) -> int:
    """Row rank over the rationals."""
    return len(rref(rows)[1])


def kernel_basis(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Right null space basis read off the rref, one vector per free column in order."""
    reduced, pivots = rref(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis
