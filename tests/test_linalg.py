import math
import random
from fractions import Fraction

import pytest

from dense_reference import kernel_basis as dense_kernel_basis
from dense_reference import rank as dense_rank
from dense_reference import rref, vec
from twoarr import linalg
from twoarr.arrangement import integer_form
from twoarr.linalg import reduced_echelon, sparse_echelon

# forms of the bundled transversal arrangements, written out literally
B_FORMS = [
    (1, 0, 0, 0), (0, 1, 0, 0),      # H1
    (0, 0, 1, 0), (0, 0, 0, 1),      # H2
    (-1, 0, 1, 0), (0, -1, 0, 1),    # H3
    (-2, 0, 1, 0), (0, -2, 0, 1),    # H4
]
BPRIME_H4 = [(-2, 0, 1, 0), (0, 2, 0, 1)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def integer_row(row):
    """The row scaled to integer entries at the rational edge (`integer_form`)."""
    return integer_form(row)[1]


def rank(rows):
    """Rank over the rationals of dense integer rows: the length of their echelon basis."""
    return len(sparse_echelon(dict(enumerate(r)) for r in rows))


def solve(columns, b):
    """The unique x with sum_j x_j columns[j] = b, read off `reduced_echelon`.

    This is how the circuit dependency solves read it: the augmented rows'
    reduced form has the unknowns' columns as pivots, and row j gives
    row[j] * x_j = row[k]. Raises ValueError when there is no solution or
    no unique one.
    """
    k = len(columns)
    rows = (dict(enumerate(integer_row(vec([c[i] for c in columns] + [b[i]])))) for i in range(len(b)))
    echelon = reduced_echelon(rows)
    pivots = [min(row) for row in echelon]
    if k in pivots:
        raise ValueError("no solution: right-hand side outside the column span")
    if pivots != list(range(k)):
        raise ValueError("not unique: columns are linearly dependent")
    return tuple(Fraction(row.get(k, 0), row[j]) for j, row in enumerate(echelon))


def test_rank_identity():
    assert rank(identity(4)) == 4


def test_rank_zero_matrix():
    assert rank([[0] * 5] * 3) == 0


def test_rank_stacked_forms():
    assert rank(B_FORMS) == 4


# the dense oracle itself, on cases worked by hand


def test_rref_identity():
    reduced, pivots = rref(identity(3))
    assert reduced == identity(3)
    assert pivots == (0, 1, 2)


def test_rref_proportional_rows():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert reduced == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_bprime_h2_h4_block():
    rows = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    reduced, pivots = rref(rows)
    assert pivots == (0, 1, 2, 3)
    assert reduced == identity(4)


def test_solve_identity():
    b = vec([3, -1, Fraction(1, 2)])
    assert solve(identity(3), b) == b


def test_solve_express_x1_in_bprime_basis():
    # columns: forms of H2 then H4 of the second bundled arrangement
    cols = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    assert solve(cols, vec([1, 0, 0, 0])) == vec(["1/2", 0, "-1/2", 0])
    assert solve(cols, vec([0, 1, 0, 0])) == vec([0, "-1/2", 0, "1/2"])


def test_solve_no_solution():
    with pytest.raises(ValueError, match="no solution"):
        solve([(1, 0, 0)], vec([0, 1, 0]))


def test_solve_not_unique():
    with pytest.raises(ValueError, match="not unique"):
        solve([(1, 0), (2, 0)], vec([3, 0]))


def kernel_basis(rows, cols):
    """The right kernel basis read off `reduced_echelon`, one vector per free column in order.

    This is how `restrict` reads it: free column f gets 1 at f and
    -row[f] / row[p] at each pivot p.
    """
    pivots = {min(row): row for row in reduced_echelon(dict(enumerate(r)) for r in rows)}
    return [
        tuple(Fraction(int(c == f)) if c not in pivots else -Fraction(pivots[c].get(f, 0), pivots[c][c])
              for c in range(cols))
        for f in range(cols)
        if f not in pivots
    ]


def in_kernel(rows, v):
    return all(sum(c * x for c, x in zip(row, v)) == 0 for row in rows)


def test_kernel_identity_empty():
    assert kernel_basis(identity(3), 3) == []


def test_kernel_difference_form():
    assert kernel_basis([[1, -1]], 2) == [vec([1, 1])]


def test_kernel_of_coordinate_plane_in_r6():
    rows = [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    basis = kernel_basis(rows, 6)
    assert len(basis) == 4
    for v in basis:
        assert in_kernel(rows, v)
        assert v[4] == 0 and v[5] == 0


# --- randomized properties ------------------------------------------------


def random_matrix(rng, rows, cols, lo=-3, hi=3) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(200):
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rng.randint(0, 5), cols)
        transpose = [[row[j] for row in m] for j in range(cols)]
        assert rank(m) == rank(transpose)


def test_solve_roundtrip_random():
    rng = random.Random(11)
    done = 0
    while done < 100:
        rows, cols = rng.randint(1, 6), rng.randint(1, 4)
        if cols > rows:
            continue
        a = random_matrix(rng, rows, cols)
        if rank(a) < cols:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(cols)])
        b = tuple(sum(c * y for c, y in zip(row, x)) for row in a)
        assert solve([[row[j] for row in a] for j in range(cols)], b) == x
        done += 1


def test_kernel_dimension_and_membership():
    rng = random.Random(17)
    for _ in range(200):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 5), cols)
        basis = kernel_basis(m, cols)
        assert len(basis) == cols - rank(m)
        assert all(in_kernel(m, v) for v in basis)
        assert basis == dense_kernel_basis(m, cols)


def rational_matrices() -> list[tuple[list[list[Fraction]], int]]:
    """Seeded rational matrices as (rows, column count).

    Edge shapes, zero and duplicate rows, low rank.
    """
    rng = random.Random(19)
    out = [
        ([], 3),
        ([[], [], []], 0),
        ([[Fraction(0)]], 1),
        ([[Fraction(-2, 3)]], 1),
    ]
    for _ in range(300):
        rows, cols, k = rng.randint(1, 7), rng.randint(1, 6), rng.randint(1, 4)
        base = [
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12))) for _ in range(cols)]
            for _ in range(k)
        ]
        # rows are rational combinations of k base rows, so rank <= k
        data = []
        for _ in range(rows):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in base]
            data.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(cols)])
        if rng.random() < 0.3:
            data[rng.randrange(rows)] = [Fraction(0)] * cols
        if rng.random() < 0.3:
            data.append(list(rng.choice(data)))
        rng.shuffle(data)
        out.append((data, cols))
    return out


def test_integer_rank_matches_rref_pivots():
    """The rank of the integer rows, `rank`, against the dense rref's pivot count."""
    ranks = set()
    for m, _ in rational_matrices():
        r = rank(integer_row(row) for row in m)
        ranks.add(r)
        assert r == len(rref(m)[1])
    assert ranks == {0, 1, 2, 3, 4}


def test_integer_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m, cols in rational_matrices():
        entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
        assert rank(integer_row(row) for row in m) == sympy.Matrix(len(m), cols, entries).rank()


def primitive_rref(m):
    """The dense reference's rref rows as sparse integer rows, each divided by its content."""
    reduced, pivots = rref(m)
    out = []
    for row in reduced[: len(pivots)]:
        ints = integer_row(row)
        g = math.gcd(*ints)
        out.append({j: x // g for j, x in enumerate(ints) if x})
    return out


def test_reduced_echelon_is_the_primitive_rref():
    for m, _ in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        pivots = rref(m)[1]
        assert reduced_echelon(rows) == primitive_rref(m)
        forward = sparse_echelon(rows)
        assert [min(r) for r in forward] == list(pivots)
        for r in forward:
            assert r[min(r)] > 0 and math.gcd(*r.values()) == 1 and all(r.values())


def test_reduced_echelon_extends_a_basis():
    """Each matrix split into basis rows and extra rows, with a forward and a reduced basis.

    The rows added are zero at every basis pivot, are a primitive rref
    themselves, and complete the basis to the span of all the rows.
    """
    extended = 0
    for m, cols in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        for split in range(len(rows) + 1):
            for basis in (sparse_echelon(rows[:split]), reduced_echelon(rows[:split])):
                added = reduced_echelon(rows[split:], basis)
                pivots = {min(b) for b in basis}
                assert not any(pivots & r.keys() for r in added)
                dense = [[r.get(j, 0) for j in range(cols)] for r in basis + added]
                assert primitive_rref(dense[len(basis):]) == added
                assert dense_rank(dense) == len(dense) == dense_rank(m) == dense_rank(m + dense)
                extended += bool(basis) and bool(added)
    assert extended > 0


def test_sparse_echelon_forward_rows_span_the_input():
    for m, cols in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        forward = [[r.get(j, 0) for j in range(cols)] for r in sparse_echelon(rows)]
        # equal rank, and stacking them on the input adds none: the same span
        assert len(forward) == dense_rank(m)
        assert dense_rank(m + forward) == dense_rank(m)


def test_one_elimination_kernel():
    """Both echelon routines take the one forward step; no dense elimination or second rank routine is left."""
    assert not any(hasattr(linalg, name) for name in ("det_sign", "NotSquare", "integer_rank", "dot"))
    for routine in (linalg.sparse_echelon, linalg.reduced_echelon):
        assert "_keep" in routine.__code__.co_names
