import math
import random
from fractions import Fraction

import pytest

from dense_reference import kernel_basis as dense_kernel_basis
from dense_reference import rank as dense_rank
from dense_reference import rref
from twoarr.arrangement import _kernel_basis
from twoarr.linalg import NotSquare, det_sign, dot, integer_rank, integer_row, sparse_echelon, vec

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


def solve(columns, b):
    """The unique x with sum_j x_j columns[j] = b, read off `sparse_echelon`'s reduced form.

    This is how the circuit dependency solves read it: the augmented rows'
    reduced form has the unknowns' columns as pivots, and row j gives
    row[j] * x_j = row[k]. Raises ValueError when there is no solution or
    no unique one.
    """
    k = len(columns)
    rows = (dict(enumerate(integer_row(vec([c[i] for c in columns] + [b[i]])))) for i in range(len(b)))
    echelon = sparse_echelon(rows, reduced=True)
    pivots = [min(row) for row in echelon]
    if k in pivots:
        raise ValueError("no solution: right-hand side outside the column span")
    if pivots != list(range(k)):
        raise ValueError("not unique: columns are linearly dependent")
    return tuple(Fraction(row.get(k, 0), row[j]) for j, row in enumerate(echelon))


def test_rank_identity():
    assert integer_rank(identity(4)) == 4


def test_rank_zero_matrix():
    assert integer_rank([[0] * 5] * 3) == 0


def test_rank_stacked_forms():
    assert integer_rank(B_FORMS) == 4


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


def in_kernel(rows, v):
    return all(dot(vec(row), v) == 0 for row in rows)


def test_kernel_identity_empty():
    assert _kernel_basis(identity(3), 3) == []


def test_kernel_difference_form():
    assert _kernel_basis([[1, -1]], 2) == [vec([1, 1])]


def test_kernel_of_coordinate_plane_in_r6():
    rows = [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    basis = _kernel_basis(rows, 6)
    assert len(basis) == 4
    for v in basis:
        assert in_kernel(rows, v)
        assert v[4] == 0 and v[5] == 0


def test_det_sign_examples():
    assert det_sign([[-1, 0], [0, -1]]) == 1
    assert det_sign([integer_row(vec(r)) for r in [["1/2", 0], [0, "-1/2"]]]) == -1
    rows = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    assert det_sign(rows) == -1


def test_det_sign_not_square():
    with pytest.raises(NotSquare):
        det_sign([[1, 2]])
    with pytest.raises(NotSquare):
        det_sign([[1, 2], [3]])


# --- randomized properties ------------------------------------------------


def random_matrix(rng, rows, cols, lo=-3, hi=3) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(200):
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rng.randint(0, 5), cols)
        transpose = [[row[j] for row in m] for j in range(cols)]
        assert integer_rank(m) == integer_rank(transpose)


def test_solve_roundtrip_random():
    rng = random.Random(11)
    done = 0
    while done < 100:
        rows, cols = rng.randint(1, 6), rng.randint(1, 4)
        if cols > rows:
            continue
        a = random_matrix(rng, rows, cols)
        if integer_rank(a) < cols:
            continue
        x = vec([rng.randint(-5, 5) for _ in range(cols)])
        b = tuple(dot(vec(row), x) for row in a)
        assert solve([[row[j] for row in a] for j in range(cols)], b) == x
        done += 1


def test_det_sign_matches_cofactor_expansion():
    rng = random.Random(13)
    # exhaustive 2x2 over {-1,0,1}
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-1, 2):
                for d in range(-1, 2):
                    m = [[a, b], [c, d]]
                    expected = det_cofactor([[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]])
                    assert det_sign(m) == (expected > 0) - (expected < 0)
    # sampled up to 5x5 over {-2..2}
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -2, 2)
        expected = det_cofactor(m)
        assert det_sign(m) == (expected > 0) - (expected < 0)


def test_kernel_dimension_and_membership():
    rng = random.Random(17)
    for _ in range(200):
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 5), cols)
        basis = _kernel_basis(m, cols)
        assert len(basis) == cols - integer_rank(m)
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
    ranks = set()
    for m, _ in rational_matrices():
        r = integer_rank(integer_row(row) for row in m)
        ranks.add(r)
        assert r == len(rref(m)[1])
    assert ranks == {0, 1, 2, 3, 4}


def test_integer_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m, cols in rational_matrices():
        entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
        assert integer_rank(integer_row(row) for row in m) == sympy.Matrix(len(m), cols, entries).rank()


def test_sparse_echelon_is_the_primitive_rref():
    for m, _ in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        reduced, pivots = rref(m)
        expected = []
        for row in reduced[: len(pivots)]:
            ints = integer_row(row)
            g = math.gcd(*ints)
            expected.append({j: x // g for j, x in enumerate(ints) if x})
        assert sparse_echelon(rows, reduced=True) == expected
        forward = sparse_echelon(rows)
        assert [min(r) for r in forward] == list(pivots)
        for r in forward:
            assert r[min(r)] > 0 and math.gcd(*r.values()) == 1 and all(r.values())


def test_sparse_echelon_forward_rows_span_the_input():
    for m, cols in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        forward = [[r.get(j, 0) for j in range(cols)] for r in sparse_echelon(rows)]
        # equal rank, and stacking them on the input adds none: the same span
        assert len(forward) == dense_rank(m)
        assert dense_rank(m + forward) == dense_rank(m)


def test_sparse_echelon_full_rank_stop_changes_nothing():
    stopped = 0
    for m, cols in rational_matrices():
        rows = [dict(enumerate(integer_row(row))) for row in m]
        for reduced in (False, True):
            unbounded = sparse_echelon(rows, reduced)
            assert sparse_echelon(rows, reduced, cols) == unbounded
            # one more column that no row uses: never full, so never stopped
            assert sparse_echelon(rows, reduced, cols + 1) == unbounded
        read = []
        sparse_echelon((read.append(r) or r for r in rows), columns=cols)
        # no row is read after the one that gives every column a pivot
        full = (i + 1 for i in range(len(m)) if len(sparse_echelon(rows[: i + 1])) == cols)
        assert len(read) == next(full, len(m))
        stopped += len(read) < len(m)
    assert stopped > 0


def sympy_sign(m):
    sympy = pytest.importorskip("sympy")
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
    d = sympy.Matrix(len(m), len(m), entries).det()
    return 0 if d == 0 else 1 if d > 0 else -1


def test_det_sign_matches_sympy_on_singular_and_swapped_matrices():
    rng = random.Random(89)
    singular = swapped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0 and n > 1:  # a row that is a combination of two others
            i, j, k = rng.sample(range(n), 2) + [rng.randrange(n)]
            rows[k] = [Fraction(rng.randint(-3, 3)) * a + Fraction(1, 2) * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:  # a zero leading entry forces a row swap
            for r in rows[: rng.randint(1, n)]:
                r[0] = Fraction(0)
        expected = sympy_sign(rows)
        # positive row scales keep the sign
        assert det_sign([integer_row(r) for r in rows]) == expected
        singular += expected == 0
        swapped += rows[0][0] == 0 and expected != 0
    assert singular > 20 and swapped > 20


def test_det_sign_of_the_empty_matrix():
    assert det_sign([]) == 1


def test_dot_length_mismatch_raises():
    with pytest.raises(ValueError):
        dot(vec([1, 2]), vec([1]))
