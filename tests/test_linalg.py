import random
from fractions import Fraction

import pytest

from twoarr.linalg import (
    Matrix,
    NoSolution,
    NotSquare,
    NotUnique,
    det_sign,
    kernel_basis,
    rank,
    rref,
    solve_unique,
    vec,
)

# forms of the bundled transversal arrangements, written out literally
B_FORMS = [
    (1, 0, 0, 0), (0, 1, 0, 0),      # H1
    (0, 0, 1, 0), (0, 0, 0, 1),      # H2
    (-1, 0, 1, 0), (0, -1, 0, 1),    # H3
    (-2, 0, 1, 0), (0, -2, 0, 1),    # H4
]
BPRIME_H4 = [(-2, 0, 1, 0), (0, 2, 0, 1)]


def test_rank_identity():
    assert rank(Matrix.identity(4)) == 4


def test_rank_zero_matrix():
    assert rank(Matrix.from_rows([[0] * 5] * 3)) == 0


def test_rank_stacked_forms():
    assert rank(Matrix.from_rows(B_FORMS)) == 4


def test_rref_identity():
    reduced, pivots = rref(Matrix.identity(3))
    assert reduced == Matrix.identity(3)
    assert pivots == (0, 1, 2)


def test_rref_proportional_rows():
    reduced, pivots = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_bprime_h2_h4_block():
    rows = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    reduced, pivots = rref(Matrix.from_rows(rows))
    assert pivots == (0, 1, 2, 3)
    assert reduced == Matrix.identity(4)


def test_solve_identity():
    b = vec([3, -1, Fraction(1, 2)])
    assert solve_unique(Matrix.identity(3), b) == b


def test_solve_express_x1_in_bprime_basis():
    # columns: forms of H2 then H4 of the second bundled arrangement
    cols = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    a = Matrix.from_columns(cols)
    assert solve_unique(a, vec([1, 0, 0, 0])) == vec(["1/2", 0, "-1/2", 0])
    assert solve_unique(a, vec([0, 1, 0, 0])) == vec([0, "-1/2", 0, "1/2"])


def test_solve_no_solution():
    a = Matrix.from_columns([(1, 0, 0)])
    with pytest.raises(NoSolution):
        solve_unique(a, vec([0, 1, 0]))


def test_solve_not_unique():
    a = Matrix.from_columns([(1, 0), (2, 0)])
    with pytest.raises(NotUnique):
        solve_unique(a, vec([3, 0]))


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_difference_form():
    assert kernel_basis(Matrix.from_rows([[1, -1]])) == [vec([1, 1])]


def test_kernel_of_coordinate_plane_in_r6():
    m = Matrix.from_rows([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 4
    for v in basis:
        assert m.mul_vec(v) == vec([0, 0])
        assert v[4] == 0 and v[5] == 0


def test_det_sign_examples():
    assert det_sign(Matrix.from_rows([[-1, 0], [0, -1]])) == 1
    assert det_sign(Matrix.from_rows([["1/2", 0], [0, "-1/2"]])) == -1
    rows = [(0, 0, 1, 0), (0, 0, 0, 1)] + BPRIME_H4
    assert det_sign(Matrix.from_rows(rows)) == -1


def test_det_sign_not_square():
    with pytest.raises(NotSquare):
        det_sign(Matrix.from_rows([[1, 2]]))


# --- randomized properties ------------------------------------------------


def random_matrix(rng, rows, cols, lo=-3, hi=3) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols
    )


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
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
        assert rank(m) == rank(m.transpose())


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
        b = a.mul_vec(x)
        assert solve_unique(a, b) == x
        done += 1


def test_det_sign_matches_cofactor_expansion():
    rng = random.Random(13)
    # exhaustive 2x2 over {-1,0,1}
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-1, 2):
                for d in range(-1, 2):
                    m = Matrix.from_rows([[a, b], [c, d]])
                    expected = det_cofactor([[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]])
                    assert det_sign(m) == (expected > 0) - (expected < 0)
    # sampled up to 5x5 over {-2..2}
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, -2, 2)
        expected = det_cofactor(m.to_rows())
        assert det_sign(m) == (expected > 0) - (expected < 0)


def test_kernel_dimension_and_membership():
    rng = random.Random(17)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        zero = vec([0] * m.rows)
        for v in basis:
            assert m.mul_vec(v) == zero


def rational_matrices() -> list[Matrix]:
    """Seeded rational matrices: edge shapes, zero and duplicate rows, low rank."""
    rng = random.Random(19)
    out = [
        Matrix(0, 3, ()),
        Matrix(3, 0, ()),
        Matrix.from_rows([[0]]),
        Matrix.from_rows([["-2/3"]]),
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
        out.append(Matrix.from_rows(data, cols))
    return out


def test_integer_rank_matches_rref_pivots():
    ranks = set()
    for m in rational_matrices():
        ranks.add(rank(m))
        assert rank(m) == len(rref(m)[1])
    assert ranks == {0, 1, 2, 3, 4}


def test_integer_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in rational_matrices():
        entries = [sympy.Rational(x.numerator, x.denominator) for x in m.entries]
        assert rank(m) == sympy.Matrix(m.rows, m.cols, entries).rank()
