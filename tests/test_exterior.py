import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from twoarr import exterior
from twoarr.exterior import (
    ExtElement,
    degree_span_rank,
    gram_of_basis,
    ideal_ranks,
    monomials,
    normalize,
)
from twoarr.linalg import sparse_echelon
from twoarr.presentation import full_presentation
from conftest import braid_a4, generic_lines
from dense_reference import rref

try:
    import sympy
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # the large-slice reference and the sympy rank check need it
    sympy = None

E = ExtElement.monomial


def elem(*terms):
    return ExtElement.from_terms({mon: c for mon, c in terms})


def test_normalize_sorted():
    assert normalize((1, 2)) == ((1, 2), 1)


def test_normalize_one_swap():
    assert normalize((2, 1)) == ((1, 2), -1)


def test_normalize_two_inversions():
    assert normalize((2, 3, 1, 4)) == ((1, 2, 3, 4), 1)


def test_normalize_duplicate_is_zero():
    mon, sign = normalize((1, 3, 1))
    assert sign == 0


def test_wedge_generators():
    assert E((1,)).wedge(E((2,))) == E((1, 2))
    assert E((2,)).wedge(E((1,))) == E((1, 2), -1)


def test_wedge_cross_terms():
    x = elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1))
    y = elem(((1, 2), 1), ((1, 4), 1), ((2, 4), 1))
    assert x.wedge(y) == E((1, 2, 3, 4), 2)


def test_wedge_even_degree_square():
    x = elem(((1, 2), 1), ((3, 4), 1))
    assert x.wedge(x) == E((1, 2, 3, 4), 2)


def test_str_formatting():
    x = elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1))
    assert str(x) == "+e12 -e13 +e23"
    assert str(E((1, 2, 3, 4), 2)) == "+2e1234"
    assert str(ExtElement.zero()) == "0"


def test_degree():
    assert elem(((1, 2), 1), ((3, 4), -2)).degree == 2
    assert elem(((1,), 1), ((2, 3), 1)).degree is None
    assert ExtElement.zero().degree is None


# --- randomized properties ------------------------------------------------


def random_element(rng, n, deg, terms=3):
    acc = {}
    for _ in range(terms):
        mon = tuple(sorted(rng.sample(range(1, n + 1), deg)))
        acc[mon] = acc.get(mon, 0) + rng.randint(-3, 3)
    return ExtElement.from_terms(acc)


def test_wedge_associative_and_bilinear():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(4, 6)
        x = random_element(rng, n, rng.randint(1, 2))
        y = random_element(rng, n, rng.randint(1, 2))
        z = random_element(rng, n, rng.randint(1, 2))
        assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
        assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)
        k = rng.randint(-4, 4)
        assert x.scale(k).wedge(y) == x.wedge(y).scale(k)


def test_wedge_graded_commutative():
    rng = random.Random(29)
    for _ in range(100):
        n = 6
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        x = random_element(rng, n, p)
        y = random_element(rng, n, q)
        sign = (-1) ** (p * q)
        assert x.wedge(y) == y.wedge(x).scale(sign)


def bubble_parity(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    if any(a == b for a, b in zip(seq, seq[1:])):
        return tuple(seq), 0
    return tuple(seq), sign


def test_normalize_against_bubble_sort():
    rng = random.Random(31)
    for _ in range(300):
        k = rng.randint(0, 6)
        seq = [rng.randint(1, 8) for _ in range(k)]
        assert normalize(seq) == bubble_parity(seq)


# --- graded span ranks -----------------------------------------------------

COMPLEX_PATTERN_RELATIONS = [
    elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1)),
    elem(((1, 2), 1), ((1, 4), -1), ((2, 4), 1)),
    elem(((1, 3), 1), ((1, 4), -1), ((3, 4), 1)),
    elem(((2, 3), 1), ((2, 4), -1), ((3, 4), 1)),
]


def test_degree_span_rank_slices():
    rels = COMPLEX_PATTERN_RELATIONS
    assert degree_span_rank(rels, 2, 4)[0] == 3
    assert degree_span_rank(rels, 3, 4)[0] == 4
    assert degree_span_rank(rels, 4, 4)[0] == 1
    assert degree_span_rank([], 2, 4) == (0, [])


def test_degree_span_rank_echelon_basis_spans():
    rels = COMPLEX_PATTERN_RELATIONS
    rank2, basis = degree_span_rank(rels, 2, 4)
    assert len(basis) == rank2
    # basis elements are integer, primitive, and inside the slice
    again, _ = degree_span_rank(basis, 2, 4)
    assert again == rank2
    for b in basis:
        assert b.degree == 2


def test_monomials_lexicographic():
    assert monomials(4, 2) == tuple(itertools.combinations(range(1, 5), 2))
    assert monomials(3, 0) == ((),)


# --- the sparse slice kernel against the dense Fraction path -------------------

# Slices up to this many cells go through the dense rref; larger ones through
# sympy's sparse rref over QQ, because the dense Fraction rref takes minutes
# on the n = 9, 10 slices.
DENSE_CELLS = 40_000


def slice_rows(generators, p, n):
    """Rows g ^ m of the degree-p slice as {column: coefficient} dicts, built with ExtElement.wedge."""
    cols = monomials(n, p)
    index = {m: j for j, m in enumerate(cols)}
    rows = []
    for g in generators:
        if g.is_zero or g.degree > p:
            continue
        for m in monomials(n, p - g.degree):
            w = g.wedge(E(m))
            if not w.is_zero:
                rows.append({index[mon]: c for mon, c in w.terms})
    return cols, rows


def dense(rows, width):
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def primitive_element(row, cols):
    """A reduced echelon row cleared of denominators and divided by its content."""
    den = lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = gcd(*ints)
    return ExtElement.from_terms({m: c // g for m, c in zip(cols, ints) if c})


def reference_span(generators, p, n):
    """Rank and reduced echelon basis by dense elimination over the rationals.

    None when the slice is too large for the dense rref and sympy is missing.
    """
    cols, rows = slice_rows(generators, p, n)
    if not rows or not cols:
        return 0, []
    if len(rows) * len(cols) <= DENSE_CELLS:
        reduced, pivots = rref(dense(rows, len(cols)))
        reduced_rows = reduced[: len(pivots)]
    elif sympy is None:
        return None
    else:
        sparse = {i: {j: sympy.ZZ(x) for j, x in r.items()} for i, r in enumerate(rows)}
        dm = DomainMatrix(sparse, (len(rows), len(cols)), sympy.ZZ).convert_to(sympy.QQ)
        reduced, pivots = dm.rref()
        entries = reduced.to_sdm()
        reduced_rows = [[Fraction(0)] * len(cols) for _ in pivots]
        for i, row in enumerate(reduced_rows):
            for j, x in entries.get(i, {}).items():
                row[j] = Fraction(int(x.numerator), int(x.denominator))
    return len(pivots), [primitive_element(r, cols) for r in reduced_rows]


def assert_matches_reference(generators, n):
    for p in range(n + 1):
        expected = reference_span(generators, p, n)
        if expected is None:
            continue
        assert degree_span_rank(generators, p, n) == expected, p
        assert degree_span_rank(generators, p, n, basis=False) == (expected[0], []), p


def test_slice_kernel_matches_dense_path_on_random_generators():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(3, 7)
        gens = [
            random_element(rng, n, rng.randint(1, min(3, n)), rng.randint(1, 4))
            for _ in range(rng.randint(1, 5))
        ]
        assert_matches_reference(gens, n)
        if sympy is not None:
            for p in range(n + 1):
                cols, rows = slice_rows(gens, p, n)
                if rows and p <= 4:
                    assert degree_span_rank(gens, p, n)[0] == sympy.Matrix(dense(rows, len(cols))).rank()


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_slice_kernel_matches_dense_path_on_generic_lines(n):
    arr = generic_lines(n, seed=n, conjugate_last=n % 2 == 0)
    assert_matches_reference(full_presentation(arr).elements(), n)


def test_slice_rows_skip_zero_generators_and_reject_mixed_degrees():
    rels = COMPLEX_PATTERN_RELATIONS
    assert degree_span_rank(rels + [ExtElement.zero()], 2, 4) == degree_span_rank(rels, 2, 4)
    with pytest.raises(ValueError):
        degree_span_rank([elem(((1,), 1), ((2, 3), 1))], 3, 4)


# --- slices grown degree by degree ------------------------------------------------


def direct_ranks(generators, n):
    """Each slice's rank from all generators at once, degree by degree."""
    return tuple(degree_span_rank(generators, p, n, basis=False)[0] for p in range(n + 1))


def test_grown_slices_match_direct_ranks_on_random_generators():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 7)
        gens = [
            random_element(rng, n, rng.randint(0, min(4, n)), rng.randint(1, 4))
            for _ in range(rng.randint(0, 6))
        ]
        gens += [ExtElement.zero()] * rng.randint(0, 2)
        rng.shuffle(gens)
        assert ideal_ranks(gens, n) == direct_ranks(gens, n), gens


def test_grown_slices_reject_mixed_degrees():
    mixed = elem(((1,), 1), ((2, 3), 1))
    with pytest.raises(ValueError):
        ideal_ranks(COMPLEX_PATTERN_RELATIONS + [mixed], 4)


def test_grown_slices_feed_the_kernel_few_rows(monkeypatch):
    """Degree p eliminates at most rank(I^(p-1)) * n + #R_p rows."""
    fed = []

    def counting(rows, reduced=False, columns=None):
        seen = []
        out = sparse_echelon((seen.append(r) or r for r in rows), reduced, columns)
        fed.append(len(seen))
        return out

    monkeypatch.setattr(exterior, "sparse_echelon", counting)
    for arr in (generic_lines(10, seed=3), generic_lines(9, seed=3, conjugate_last=True), braid_a4()):
        gens = full_presentation(arr).elements()
        n = arr.n
        fed.clear()
        ranks = ideal_ranks(gens, n)
        assert len(fed) <= n + 1
        for p, rows in enumerate(fed):
            below = ranks[p - 1] if p else 0
            assert rows <= below * n + sum(g.degree == p for g in gens), p
        # the old way: one row per relation and monomial of complementary degree
        assert sum(fed) < sum(len(monomials(n, p - g.degree)) for g in gens for p in range(g.degree, n + 1))


def test_gram_of_basis_matches_wedge_products():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(4, 7)
        basis = [random_element(rng, n, rng.randint(1, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        mons4 = monomials(n, 4)
        expected = tuple(tuple(x.wedge(y).coeff_vector(mons4) for y in basis) for x in basis)
        assert gram_of_basis(basis, n) == expected
