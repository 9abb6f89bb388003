import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoarr import exterior, linalg
from twoarr.exterior import (
    ExtElement,
    gram_rows,
    ideal_ranks,
    ideal_slices,
    monomials,
)
from twoarr.linalg import bitmask, reduced_echelon, sparse_echelon
from twoarr.presentation import full_presentation
from conftest import braid_a4, elem, generic_lines
from dense_reference import rref
from exterior_reference import add, coeff_vector, from_terms, monomial, normalize, scale, wedge, zero

try:
    import sympy
    from sympy.combinatorics import Permutation
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # the large-slice reference and the sympy rank check need it
    sympy = None

E = monomial


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
    assert wedge(E((1,)), E((2,))) == E((1, 2))
    assert wedge(E((2,)), E((1,))) == E((1, 2), -1)


def test_wedge_cross_terms():
    x = elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1))
    y = elem(((1, 2), 1), ((1, 4), 1), ((2, 4), 1))
    assert wedge(x, y) == E((1, 2, 3, 4), 2)


def test_wedge_even_degree_square():
    x = elem(((1, 2), 1), ((3, 4), 1))
    assert wedge(x, x) == E((1, 2, 3, 4), 2)


def test_str_formatting():
    x = elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1))
    assert str(x) == "+e12 -e13 +e23"
    assert str(E((1, 2, 3, 4), 2)) == "+2e1234"
    assert str(zero()) == "0"


def test_degree():
    assert elem(((1, 2), 1), ((3, 4), -2)).degree == 2
    assert elem(((1,), 1), ((2, 3), 1)).degree is None
    assert zero().degree is None


# --- randomized properties ------------------------------------------------


def random_element(rng, n, deg, terms=3):
    acc = {}
    for _ in range(terms):
        mon = tuple(sorted(rng.sample(range(1, n + 1), deg)))
        acc[mon] = acc.get(mon, 0) + rng.randint(-3, 3)
    return from_terms(acc)


def test_wedge_associative_and_bilinear():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(4, 6)
        x = random_element(rng, n, rng.randint(1, 2))
        y = random_element(rng, n, rng.randint(1, 2))
        z = random_element(rng, n, rng.randint(1, 2))
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
        assert wedge(add(x, y), z) == add(wedge(x, z), wedge(y, z))
        k = rng.randint(-4, 4)
        assert wedge(scale(x, k), y) == scale(wedge(x, y), k)


def test_wedge_graded_commutative():
    rng = random.Random(29)
    for _ in range(100):
        n = 6
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        x = random_element(rng, n, p)
        y = random_element(rng, n, q)
        sign = (-1) ** (p * q)
        assert wedge(x, y) == scale(wedge(y, x), sign)


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



def sympy_sign(seq):
    """The sign of the permutation that sorts `seq`, from sympy; 0 when an entry repeats."""
    if len(set(seq)) < len(seq):
        return 0
    return Permutation(sorted(range(len(seq)), key=seq.__getitem__), size=len(seq)).signature()


@pytest.mark.skipif(sympy is None, reason="needs sympy")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    seq=st.one_of(
        st.lists(st.integers(1, 9), max_size=8),  # repeats likely
        st.lists(st.integers(1, 20), max_size=9, unique=True),
    )
)
def test_normalize_sign_is_sympys_permutation_signature(seq):
    assert normalize(seq) == (tuple(sorted(seq)), sympy_sign(seq))

# --- graded span ranks -----------------------------------------------------

COMPLEX_PATTERN_RELATIONS = [
    elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1)),
    elem(((1, 2), 1), ((1, 4), -1), ((2, 4), 1)),
    elem(((1, 3), 1), ((1, 4), -1), ((3, 4), 1)),
    elem(((2, 3), 1), ((2, 4), -1), ((3, 4), 1)),
]


def reduced_slices(generators, n):
    """Rank and reduced echelon basis of each slice the pass builds, as ExtElements."""
    out = []
    for p, echelon in enumerate(ideal_slices(generators, n)):
        cols = monomials(n, p)
        basis = [
            ExtElement(tuple((cols[j], row[j]) for j in sorted(row)))
            for row in reduced_echelon(echelon)
        ]
        out.append((len(echelon), basis))
    return out


def test_ideal_ranks_slices():
    rels = COMPLEX_PATTERN_RELATIONS
    assert ideal_ranks(rels, 4) == (0, 0, 3, 4, 1)
    assert ideal_ranks([], 4) == (0, 0, 0, 0, 0)
    assert [rank for rank, _ in reduced_slices([], 4)] == [0] * 5


def test_reduced_slice_basis_spans():
    rels = COMPLEX_PATTERN_RELATIONS
    rank2, basis = reduced_slices(rels, 4)[2]
    assert len(basis) == rank2
    # basis elements are integer, primitive, and inside the slice
    assert reduced_slices(basis, 4)[2] == (rank2, basis)
    for b in basis:
        assert b.degree == 2


def test_pass_stops_after_the_first_full_slice():
    gens = [E((1,)), E((2,))]
    assert [len(e) for e in ideal_slices(gens, 4)] == [0, 2, 5, 4]
    assert ideal_ranks(gens, 4) == (0, 2, 5, 4, 1)
    gens = [E((a,)) for a in range(1, 5)]
    assert [len(e) for e in ideal_slices(gens, 4)] == [0, 4]
    assert ideal_ranks(gens, 4) == (0, 4, 6, 4, 1)
    assert [len(e) for e in ideal_slices([E(())], 4)] == [1]
    assert ideal_ranks([E(())], 4) == (1, 4, 6, 4, 1)


def test_a_full_slice_is_built_with_no_cancel_step(monkeypatch):
    """A rank-r arrangement's pass ends on its degree r + 1 slice, all of E^(r + 1): its unit-lead
    rows lead at every monomial, so its basis is the identity and no `linalg._cancel` step runs."""
    steps = []
    cancel = linalg._cancel
    monkeypatch.setattr(linalg, "_cancel", lambda r, b, c: steps.append(c) or cancel(r, b, c))
    for arr, rank in ((braid_a4(), 4), (generic_lines(7, seed=3), 2)):
        slices, counts = [], []  # counts[p]: the steps run once slice p is built
        for echelon in ideal_slices(full_presentation(arr).elements(), arr.n):
            slices.append(echelon)
            counts.append(len(steps))
        assert len(slices) == rank + 2
        assert slices[-1] == [{j: 1} for j in range(comb(arr.n, rank + 1))]
        assert counts[-3] < counts[-2] == counts[-1]  # the slice below the full one has steps


def test_monomials_lexicographic():
    assert monomials(4, 2) == tuple(itertools.combinations(range(1, 5), 2))
    assert monomials(3, 0) == ((),)


# --- the sparse slice kernel against the dense Fraction path -------------------

# Slices up to this many cells go through the dense rref; larger ones through
# sympy's sparse rref over QQ, because the dense Fraction rref takes minutes
# on the n = 9, 10 slices.
DENSE_CELLS = 40_000


def slice_rows(generators, p, n):
    """Rows g ^ m of the degree-p slice as {column: coefficient} dicts, built with the reference wedge."""
    cols = monomials(n, p)
    index = {m: j for j, m in enumerate(cols)}
    rows = []
    for g in generators:
        if g.is_zero or g.degree > p:
            continue
        for m in monomials(n, p - g.degree):
            w = wedge(g, E(m))
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
    return from_terms({m: c // g for m, c in zip(cols, ints) if c})


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
    """Each slice the pass builds, reduced, is the reference's; the slices past its end are full."""
    built = reduced_slices(generators, n)
    for p in range(n + 1):
        expected = reference_span(generators, p, n)
        if expected is None:
            continue
        if p < len(built):
            assert built[p] == expected, p
        else:
            assert expected[0] == comb(n, p), p


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
            ranks = ideal_ranks(gens, n)
            for p in range(n + 1):
                cols, rows = slice_rows(gens, p, n)
                if rows and p <= 4:
                    assert ranks[p] == sympy.Matrix(dense(rows, len(cols))).rank()


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_slice_kernel_matches_dense_path_on_generic_lines(n):
    arr = generic_lines(n, seed=n, conjugate_last=n % 2 == 0)
    assert_matches_reference(full_presentation(arr).elements(), n)


def test_slice_rows_skip_zero_generators_and_reject_mixed_degrees():
    rels = COMPLEX_PATTERN_RELATIONS
    assert list(ideal_slices(rels + [zero()], 4)) == list(ideal_slices(rels, 4))
    with pytest.raises(ValueError):
        next(ideal_slices([elem(((1,), 1), ((2, 3), 1))], 4))


# --- slices grown degree by degree ------------------------------------------------


def direct_ranks(generators, n):
    """Each slice's rank from all generators at once, degree by degree.

    The one-shot reference for the grown slices: one row g ^ m per generator g
    and monomial m of complementary degree.
    """
    masked = exterior._masked(generators)
    ranks = []
    for p in range(n + 1):
        column = exterior._columns(n, p)
        rows = (
            exterior._product(g, [(bitmask(m), 1)], column)
            for q, g in masked
            if q <= p
            for m in monomials(n, p - q)
        )
        ranks.append(len(sparse_echelon(rows)))
    return tuple(ranks)


def test_grown_slices_match_direct_ranks_on_random_generators():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 7)
        gens = [
            random_element(rng, n, rng.randint(0, min(4, n)), rng.randint(1, 4))
            for _ in range(rng.randint(0, 6))
        ]
        gens += [zero()] * rng.randint(0, 2)
        rng.shuffle(gens)
        assert ideal_ranks(gens, n) == direct_ranks(gens, n), gens
        # each slice is already reduced: kappa reads the degree-2 basis as it is
        for echelon in ideal_slices(gens, n):
            assert reduced_echelon(echelon) == echelon, gens


def test_grown_slices_reject_mixed_degrees():
    mixed = elem(((1,), 1), ((2, 3), 1))
    with pytest.raises(ValueError):
        ideal_ranks(COMPLEX_PATTERN_RELATIONS + [mixed], 4)


def test_grown_slices_feed_the_kernel_few_rows(monkeypatch):
    """Degree p eliminates at most rank(I^(p-1)) * n + #R_p rows."""
    fed = []

    def counting(rows):
        seen = []
        out = reduced_echelon(seen.append(r) or r for r in rows)
        fed.append(len(seen))
        return out

    monkeypatch.setattr(exterior, "reduced_echelon", counting)
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
    """Row i of `gram_rows` holds the degree-4 part of each x_i ^ x_j at columns j * C(n, 4) + k."""
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(4, 7)
        basis = [random_element(rng, n, rng.randint(1, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        mons4 = monomials(n, 4)
        expected = [
            {j * len(mons4) + k: c for j, y in enumerate(basis) for k, c in enumerate(coeff_vector(wedge(x, y), mons4)) if c}
            for x in basis
        ]
        assert [{k: c for k, c in row.items() if c} for row in gram_rows(basis, n)] == expected


def test_gram_rows_multiply_each_pair_once(monkeypatch):
    """b_j ^ b_i is b_i ^ b_j up to sign, so m elements take m(m + 1)/2 products, not m^2."""
    calls = []
    product = exterior._product
    monkeypatch.setattr(exterior, "_product", lambda *args: calls.append(args) or product(*args))
    rng = random.Random(44)
    for m in range(6):
        basis = [random_element(rng, 6, rng.randint(1, 3)) for _ in range(m)]
        calls.clear()
        rows = gram_rows(basis, 6)
        assert len(calls) == m * (m + 1) // 2
        assert len(rows) == m


def test_gram_rows_reject_a_mixed_element():
    with pytest.raises(ValueError, match="homogeneous"):
        gram_rows([from_terms({(1,): 1, (1, 2): 1})], 4)
