"""Acceptance suite: one test per acceptance criterion, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion.
"""

import itertools
import random
from fractions import Fraction
from math import comb

from twoarr.restriction import restrict
from twoarr.exterior import ideal_ranks, monomials
from twoarr.invariants import (
    VERDICT_DISTINGUISHED,
    compare,
    kappa,
    kappa_rank,
    triple_coefficients,
)
from twoarr.matroid import (
    betti_vector,
    circuits,
    closure,
    flats,
    matroid_rank,
    nbc_sets,
    same_labeled_matroid,
    whitney_numbers,
)
from twoarr.presentation import (
    circuit_dependencies,
    full_presentation,
    ideal_rank_profile,
)
from dense_reference import rank as dense_rank
from conftest import elem
from exterior_reference import coeff_vector
from test_presentation import (
    flip_generators,
    random_gl2,
    recombined,
    reconstruct_zero,
    span_signature,
)


def report(criterion, text):
    print(f"criterion {criterion}: PASS ({text})")


def degree2_rank(elements, n):
    rows = [coeff_vector(e, monomials(n, 2)) for e in elements]
    return dense_rank(rows)


def test_criterion_01_complex_mode_relations_exact(arr_b):
    pres = full_presentation(arr_b, "complex")
    expected = [
        elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1)),
        elem(((1, 2), 1), ((1, 4), -1), ((2, 4), 1)),
        elem(((1, 3), 1), ((1, 4), -1), ((3, 4), 1)),
        elem(((2, 3), 1), ((2, 4), -1), ((3, 4), 1)),
    ]
    assert [r.element for r in pres.relations] == expected
    assert [r.circuit for r in pres.relations] == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    ]
    # the last relation is a consequence of the first three
    first_three = degree2_rank(expected[:3], 4)
    all_four = degree2_rank(expected, 4)
    assert first_three == all_four == 3
    report(1, "complex-mode relations match the expected display; fourth dependent")


def test_criterion_02_real_pipeline_on_complex_input(arr_b):
    pres = full_presentation(arr_b)
    assert all(s == 1 for rel in pres.relations for s in rel.signs)
    report(2, "real pipeline on z-linear input yields all +1 signs")


def test_criterion_03_kappa_ranks_and_verdict(arr_b, arr_bprime):
    assert kappa_rank(kappa(arr_b)) == 0
    assert kappa_rank(kappa(arr_bprime)) == 2
    rep = compare(arr_b, arr_bprime)
    assert rep.verdict == VERDICT_DISTINGUISHED
    report(3, "kappa ranks 0 vs 2; compare says DISTINGUISHED")


def test_criterion_04_nbc_and_betti(arr_b, arr_bprime):
    expected_nbc = [(), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]
    for arr in (arr_b, arr_bprime):
        assert nbc_sets(arr).all_sets() == expected_nbc
        betti = betti_vector(arr)
        padded = betti + (0,) * (arr.dim + 1 - len(betti))
        assert padded == (1, 4, 3, 0, 0)
        assert whitney_numbers(arr) == betti
    report(4, "NBC complex, betti (1,4,3,0,0) and Whitney check")


def test_criterion_05_ideal_rank_profile(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        pres = full_presentation(arr)
        assert ideal_rank_profile(pres) == (0, 3, 4, 1)
    report(5, "ideal ranks (0,3,4,1) in degrees 1..4 for both cases")


def test_criterion_06_restriction_pipeline(arr_b, arr_bhat, arr_bhat_complex):
    restricted = restrict(arr_bhat, "H3")
    assert restricted.dim == 4 and restricted.n == 4
    assert same_labeled_matroid(restricted, arr_b)
    assert kappa_rank(kappa(restricted)) == 2
    restricted_complex = restrict(arr_bhat_complex, "H3")
    assert kappa_rank(kappa(restricted_complex)) == 0
    report(6, "restriction gives kappa rank 2; complex analog gives 0")


def test_criterion_07_triple_multisets(arr_b, arr_bprime):
    triples_b = triple_coefficients(arr_b)
    assert sorted(triples_b.values()) == [1, 1, 1, 1]
    triples_bp = triple_coefficients(arr_bprime)
    assert sorted(triples_bp.values()) == [-1, -1, 1, 1]
    assert triples_bp[(1, 2, 4)] == -1
    assert triples_bp[(1, 3, 4)] == -1
    report(7, "triple multisets {+1 x4} vs {+1,+1,-1,-1} at {1,2,4},{1,3,4}")


def test_criterion_08a_dependency_exactness(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    checked = 0
    for arr in (arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
        for c in circuits(arr):
            dep = circuit_dependencies(arr, c)
            assert reconstruct_zero(arr, dep)
            for al, be, ga, de in dep.quads:
                assert al * de - be * ga != 0
            checked += 1
    assert checked >= 18  # 4 + 4 + 5 + 5 circuits
    report("8a", f"dependency exactness and nonzero blocks on {checked} circuits")


def test_criterion_08b_form_rechoice_equivariance(arr_b, arr_bprime, arr_bhat):
    rng = random.Random(83)
    arrangements = [arr_b, arr_bprime, restrict(arr_bhat, "H3")]
    cases = 0
    for _ in range(120):
        arr = rng.choice(arrangements)
        mats, flips = [], {}
        for a in range(1, arr.n + 1):
            m, det = random_gl2(rng)
            mats.append(m)
            flips[a] = 1 if det > 0 else -1
        other = recombined(arr, mats)
        flipped = [flip_generators(r.element, flips) for r in full_presentation(arr).relations]
        fresh = [r.element for r in full_presentation(other).relations]
        assert span_signature(flipped, arr.n) == span_signature(fresh, arr.n)
        cases += 1
    assert cases >= 100
    report("8b", f"degree-2 span equivariance under {cases} random recombinations")


def test_criterion_08c_triple_invariance(arr_b, arr_bprime):
    rng = random.Random(89)
    cases = 0
    for arr in (arr_b, arr_bprime):
        base = triple_coefficients(arr)
        for _ in range(30):
            # random positive recombinations never move anything
            mats = []
            for _ in range(arr.n):
                while True:
                    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                    if a * d - b * c > 0:
                        break
                mats.append((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))
            assert triple_coefficients(recombined(arr, mats)) == base
            cases += 1
        # swapping the two forms of any one subspace changes no triple
        for k in range(arr.n):
            pairs = list(arr.subspaces)
            p = pairs[k]
            pairs[k] = type(p)(p.name, p.second, p.first)
            assert triple_coefficients(type(arr)(arr.dim, tuple(pairs))) == base
            cases += 1
    assert cases >= 60
    report("8c", f"triple coefficients stable under {cases} swaps/recombinations")


def test_criterion_08d_rank_nbc_identity(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    for arr in (arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
        pres = full_presentation(arr)
        counts = nbc_sets(arr).counts
        ranks = ideal_ranks(pres.elements(), pres.n)
        for p in range(arr.n + 1):
            nbc_p = counts[p] if p < len(counts) else 0
            assert ranks[p] + nbc_p == comb(arr.n, p)
    report("8d", "rank I^p + #NBC_p = C(n,p) in all degrees on all fixtures")


def test_criterion_08e_matroid_oracle_bruteforce(arr_b, arr_bprime, arr_bhat):
    for arr in (arr_b, arr_bprime, arr_bhat):
        assert arr.n <= 6
        subsets = [
            s
            for size in range(arr.n + 1)
            for s in itertools.combinations(range(1, arr.n + 1), size)
        ]
        brute_flats = {closure(arr, s) for s in subsets}
        assert {f.elements for g in flats(arr).flats_by_rank for f in g} == brute_flats
        brute_circuits = [
            s
            for s in subsets
            if matroid_rank(arr, s) < len(s)
            and all(
                matroid_rank(arr, tuple(e for e in s if e != x)) == len(s) - 1
                for x in s
            )
        ]
        assert circuits(arr) == sorted(brute_circuits)
    report("8e", "flats and circuits agree with 2^n brute force")


def test_criterion_09_sign_output_consistency(arr_b, arr_bprime):
    # sign-level output is accepted through the invariant suite plus the
    # consequence check: each fourth relation lies in the span of the others
    for arr in (arr_b, arr_bprime):
        pres = full_presentation(arr)
        elements = [r.element for r in pres.relations]
        assert degree2_rank(elements[:3], arr.n) == 3
        assert degree2_rank(elements, arr.n) == 3
        for rel in pres.relations:
            assert rel.signs[0] == 1
            assert all(abs(s) == 1 for s in rel.signs)
            assert sorted(abs(c) for _, c in rel.element.terms) == [1, 1, 1]
    report(9, "relation sets closed under circuit elimination; unit coefficients")
