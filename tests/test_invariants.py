import importlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from twoarr.arrangement import Arrangement, restrict
from twoarr.exterior import ExtElement, gram_of_basis, monomials
from twoarr.invariants import (
    DimensionNot4,
    VERDICT_DISTINGUISHED,
    VERDICT_UNRESOLVED,
    compare,
    kappa,
    kappa_rank,
    pairwise_linking,
    triple_coefficients,
)
import twoarr
from twoarr import cli, invariants, presentation
from twoarr.linalg import integer_rank
from twoarr.presentation import full_presentation, ideal_rank_profile
from twoarr.matroid import SizeMismatch
from test_presentation import complex_line_arrangement, recombined
from conftest import braid_a4, generic_lines


def kappa_entry_oracle(u, v, n):
    """Degree-4 coefficients of u ^ v via explicit shuffle parities."""
    acc = {}
    for s, cu in u.terms:
        for t, cv in v.terms:
            if set(s) & set(t):
                continue
            merged = list(s + t)
            sign = 1
            for i in range(len(merged)):
                for j in range(len(merged) - 1 - i):
                    if merged[j] > merged[j + 1]:
                        merged[j], merged[j + 1] = merged[j + 1], merged[j]
                        sign = -sign
            key = tuple(merged)
            acc[key] = acc.get(key, 0) + sign * cu * cv
    return tuple(acc.get(m, 0) for m in monomials(n, 4))


def test_kappa_vanishes_for_complexified(arr_b):
    form = kappa(arr_b)
    assert len(form.basis) == 3
    assert all(all(x == 0 for x in vec) for row in form.gram for vec in row)
    assert kappa_rank(form) == 0


def test_kappa_rank_two(arr_bprime):
    form = kappa(arr_bprime)
    assert len(form.basis) == 3
    assert kappa_rank(form) == 2
    gram = form.scalar_gram()
    assert gram == tuple(zip(*gram))  # symmetric


def test_kappa_empty_degree_two_slice(arr_bhat):
    # all circuits have four members, so the degree-2 slice is zero
    form = kappa(arr_bhat)
    assert form.basis == ()
    assert kappa_rank(form) == 0


def test_kappa_restriction(arr_bhat, arr_bhat_complex):
    assert kappa_rank(kappa(restrict(arr_bhat, "H3"))) == 2
    assert kappa_rank(kappa(restrict(arr_bhat_complex, "H3"))) == 0


def test_kappa_gram_against_shuffle_oracle(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        form = kappa(arr)
        for i, bi in enumerate(form.basis):
            for j, bj in enumerate(form.basis):
                assert form.gram[i][j] == kappa_entry_oracle(bi, bj, arr.n)


def test_kappa_rank_invariant_under_basis_change(arr_bprime):
    rng = random.Random(61)
    form = kappa(arr_bprime)
    base_rank = kappa_rank(form)
    k = len(form.basis)
    for _ in range(100):
        while True:
            t = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if integer_rank(t) == k:
                break
        new_basis = []
        for row in t:
            acc = ExtElement.zero()
            for coeff, b in zip(row, form.basis):
                acc = acc + b.scale(coeff)
            new_basis.append(acc)
        gram = gram_of_basis(new_basis, arr_bprime.n)
        rows = [tuple(itertools.chain.from_iterable(r)) for r in gram]
        assert integer_rank(rows) == base_rank


KAPPA_RANK_CASES = {"braid-a4": braid_a4} | {
    f"lines{n}-conj{int(conj)}": lambda n=n, conj=conj: generic_lines(n, seed=3, conjugate_last=conj)
    for n in (7, 8, 10, 12)
    for conj in (False, True)
}


@pytest.mark.parametrize("case", ["fixtures", *KAPPA_RANK_CASES])
def test_sparse_kappa_rank_matches_the_dense_rank(case, arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    """kappa_rank on sparse Gram rows equals integer_rank on the dense flattened rows."""
    if case == "fixtures":
        arrs = [arr_b, arr_bprime, arr_bhat, arr_bhat_complex]
    else:
        arrs = [KAPPA_RANK_CASES[case]()]
    for arr in arrs:
        form = kappa(arr)
        dense = integer_rank(tuple(itertools.chain.from_iterable(row)) for row in form.gram)
        assert kappa_rank(form) == dense


def test_kappa_rank_invariant_under_relabeling(arr_b, arr_bprime):
    rng = random.Random(67)
    for arr in (arr_b, arr_bprime):
        expected = kappa_rank(kappa(arr))
        for _ in range(20):
            perm = list(arr.subspaces)
            rng.shuffle(perm)
            shuffled = Arrangement(arr.dim, tuple(perm))
            assert kappa_rank(kappa(shuffled)) == expected


def test_kappa_vanishes_for_random_complex_lines():
    rng = random.Random(71)
    for _ in range(100):
        lambdas = rng.sample(range(-15, 16), 3)
        arr = complex_line_arrangement(lambdas)
        assert kappa_rank(kappa(arr)) == 0


# --- linking ------------------------------------------------------------------


def test_pairwise_all_plus_for_complexified(arr_b):
    lk = pairwise_linking(arr_b)
    for a in range(4):
        for b in range(4):
            assert lk[a][b] == (1 if a != b else 0)


def test_pairwise_bprime_values(arr_bprime):
    lk = pairwise_linking(arr_bprime)
    assert lk[0][1] == lk[0][2] == lk[1][2] == 1
    assert lk[0][3] == 1
    assert lk[1][3] == -1
    assert lk[2][3] == -1
    assert lk == tuple(zip(*lk))  # symmetric


def test_pairwise_needs_dim4(arr_bhat):
    with pytest.raises(DimensionNot4):
        pairwise_linking(arr_bhat)


def test_triples(arr_b, arr_bprime):
    assert set(triple_coefficients(arr_b).values()) == {1}
    coeffs = triple_coefficients(arr_bprime)
    assert coeffs == {(1, 2, 3): 1, (1, 2, 4): -1, (1, 3, 4): -1, (2, 3, 4): 1}


def test_triples_complex_lines_all_plus():
    rng = random.Random(73)
    for _ in range(50):
        lambdas = rng.sample(range(-10, 11), 3)
        arr = complex_line_arrangement(lambdas)
        assert set(triple_coefficients(arr).values()) == {1}


def test_swap_flips_pairwise_but_not_triples(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        base_lk = pairwise_linking(arr)
        base_triples = triple_coefficients(arr)
        for k in range(arr.n):
            swapped_pairs = list(arr.subspaces)
            p = swapped_pairs[k]
            swapped_pairs[k] = type(p)(p.name, p.second, p.first)
            swapped = Arrangement(arr.dim, tuple(swapped_pairs))
            lk = pairwise_linking(swapped)
            for a in range(arr.n):
                for b in range(arr.n):
                    if a == b:
                        continue
                    expected = -base_lk[a][b] if k in (a, b) else base_lk[a][b]
                    assert lk[a][b] == expected
            assert triple_coefficients(swapped) == base_triples


def test_positive_recombination_keeps_pairwise(arr_bprime):
    rng = random.Random(79)
    base = pairwise_linking(arr_bprime)
    for _ in range(100):
        mats = []
        for _ in range(arr_bprime.n):
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d - b * c > 0:
                    break
            mats.append((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))
        assert pairwise_linking(recombined(arr_bprime, mats)) == base


def test_linking_verb_computes_the_table_once(monkeypatch, capsys, tmp_path, arr_bprime):
    from twoarr.arrangement import serialize_arrangement

    path = tmp_path / "bprime.arr"
    path.write_text(serialize_arrangement(arr_bprime))
    expected = triple_coefficients(arr_bprime)
    calls = []
    table = invariants.pairwise_linking
    monkeypatch.setattr(invariants, "pairwise_linking", lambda a: calls.append(a) or table(a))
    assert cli.main(["linking", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)["linking"]
    assert len(calls) == 1
    assert {tuple(t["triple"]): t["sign"] for t in doc["triples"]} == expected


def test_linking_verb_needs_three_subspaces(capsys, tmp_path, independent_pair):
    from twoarr.arrangement import serialize_arrangement

    path = tmp_path / "pair.arr"
    path.write_text(serialize_arrangement(independent_pair))
    assert cli.main(["linking", str(path)]) == 3
    assert capsys.readouterr().err == "error: need at least three subspaces\n"


def test_kappa_gram_matches_wedge_products(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime, generic_lines(8, seed=3), generic_lines(8, seed=3, conjugate_last=True)):
        form = kappa(arr)
        mons4 = monomials(arr.n, 4)
        assert form.gram == tuple(
            tuple(bi.wedge(bj).coeff_vector(mons4) for bj in form.basis) for bi in form.basis
        )


def test_triple_is_product_of_pairwise(arr_bprime):
    lk = pairwise_linking(arr_bprime)
    for (a, b, c), s in triple_coefficients(arr_bprime).items():
        assert s == lk[a - 1][b - 1] * lk[a - 1][c - 1] * lk[b - 1][c - 1]


# --- comparison ----------------------------------------------------------------


def test_compare_distinguishes(arr_b, arr_bprime):
    report = compare(arr_b, arr_bprime)
    assert report.matroids_equal
    assert report.betti[0] == report.betti[1]
    assert report.kappa_ranks == (0, 2)
    assert report.verdict == VERDICT_DISTINGUISHED
    assert "kappa-rank" in report.differing


def test_compare_self(arr_b):
    report = compare(arr_b, arr_b)
    assert report.verdict == VERDICT_UNRESOLVED
    assert report.differing == ()


def test_compare_bprime_with_restriction(arr_bprime, arr_bhat):
    report = compare(arr_bprime, restrict(arr_bhat, "H3"))
    assert report.verdict == VERDICT_UNRESOLVED
    assert report.kappa_ranks == (2, 2)
    assert report.triple_multisets[0] == report.triple_multisets[1] == (-1, -1, 1, 1)


def test_compare_size_mismatch(arr_b, arr_bhat):
    with pytest.raises(SizeMismatch):
        compare(arr_b, arr_bhat)


def test_compare_permutation_search(arr_b):
    rotated = Arrangement(arr_b.dim, tuple(arr_b.subspaces[1:] + arr_b.subspaces[:1]))
    report = compare(arr_b, rotated, permutation_search=True)
    assert report.matroids_equal
    assert report.verdict == VERDICT_UNRESOLVED


# --- no Fraction elimination on the slice and presentation paths ---------------


def test_slices_and_presentations_never_eliminate_over_fraction(
    monkeypatch, arr_b, arr_bprime, arr_bhat, arr_bhat_complex
):
    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction elimination, Fraction signs or ExtElement.wedge on a hot path")

    monkeypatch.setattr(ExtElement, "wedge", forbidden)
    monkeypatch.setattr(presentation, "Fraction", forbidden)

    # no module of the package binds a dense Fraction eliminator
    dense = {"Matrix", "rref", "solve_unique", "kernel_basis"}
    for name in ("arrangement", "exterior", "invariants", "linalg", "matroid", "presentation", "cli"):
        importlib.import_module(f"twoarr.{name}")
    modules = [m for name, m in sys.modules.items() if name == "twoarr" or name.startswith("twoarr.")]
    assert len(modules) >= 8
    for module in modules:
        assert not dense & set(vars(module)), module.__name__
    assert not any(hasattr(twoarr, name) for name in dense)
    lines = generic_lines(7, seed=3)
    lines_conj = generic_lines(7, seed=3, conjugate_last=True)
    for arr in (arr_b, arr_bprime, arr_bhat, arr_bhat_complex, lines, lines_conj):
        ideal_rank_profile(full_presentation(arr))
        kappa(arr)
    assert compare(arr_b, arr_bprime).verdict == VERDICT_DISTINGUISHED
    assert compare(arr_bhat, arr_bhat_complex).verdict == VERDICT_UNRESOLVED
    assert compare(lines, lines_conj).verdict == VERDICT_DISTINGUISHED
