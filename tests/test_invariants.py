import importlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from twoarr.arrangement import Arrangement, parse_arrangement
from twoarr.restriction import restrict, serialize_arrangement
from twoarr.exterior import monomials
from twoarr.invariants import (
    DimensionNot4,
    KappaForm,
    VERDICT_DISTINGUISHED,
    VERDICT_UNRESOLVED,
    compare,
    kappa,
    kappa_rank,
    pairwise_linking,
    triple_coefficients,
)
import twoarr
from twoarr import cli, exterior, invariants, linalg, presentation
from twoarr.linalg import sparse_echelon
from twoarr.presentation import full_presentation, ideal_rank_profile
from twoarr.matroid import SizeMismatch
from test_presentation import complex_line_arrangement, recombined
from conftest import braid_a4, generic_lines, graphic, pair
from test_matroid import GRAPHS
from dense_reference import det as dense_det
from exterior_reference import add, coeff_vector, monomial, scale, wedge, zero


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


def wedge_gram(basis, n):
    """Coefficient vectors of each product x ^ y over the degree-4 monomials, by
    tests/exterior_reference.py: the dense Gram, from code that shares nothing with
    the package's."""
    mons4 = monomials(n, 4)
    return tuple(tuple(coeff_vector(wedge(x, y), mons4) for y in basis) for x in basis)


def rank_of(rows):
    """Rank over Q of dense integer rows."""
    return len(sparse_echelon(dict(enumerate(r)) for r in rows))


def flat_rank(gram):
    """Rank over Q of a dense Gram, each row i flattened over j."""
    return rank_of(tuple(itertools.chain.from_iterable(row)) for row in gram)


def test_kappa_vanishes_for_complexified(arr_b):
    form = kappa(arr_b)
    assert len(form.basis) == 3
    assert form.gram() == ((0, 0, 0),) * 3
    assert kappa_rank(form) == 0


def test_kappa_rank_two(arr_bprime):
    form = kappa(arr_bprime)
    assert len(form.basis) == 3
    assert kappa_rank(form) == 2
    gram = form.gram()
    assert gram == tuple(zip(*gram))  # symmetric


def test_kappa_empty_degree_two_slice(arr_bhat):
    # all circuits have four members, so the degree-2 slice is zero
    form = kappa(arr_bhat)
    assert form.basis == ()
    assert kappa_rank(form) == 0


def test_kappa_restriction(arr_bhat, arr_bhat_complex):
    assert kappa_rank(kappa(restrict(arr_bhat, "H3"))) == 2
    assert kappa_rank(kappa(restrict(arr_bhat_complex, "H3"))) == 0


def test_kappa_builds_no_slice_above_degree_two(monkeypatch, arr_bprime, arr_bhat):
    degrees = []
    columns = exterior._columns  # called once per degree the pass builds
    monkeypatch.setattr(exterior, "_columns", lambda n, p: degrees.append(p) or columns(n, p))
    for arr in (arr_bprime, arr_bhat, generic_lines(7, seed=3)):
        degrees.clear()
        kappa(arr)
        assert degrees == [0, 1, 2]


def test_kappa_basis_after_a_full_lower_slice():
    """A zero member is a loop, whose relation is 1 in degree 0: the pass ends on that
    full slice, and every degree-2 monomial is in the basis. Parsing rejects a loop;
    an `Arrangement` built in code may hold one."""
    zero = (0,) * 4
    members = (pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)), pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)), pair("Z", zero, zero))
    looped = Arrangement(4, members)
    assert [str(e) for e in full_presentation(looped).elements()] == ["+1"]
    assert kappa(looped).basis == tuple(monomial(m) for m in monomials(3, 2))


def test_kappa_gram_against_shuffle_oracle(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        form = kappa(arr)
        gram = form.gram()
        for i, bi in enumerate(form.basis):
            for j, bj in enumerate(form.basis):
                assert (gram[i][j],) == kappa_entry_oracle(bi, bj, arr.n)


def test_kappa_rank_invariant_under_basis_change(arr_bprime):
    rng = random.Random(61)
    form = kappa(arr_bprime)
    base_rank = kappa_rank(form)
    k = len(form.basis)
    for _ in range(100):
        while True:
            t = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if rank_of(t) == k:
                break
        new_basis = []
        for row in t:
            acc = zero()
            for coeff, b in zip(row, form.basis):
                acc = add(acc, scale(b, coeff))
            new_basis.append(acc)
        assert flat_rank(wedge_gram(new_basis, arr_bprime.n)) == base_rank
        assert kappa_rank(KappaForm(arr_bprime.n, tuple(new_basis))) == base_rank


KAPPA_RANK_CASES = {
    "braid-a4": braid_a4,
    "wheel-w5": lambda: graphic(*GRAPHS["wheel W_5"]),
    "prism": lambda: graphic(*GRAPHS["triangular prism"]),
} | {
    f"lines{n}-conj{int(conj)}": lambda n=n, conj=conj: generic_lines(n, seed=3, conjugate_last=conj)
    for n in (7, 8, 10, 12)
    for conj in (False, True)
}


@pytest.mark.parametrize("case", ["fixtures", *KAPPA_RANK_CASES])
def test_sparse_kappa_rank_matches_the_dense_rank(case, arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    """kappa_rank on the sparse Gram rows equals the rank of the dense Gram of wedge products."""
    if case == "fixtures":
        arrs = [arr_b, arr_bprime, arr_bhat, arr_bhat_complex]
    else:
        arrs = [KAPPA_RANK_CASES[case]()]
    for arr in arrs:
        form = kappa(arr)
        assert kappa_rank(form) == flat_rank(wedge_gram(form.basis, arr.n))


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
    """Complex lines through 0 in C^2 meet S^3 in Hopf fibres, which link +1 pairwise;
    each table, timed from parsing, takes under 10 s."""
    for text in map(serialize_arrangement, (arr_b, generic_lines(12, 3), generic_lines(30, 3))):
        start = time.perf_counter()
        arr = parse_arrangement(text)
        lk = pairwise_linking(arr)
        elapsed = time.perf_counter() - start
        assert lk == tuple(tuple(int(a != b) for b in range(arr.n)) for a in range(arr.n))
        assert elapsed < 10.0, f"{elapsed:.2f} s"


def linking_sign(rows):
    """The linking sign of two members whose 2x4 form blocks stack to `rows`.

    The arrangement is built directly, neither parsed nor validated, so a
    singular pair is allowed; its sign is 0.
    """
    arr = Arrangement(4, (pair("A", rows[0], rows[1]), pair("B", rows[2], rows[3])))
    return pairwise_linking(arr)[0][1]


def sign(x):
    return (x > 0) - (x < 0)


def test_linking_examples():
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    assert linking_sign(e) == 1
    assert linking_sign([e[0], e[1], e[3], e[2]]) == -1
    assert linking_sign([["1/2", 0, 0, 0], [0, "-1/2", 0, 0], e[2], e[3]]) == -1  # rational rows
    assert linking_sign([(0, 0, 1, 0), (0, 0, 0, 1), (-2, 0, 1, 0), (0, 2, 0, 1)]) == -1  # B' H2, H4
    assert linking_sign([e[0], e[1], e[0], e[3]]) == 0


def test_linking_matches_cofactor_expansion():
    rng = random.Random(13)
    singular = 0
    for _ in range(2000):
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        expected = sign(dense_det(rows))
        assert linking_sign(rows) == expected
        singular += expected == 0
    assert singular > 100


def test_linking_matches_sympy_on_singular_pairs_zero_leading_columns_and_rational_rows():
    """Rational rows are scaled to integers by positive factors, which keep the sign."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(89)
    singular = swapped = 0
    for _ in range(300):
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(4)] for _ in range(4)]
        kind = rng.randrange(3)
        if kind == 0:  # a row that is a combination of two others
            i, j, k = rng.sample(range(4), 3)
            c = Fraction(rng.randint(-3, 3))
            rows[k] = [c * a + Fraction(1, 2) * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:  # zero leading entries, up to a zero leading column
            for r in rows[: rng.randint(1, 4)]:
                r[0] = Fraction(0)
        expected = int(sympy.sign(sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).det()))
        assert linking_sign(rows) == expected
        singular += expected == 0
        swapped += rows[0][0] == 0 and expected != 0
    assert singular > 50 and swapped > 50


def test_pairwise_linking_runs_no_elimination(monkeypatch, arr_bprime):
    expected = pairwise_linking(arr_bprime)

    def no_elimination(*args):
        raise AssertionError("elimination in pairwise_linking")

    for name in ("_keep", "_cancel"):
        monkeypatch.setattr(linalg, name, no_elimination)
    assert pairwise_linking(Arrangement(4, arr_bprime.subspaces)) == expected


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
    from twoarr.restriction import serialize_arrangement

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


def test_two_members_have_a_linking_table_and_no_triples(capsys, tmp_path, independent_pair):
    """Two members give the Hopf link: one pairwise sign, and no triples for `linking` or `compare`."""
    from twoarr.restriction import serialize_arrangement

    path = tmp_path / "pair.arr"
    path.write_text(serialize_arrangement(independent_pair))
    assert triple_coefficients(independent_pair) == {}
    assert cli.main(["linking", str(path)]) == 0
    assert capsys.readouterr() == ("pairwise:\n  . +\n  + .\ntriples:\n", "")
    assert cli.main(["linking", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out), err) == ({"linking": {"pairwise": [[0, 1], [1, 0]], "triples": []}}, "")
    assert cli.main(["compare", str(path), str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[4] == "triple multisets: () vs ()" and err == ""
    assert cli.main(["compare", str(path), str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["triples"] == [[], []]


def test_kappa_gram_matches_wedge_products(arr_b, arr_bprime):
    """`gram()` holds each product's one integer at n = 4 and its degree-4 vector otherwise."""
    for arr in (arr_b, arr_bprime):
        form = kappa(arr)
        assert form.gram() == tuple(tuple(x for (x,) in row) for row in wedge_gram(form.basis, arr.n))
    for arr in (generic_lines(8, seed=3), generic_lines(8, seed=3, conjugate_last=True)):
        form = kappa(arr)
        assert form.basis and form.gram() == wedge_gram(form.basis, arr.n)


@pytest.mark.parametrize("conjugate_last", [False, True], ids=["z-linear", "conj"])
def test_kappa_json_gram_matches_wedge_products(conjugate_last, capsys, tmp_path):
    """The vector Gram that `kappa --format json` prints, which no golden holds for n > 4."""
    from twoarr.restriction import serialize_arrangement

    arr = generic_lines(8, 3, conjugate_last=conjugate_last)
    path = tmp_path / "lines8.arr"
    path.write_text(serialize_arrangement(arr))
    assert cli.main(["kappa", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)["kappa"]
    basis = kappa(arr).basis
    assert doc["basis"] == [str(b) for b in basis] and not doc["scalar"]
    assert doc["gram"] == json.loads(json.dumps(wedge_gram(basis, arr.n)))
    assert any(x for row in doc["gram"] for vec in row for x in vec)


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


def test_compare_runs_one_graded_pass_per_arrangement(monkeypatch):
    """Both the ideal ranks row and the kappa ranks row read it."""
    passes = []
    real = exterior.ideal_slices
    monkeypatch.setattr(exterior, "ideal_slices", lambda gens, n: passes.append(n) or real(gens, n))
    pair = (generic_lines(7, seed=3), generic_lines(7, seed=3, conjugate_last=True))
    report = compare(*pair)
    assert passes == [7, 7]
    assert report.ideal_ranks == tuple(ideal_rank_profile(full_presentation(a)) for a in pair)
    assert report.kappa_ranks == tuple(kappa_rank(kappa(a)) for a in pair)
    assert report.verdict == VERDICT_DISTINGUISHED


def test_compare_size_mismatch(arr_b, arr_bhat):
    with pytest.raises(SizeMismatch, match=f"^{arr_b.n} vs {arr_bhat.n} subspaces$"):
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
        raise AssertionError("Fraction elimination or Fraction signs on a hot path")

    monkeypatch.setattr(presentation, "Fraction", forbidden)

    # no module of the package binds a dense Fraction eliminator, nor the Fraction
    # kernel path and second rank routine that restrict once had
    dense = {"Matrix", "rref", "solve_unique", "kernel_basis", "_kernel_basis", "dot", "integer_rank"}
    for name in ("arrangement", "exterior", "invariants", "linalg", "matroid", "presentation", "cli", "restriction",
                 *(f"verbs.{verb}" for verb in cli.VERBS)):
        importlib.import_module(f"twoarr.{name}")
    modules = [m for name, m in sys.modules.items() if name == "twoarr" or name.startswith("twoarr.")]
    assert len(modules) >= 21
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
