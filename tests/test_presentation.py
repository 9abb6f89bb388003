import random
import time
from fractions import Fraction
from math import comb

import pytest

from twoarr import presentation
from twoarr.arrangement import Arrangement, ComplexFormSpec, SubspacePair, from_complex_form, parse_arrangement, validate
from twoarr.exterior import ideal_ranks
from twoarr.invariants import kappa, pairwise_linking
from twoarr.matroid import circuits, nbc_sets
from twoarr.presentation import (
    CircuitRelation,
    MODE_COMPLEX,
    MODE_REAL,
    ModeMismatch,
    NotACircuit,
    circuit_dependencies,
    full_presentation,
    ideal_rank_profile,
    normalize_signs,
)
from twoarr.restriction import serialize_arrangement
from conftest import braid_a4, elem, generic_hyperplanes, generic_lines, independent_pair, pair, reflection
from dense_reference import det
from test_exterior import direct_ranks, reference_span


def F(x):
    return Fraction(x)


def circuit_relation(arr, circuit):
    """The signed relation a circuit imposes, its signs solved whatever structure its members share."""
    c = presentation._checked_circuit(arr, circuit)
    return CircuitRelation(c, presentation._signs(c, presentation._solve(arr, c)))


# --- dependency solving ------------------------------------------------------


def test_dependencies_bprime_124(arr_bprime):
    dep = circuit_dependencies(arr_bprime, (1, 2, 4))
    assert dep.quads[0] == (F(-1), F(0), F(0), F(-1))
    assert dep.quads[1] == (F("1/2"), F(0), F(0), F("-1/2"))
    assert dep.quads[2] == (F("-1/2"), F(0), F(0), F("1/2"))


def test_dependencies_b_123(arr_b):
    dep = circuit_dependencies(arr_b, (1, 2, 3))
    assert dep.quads[1] == (F(1), F(0), F(0), F(1))
    assert dep.quads[2] == (F(-1), F(0), F(0), F(-1))


def test_dependencies_complex_input_shape(arr_b, arr_bhat_complex):
    # z-linear input forces (gamma, delta) = (-beta, alpha)
    for arr in (arr_b, arr_bhat_complex):
        for c in circuits(arr):
            dep = circuit_dependencies(arr, c)
            for al, be, ga, de in dep.quads[1:]:
                assert (ga, de) == (-be, al)


def test_dependencies_reject_non_circuit(arr_b):
    with pytest.raises(NotACircuit):
        circuit_dependencies(arr_b, (1, 2))
    with pytest.raises(NotACircuit):
        circuit_dependencies(arr_b, (1, 2, 3, 4))
    for not_one in ((1, 1, 2, 3), (0, 1, 2), (1, 2, 99)):
        with pytest.raises(NotACircuit, match="is not a circuit"):
            circuit_dependencies(arr_b, not_one)


def test_the_solves_check_their_own_invariants(arr_b):
    """The errors behind the circuit check and the parity gate: a subset that is not a
    circuit has no unique dependency, and a block with X Y' - X' Y = 0 (here 1 * 1 -
    1 * 1 in the first) has no sign."""
    for c in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=rf"^circuit \({', '.join(map(str, c))}\) has no unique dependency$"):
            presentation._solve(arr_b, c)
    rows = [{0: 1, 4: 1, 5: 1}, {1: 1, 4: 1, 5: 1}, {2: 1, 4: 1}, {3: 1, 5: 1}]
    with pytest.raises(ValueError, match=r"^degenerate coefficient block in circuit \(1, 2, 3\); "):
        presentation._signs((1, 2, 3), rows)


def test_a_zero_member_is_a_circuit_with_no_unknowns(arr_b):
    arr = Arrangement(4, arr_b.subspaces + (pair("H5", (0, 0, 0, 0), (0, 0, 0, 0)),))
    assert circuit_dependencies(arr, (5,)).quads == ((F(-1), F(0), F(0), F(-1)),)
    assert circuit_relation(arr, (5,)).element == elem(((), 1))


def test_circuits_may_come_as_any_iterable(arr_b):
    c = (1, 2, 3)
    assert c in circuits(arr_b)
    expected = circuit_dependencies(arr_b, c)
    for given in (iter(c), reversed(c), list(c), (x for x in c)):
        assert circuit_dependencies(arr_b, given) == expected
    assert circuit_relation(arr_b, iter(c)) == circuit_relation(arr_b, c)


def test_full_presentation_does_not_recheck_its_circuits(monkeypatch, arr_bprime, arr_bhat):
    expected = {arr: [circuit_relation(arr, c) for c in circuits(arr)] for arr in (arr_bprime, arr_bhat)}

    def recheck(arr, circuit):
        raise AssertionError("circuit from circuits() checked again")

    monkeypatch.setattr(presentation, "_checked_circuit", recheck)
    for arr, relations in expected.items():
        assert list(full_presentation(arr).relations) == relations
    with pytest.raises(AssertionError):
        circuit_dependencies(arr_bprime, (1, 2, 3))  # the public path still checks


# --- relations ---------------------------------------------------------------


def test_relation_b_123(arr_b):
    rel = circuit_relation(arr_b, (1, 2, 3))
    assert rel.signs == (1, 1, 1)
    assert rel.element == elem(((1, 2), 1), ((1, 3), -1), ((2, 3), 1))


def test_relation_bprime_124(arr_bprime):
    rel = circuit_relation(arr_bprime, (1, 2, 4))
    assert rel.signs == (1, -1, -1)
    assert rel.element == elem(((1, 2), -1), ((1, 4), 1), ((2, 4), 1))


def test_relation_leading_sign_always_plus(arr_b, arr_bprime, arr_bhat):
    for arr in (arr_b, arr_bprime, arr_bhat):
        for c in circuits(arr):
            assert circuit_relation(arr, c).signs[0] == 1


def test_full_presentation_complex_mode(arr_b):
    pres = full_presentation(arr_b, "complex")
    assert pres.mode == MODE_COMPLEX
    assert [str(r.element) for r in pres.relations] == [
        "+e12 -e13 +e23",
        "+e12 -e14 +e24",
        "+e13 -e14 +e34",
        "+e23 -e24 +e34",
    ]


def test_unknown_mode_is_a_value_error(arr_b):
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        full_presentation(arr_b, "bogus")


def test_complex_mode_rejects_conjugate_input(arr_bprime):
    with pytest.raises(ModeMismatch):
        full_presentation(arr_bprime, "complex")


@pytest.mark.parametrize("mode", [MODE_REAL, MODE_COMPLEX])
def test_the_input_not_the_mode_picks_the_route(monkeypatch, mode, arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    """The route depends on the structure a circuit's members share: a circuit is
    solved exactly when one member uses some z_j and the same or another uses
    conj(z_j), and the solves come in circuit order. Nothing is solved on z-linear
    input, on fully conjugate-linear input or before a ModeMismatch."""
    calls = []
    solve = presentation._solve
    monkeypatch.setattr(presentation, "_solve", lambda arr, c: calls.append(c) or solve(arr, c))
    for arr in (arr_b, arr_bhat_complex, braid_a4(), generic_lines(7, 3)):
        full_presentation(arr, mode)
    assert calls == []
    lines7, b3, a4 = generic_lines(7, 3), reflection("B", 3), braid_a4()
    # (input, its conjugate-linear members, solves)
    cases = [(swapped(arr, range(1, arr.n + 1)), range(1, arr.n + 1), 0) for arr in (lines7, b3, a4)]
    # the last member is the one conjugate-linear member of each
    cases += [(arr_bprime, [4], 3), (arr_bhat, [5], 4), (generic_lines(7, 3, True), [7], 15)]
    cases += [(swapped(lines7, (1, 2, 3)), (1, 2, 3), 30), (swapped(b3, (2, 5, 7, 9)), (2, 5, 7, 9), 51)]
    for arr, conj, solved in cases:
        calls.clear()
        if mode == MODE_COMPLEX:
            with pytest.raises(ModeMismatch):
                full_presentation(arr, mode)
            assert calls == []
        else:
            full_presentation(arr, mode)
            # the circuits with both a z-linear and a conjugate-linear member
            assert calls == [c for c in circuits(arr) if 0 < len(set(c) & set(conj)) < len(c)]
            assert len(calls) == solved


def swapped(arr, members):
    """`arr` with z_j and its conjugate swapped in the given members only; z-linear
    members become conjugate-linear ones, the other members stay as they are."""
    pairs = list(arr.subspaces)
    for a in members:
        p = pairs[a - 1]
        spec = ComplexFormSpec(p.complex_spec.zbar, p.complex_spec.z)
        pairs[a - 1] = SubspacePair(p.name, *from_complex_form(spec), spec)
    return Arrangement(arr.dim, tuple(pairs))


def z_linear_cases():
    from twoarr.fixtures import load_fixture

    cases = [pytest.param(load_fixture(name), True, id=name) for name in ("example22-B", "thm32-Bhat-complex")]
    cases.append(pytest.param(braid_a4(), True, id="braid-a4"))
    cases += [pytest.param(generic_lines(n, n), True, id=f"lines{n}") for n in range(3, 8)]
    cases += [pytest.param(generic_hyperplanes(n, 3, n), True, id=f"planes{n}") for n in range(4, 8)]
    return cases


def mixed_cases():
    """Seeded subsets of members of z-linear inputs swapped to conjugate-linear ones;
    a draw that fails validation (a swap can duplicate a member) is skipped. Some
    inputs also come with every member swapped, which the all-plus route takes."""
    rng = random.Random(89)
    bases = [(f"lines{n}", generic_lines(n, n)) for n in range(5, 10)]
    bases += [("planes7", generic_hyperplanes(7, 3, 7)), ("braid-a4", braid_a4()), ("B3", reflection("B", 3))]
    cases = []
    for name, arr in bases:
        drawn = set()
        while len(drawn) < 4:
            drawn.add(tuple(sorted(rng.sample(range(1, arr.n + 1), rng.randint(1, arr.n - 1)))))
        for members in sorted(drawn):
            mixed = swapped(arr, members)
            if validate(mixed).ok:
                cases.append(pytest.param(mixed, False, id=f"{name}-swap{'.'.join(map(str, members))}"))
    swap_all = {"lines5", "lines6", "lines7", "planes7", "braid-a4"}
    for name, arr in bases:
        if name in swap_all:
            cases.append(pytest.param(swapped(arr, range(1, arr.n + 1)), False, id=f"{name}-swapall"))
    return cases


@pytest.mark.parametrize("arr, z_linear", z_linear_cases() + mixed_cases())
def test_z_linear_relations_are_the_solved_ones(arr, z_linear):
    """The solver certifies the all-plus signs it skips on each circuit whose members
    share one complex structure: on z-linear input, on input with some members
    conjugate-linear and on input with every member conjugate-linear."""
    expected = tuple(circuit_relation(arr, c) for c in circuits(arr))
    assert full_presentation(arr).relations == expected
    if z_linear:
        assert full_presentation(arr, MODE_COMPLEX).relations == expected
    else:
        with pytest.raises(ModeMismatch):
            full_presentation(arr, MODE_COMPLEX)


def test_full_presentation_no_circuits():
    pres = full_presentation(independent_pair())
    assert pres.relations == ()
    assert pres.mode == MODE_REAL


def test_normalize_signs(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    """Each relation whose lexicographically first monomial has a negative coefficient
    is negated, and no other: that coefficient is read here off the element's terms,
    where `normalize_signs` reads it off the last sign."""
    arrs = [arr_b, arr_bprime, arr_bhat, arr_bhat_complex, reflection("B", 3)]
    arrs += [generic_lines(n, 3, True) for n in range(7, 13)]
    arrs += [param.values[0] for param in mixed_cases()]
    rng = random.Random(5)
    arrs += random_real(rng, 3, 6, (7, 7), 5) + random_real(rng, 3, 6, (9, 9), 5) + random_real(rng, 3, 8, (7, 7), 5)
    arrs += random_real(rng, 6)
    flipped = kept = 0
    for arr in arrs:
        raw = full_presentation(arr)
        pres = normalize_signs(raw)
        assert (pres.n, pres.mode, len(pres.relations)) == (raw.n, raw.mode, len(raw.relations))
        for old, new in zip(raw.relations, pres.relations):
            lead = min(old.element.terms)[1]
            sign = -1 if lead < 0 else 1
            assert new.circuit == old.circuit
            assert new.signs == tuple(sign * s for s in old.signs)
            assert new.element.terms == tuple((m, sign * c) for m, c in old.element.terms)
            assert min(new.element.terms)[1] > 0
            flipped += sign < 0
            kept += sign > 0
    assert flipped > 100 and kept > 100


# --- graded ranks of the relation ideal ---------------------------------------


def test_ideal_ranks(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        pres = full_presentation(arr)
        ranks = ideal_ranks(pres.elements(), pres.n)
        assert [ranks[p] for p in range(1, 5)] == [0, 3, 4, 1]
        assert ideal_rank_profile(pres) == (0, 3, 4, 1)


def profile_cases():
    from twoarr.fixtures import load_fixture

    cases = []
    for name in ("example22-B", "example22-Bprime", "thm32-Bhat", "thm32-Bhat-complex"):
        arr = load_fixture(name)
        modes = (MODE_REAL, MODE_COMPLEX) if name in ("example22-B", "thm32-Bhat-complex") else (MODE_REAL,)
        cases += [pytest.param(arr, mode, id=f"{name}-{mode}") for mode in modes]
    cases.append(pytest.param(braid_a4(), MODE_REAL, id="braid-a4"))
    for conj in (False, True):
        cases.append(pytest.param(generic_hyperplanes(7, 3, 5, conj), MODE_REAL, id=f"planes7-conj{conj:d}"))
        for n in range(7, 11):
            cases.append(pytest.param(generic_lines(n, n, conj), MODE_REAL, id=f"lines{n}-conj{conj:d}"))
    return cases


@pytest.mark.parametrize("arr, mode", profile_cases())
def test_grown_profile_matches_direct_slices(arr, mode):
    pres = full_presentation(arr, mode)
    n = arr.n
    direct = direct_ranks(pres.elements(), n)
    assert ideal_rank_profile(pres) == direct[1:]
    assert ideal_ranks(pres.elements(), n) == direct


@pytest.mark.parametrize("arr, mode", profile_cases())
def test_kappa_basis_is_the_reference_reduced_slice(arr, mode):
    pres = full_presentation(arr, mode)
    rank, basis = reference_span(pres.elements(), 2, arr.n)
    assert kappa(arr).basis == tuple(basis)  # the mode only checks and labels the relations
    assert len(basis) == rank


def quad_signs(dep):
    return tuple((d > 0) - (d < 0) for d in (al * de - be * ga for al, be, ga, de in dep.quads))


def test_integer_signs_match_the_fraction_quads(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    rng = random.Random(83)
    arrs = [arr_b, arr_bprime, arr_bhat, arr_bhat_complex, braid_a4()]
    arrs += [generic_lines(7, 3), generic_lines(8, 5, True), generic_hyperplanes(6, 3, 7, True)]
    for base in (arr_bprime, arr_bhat):
        for _ in range(10):
            arrs.append(recombined(base, [random_gl2(rng)[0] for _ in range(base.n)]))
    for arr in arrs:
        for c, rel in zip(circuits(arr), full_presentation(arr).relations):
            expected = quad_signs(circuit_dependencies(arr, c))
            assert 0 not in expected
            assert rel.signs == circuit_relation(arr, c).signs == expected, c


def random_real(rng, count, dim=4, sizes=(4, 8), bound=3):
    """`count` seeded arrangements in R^dim given by integer `forms`, each of n members
    for n drawn from `sizes` and coefficients in [-bound, bound]; draws that fail
    validation are skipped."""
    arrs = []
    while len(arrs) < count:
        n = rng.randint(*sizes)
        rows = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(2 * n)]
        arr = Arrangement(dim, tuple(pair(f"H{k + 1}", rows[2 * k], rows[2 * k + 1]) for k in range(n)))
        if validate(arr).ok:
            arrs.append(arr)
    return arrs


def test_r4_signs_are_products_of_linking_signs(arr_b, arr_bprime):
    """In R^4, moving one 2-row block past another keeps a determinant's sign, so by
    Cramer's rule each circuit a_0 < a_1 < a_2 has sigma_1 = lk(a_0, a_2) lk(a_1, a_2)
    and sigma_2 = lk(a_0, a_1) lk(a_1, a_2). The solver and the Plücker pairings
    of `pairwise_linking` share no code."""
    arrs = [arr_b, arr_bprime, generic_lines(7, 3, True), generic_lines(12, 5, True)]
    arrs += random_real(random.Random(97), 6)
    minus = 0
    for arr in arrs:
        lk = pairwise_linking(arr)
        for rel in full_presentation(arr).relations:
            a0, a1, a2 = (a - 1 for a in rel.circuit)
            assert rel.signs == (1, lk[a0][a2] * lk[a1][a2], lk[a0][a1] * lk[a1][a2]), rel.circuit
            minus += -1 in rel.signs
    assert minus > 0


def test_signs_are_cramer_quotients_of_block_determinants():
    """Let a_1..a_k of a circuit a_0 < ... < a_k stack their forms to a square M, and
    let M_j be M with a_0's two forms in a_j's rows. a_0's forms are B_1 a_1 + ... +
    B_k a_k for 2x2 blocks B_j, so by Cramer's rule det M_j = det B_j det M, and
    sigma_j = sign det M_j * sign det M. Checked on random real arrangements in R^6
    and R^8 against cofactor determinants, which share no code with the solver."""
    rng = random.Random(5)
    arrs = random_real(rng, 3, 6, (7, 7), 5) + random_real(rng, 3, 6, (9, 9), 5)
    arrs += random_real(rng, 3, 8, (7, 7), 5)
    checked = minus = 0
    for arr in arrs:
        blocks = [[tuple(map(int, f)) for f in (s.first, s.second)] for s in arr.subspaces]
        for rel in full_presentation(arr).relations:
            a0, *rest = (a - 1 for a in rel.circuit)
            if 2 * len(rest) != arr.dim:
                continue
            det_m = det([f for a in rest for f in blocks[a]])
            for j, aj in enumerate(rest, 1):
                m_j = [f for a in rest for f in blocks[a0 if a == aj else a]]
                assert rel.signs[j] * det(m_j) * det_m > 0, (rel.circuit, j)  # equal signs, none zero
                checked += 1
                minus += rel.signs[j] == -1
    assert checked > 1000 and minus > 0


# --- property suites -----------------------------------------------------------


def recombined(arr, mats):
    """Replace each pair of forms by an invertible 2x2 recombination."""
    pairs = []
    for p, (a, b, c, d) in zip(arr.subspaces, mats):
        first = tuple(a * u + b * v for u, v in zip(p.first, p.second))
        second = tuple(c * u + d * v for u, v in zip(p.first, p.second))
        pairs.append(SubspacePair(p.name, first, second))
    return Arrangement(arr.dim, tuple(pairs))


def random_gl2(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        det = a * d - b * c
        if det != 0:
            return (F(a), F(b), F(c), F(d)), det


def test_positive_scaling_never_changes_signs(arr_bprime, arr_bhat):
    rng = random.Random(53)
    for arr in (arr_bprime, arr_bhat):
        base = {c: circuit_relation(arr, c).signs for c in circuits(arr)}
        for _ in range(50):
            scales = []
            for _ in range(arr.n):
                s1 = F(rng.randint(1, 5)) / rng.randint(1, 4)
                s2 = F(rng.randint(1, 5)) / rng.randint(1, 4)
                scales.append((s1, F(0), F(0), s2))
            scaled = recombined(arr, scales)
            for c, signs in base.items():
                assert circuit_relation(scaled, c).signs == signs


def complex_line_arrangement(lambdas):
    """Transversal 2-subspaces z2 = lambda * z1 plus the subspace z1 = 0."""
    pairs = [pair("H1", (1, 0, 0, 0), (0, 1, 0, 0))]
    for k, lam in enumerate(lambdas, start=2):
        a, b = Fraction(lam), Fraction(0)
        pairs.append(
            SubspacePair(
                f"H{k}",
                (F(-a), F(b), F(1), F(0)),
                (F(-b), F(-a), F(0), F(1)),
            )
        )
    return Arrangement(4, tuple(pairs))


def test_complex_specialization_all_plus():
    rng = random.Random(59)
    for _ in range(100):
        lambdas = rng.sample(range(-20, 21), 3)
        arr = complex_line_arrangement(lambdas)
        for c in circuits(arr):
            rel = circuit_relation(arr, c)
            assert all(s == 1 for s in rel.signs)


@pytest.mark.parametrize("conjugate_last", [False, True])
@pytest.mark.parametrize("n", [8, 10, 12, 30])
def test_rank_nbc_identity_generic_lines(n, conjugate_last):
    """C(n, 3) relations and rank I^p + b_p = C(n, p), b = (1, n, n - 1), in under 10 s from parsing,
    with the conjugate swap: swapping z_j and its conjugate in every member composes all forms
    with one real linear map, so the relations stay the same."""
    arr = generic_lines(n, seed=n + 1, conjugate_last=conjugate_last)
    text, swapped_text = map(serialize_arrangement, (arr, swapped(arr, range(1, n + 1))))
    start = time.perf_counter()
    pres = full_presentation(parse_arrangement(text))
    profile = ideal_rank_profile(pres)
    swapped_pres = full_presentation(parse_arrangement(swapped_text))
    elapsed = time.perf_counter() - start
    assert len(pres.relations) == comb(n, 3)
    assert swapped_pres.relations == pres.relations
    counts = nbc_sets(arr).counts
    assert counts == (1, n, n - 1)
    assert len(profile) == n
    for p, r in enumerate(profile, start=1):
        nbc_p = counts[p] if p < len(counts) else 0
        assert r + nbc_p == comb(n, p)
    assert elapsed < 10.0, f"{elapsed:.2f} s"
