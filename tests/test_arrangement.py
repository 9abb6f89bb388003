import json
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoarr.arrangement import (
    Arrangement,
    ComplexFormSpec,
    DegenerateRestriction,
    ParseError,
    UnknownLabel,
    ValidationError,
    ZeroForm,
    arrangement_from_document,
    codim,
    from_complex_form,
    integer_form,
    parse_arrangement,
    parse_rational,
    validate,
)
from twoarr.restriction import arrangement_to_document, restrict, serialize_arrangement
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.invariants import kappa, kappa_rank
from twoarr.matroid import betti_vector, closure
from twoarr.presentation import MODE_COMPLEX, ModeMismatch, full_presentation, ideal_rank_profile
from conftest import (
    all_subsets, braid_a4, form, generic_hyperplanes, generic_lines, independent_pair, pair, reflection, single_subspace,
)
from dense_reference import kernel_basis as dense_kernel_basis
from dense_reference import rank as dense_rank


def cspec(z, zbar=None):
    d = len(z)
    zbar = zbar if zbar is not None else [(0, 0)] * d
    return ComplexFormSpec(
        tuple((Fraction(a), Fraction(b)) for a, b in z),
        tuple((Fraction(a), Fraction(b)) for a, b in zbar),
    )


def names(arr):
    return tuple(s.name for s in arr.subspaces)


def doc(dim, *subspaces):
    return {"dim": dim, "subspaces": list(subspaces)}


def forms_rec(name, f1, f2):
    return {"name": name, "forms": [[str(c) for c in f1], [str(c) for c in f2]]}


# --- complex to real conversion -------------------------------------------


def test_conversion_z1():
    first, second = from_complex_form(cspec([(1, 0), (0, 0)]))
    assert first == form(1, 0, 0, 0)
    assert second == form(0, 1, 0, 0)


def test_conversion_zbar1():
    first, second = from_complex_form(cspec([(0, 0)], zbar=[(1, 0)]))
    assert first == form(1, 0)
    assert second == form(0, -1)


def test_conversion_mixed():
    # z2 - 2*conj(z1)
    spec = cspec([(0, 0), (1, 0)], zbar=[(-2, 0), (0, 0)])
    first, second = from_complex_form(spec)
    assert first == form(-2, 0, 1, 0)
    assert second == form(0, 2, 0, 1)


def test_conversion_zero_form_raises():
    with pytest.raises(ZeroForm):
        from_complex_form(cspec([(0, 0)]))


@pytest.mark.parametrize("key", ["z", "zbar"])
def test_parse_complex_block_of_wrong_length(key):
    block = {"z": [["1", "0"], ["0", "0"]], "zbar": [["0", "0"], ["0", "0"]]}
    block[key] = block[key][:1]
    with pytest.raises(ParseError, match=f"subspace #1: '{key}' must list 2 coefficient pairs"):
        arrangement_from_document(doc(4, {"name": "H1", "complex": block}))


# --- parsing ----------------------------------------------------------------


def test_parse_fixture_b(arr_b):
    assert arr_b.dim == 4
    assert names(arr_b) == ("H1", "H2", "H3", "H4")
    assert arr_b.subspaces[2].first == form(-1, 0, 1, 0)
    assert arr_b.subspaces[2].second == form(0, -1, 0, 1)
    assert full_presentation(arr_b, MODE_COMPLEX).mode == MODE_COMPLEX


def test_parse_fixture_bprime_h4(arr_bprime):
    h4 = arr_bprime.subspaces[3]
    assert h4.first == form(-2, 0, 1, 0)
    assert h4.second == form(0, 2, 0, 1)
    with pytest.raises(ModeMismatch):
        full_presentation(arr_bprime, MODE_COMPLEX)


def test_parse_single_subspace():
    arr = arrangement_from_document(doc(2, forms_rec("H1", (1, 0), (0, 1))))
    assert arr.n == 1 and arr.dim == 2


@pytest.mark.parametrize(
    "bad",
    ["1.5", "x", "1/0", "--2", "1/-3", ""],
)
def test_parse_bad_rational(bad):
    document = doc(2, forms_rec("H1", (bad, 0), (0, 1)))
    with pytest.raises(ParseError):
        arrangement_from_document(document)


@pytest.mark.parametrize("text", ["1/0", "-2/000", "1/\u0660", "1/\u0660\u0660", "\uff13/\uff10"])
def test_every_zero_denominator_is_a_parse_error(text):
    """Arabic-Indic and full-width zeros are zeros too: none of them reaches Fraction."""
    with pytest.raises(ParseError, match=r"^zero denominator in "):
        parse_rational(text)


def test_non_ascii_digits_keep_their_values(int_digit_limit):
    assert parse_rational("\uff13") == 3
    assert parse_rational("-1/\u0661\u0660") == Fraction(-1, 10)
    with pytest.raises(ParseError, match=r"^rational of "):
        parse_rational("1/" + "1" * (int_digit_limit + 1))
    with pytest.raises(ParseError, match=r"^zero denominator in "):
        parse_rational("1/" + "\u0660" * (int_digit_limit + 1))


# the format parse_rational checks, as a pattern; \d is any Unicode decimal digit (Nd)
RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
# signs, slashes, whitespace, ASCII digits, and non-ASCII characters that are
# decimal digits (Arabic-Indic and full-width) or only look like digits (², ½, Ⅻ)
RATIONAL_ALPHABET = "+-/ \t\n0159\u0660\u0669\uff10\uff13\u00b2\u00bd\u216b.x"


@settings(derandomize=True, database=None, max_examples=2000)
@given(st.text(RATIONAL_ALPHABET, max_size=8))
def test_rational_format_check_is_the_pattern(text):
    """parse_rational rejects a string as malformed exactly when the pattern does not match it."""
    try:
        parse_rational(text)
        malformed = False
    except ParseError as e:
        malformed = str(e).startswith("malformed rational")
    assert malformed == (RATIONAL_PATTERN.match(text) is None)


def test_integer_form_is_the_lcm_of_the_denominators_times_the_form():
    F = Fraction
    assert integer_form((F(1, 2), F(-2, 3), F(0), F(5, 4))) == (12, [6, -8, 0, 15])
    assert integer_form((F(-4), F(6), F(0), F(0))) == (1, [-4, 6, 0, 0])  # no content is divided out
    assert integer_form((F(0),) * 4) == (1, [0, 0, 0, 0])


def test_parse_overlong_rational(int_digit_limit):
    digits = "1" * (int_digit_limit + 700)
    with pytest.raises(ParseError):
        parse_rational(digits)
    with pytest.raises(ParseError):
        parse_rational(f"1/{digits}")
    with pytest.raises(ParseError):
        arrangement_from_document(doc(2, forms_rec("H1", (digits, 0), (0, 1))))
    with pytest.raises(ParseError):
        parse_arrangement(f'{{"dim": {digits}, "subspaces": []}}')


def test_parse_rejects_inadmissible():
    # {1,3} spans odd rank 3
    document = doc(
        4,
        forms_rec("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
        forms_rec("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
        forms_rec("H3", (1, 0, 0, 0), (0, 0, 1, 0)),
    )
    with pytest.raises(ValidationError) as info:
        arrangement_from_document(document)
    assert any(v.kind == "odd-rank" for v in info.value.report.violations)


# --- validation --------------------------------------------------------------


def test_validate_fixture_clean(arr_bprime):
    assert validate(arr_bprime).ok


def test_validate_odd_rank_witness():
    arr = Arrangement(
        4,
        (
            pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
            pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
            pair("H3", (1, 0, 0, 0), (0, 0, 1, 0)),
        ),
    )
    report = validate(arr)
    odd = [v for v in report.violations if v.kind == "odd-rank"]
    assert any(v.subset == (1, 3) for v in odd)


def test_validate_not_essential():
    arr = Arrangement(
        4,
        (
            pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
            pair("H2", (2, 0, 0, 0), (0, 3, 0, 0)),
        ),
    )
    kinds = {v.kind for v in validate(arr).violations}
    assert "not-essential" in kinds
    assert "pairwise-rank" in kinds


def test_validate_degenerate_pair():
    arr = Arrangement(2, (pair("H1", (1, 0), (2, 0)),))
    kinds = {v.kind for v in validate(arr).violations}
    assert "pair-rank" in kinds


# --- codimension -------------------------------------------------------------


def test_codim_empty(arr_b):
    assert codim(arr_b, ()) == 0


def test_codim_single(arr_b):
    assert codim(arr_b, (1,)) == 2


def test_codim_triple(arr_bprime):
    assert codim(arr_bprime, (1, 2, 3)) == 4


def test_codim_unknown_label(arr_b):
    with pytest.raises(UnknownLabel):
        codim(arr_b, (9,))


@pytest.mark.parametrize("name", FIXTURES)
def test_codim_ignores_order_and_repeats(name):
    arr = load_fixture(name)
    rng = random.Random(41)
    for s in all_subsets(arr.n):
        expected = dense_rank([f for a in s for f in (arr.pair(a).first, arr.pair(a).second)])
        # a fresh copy has not walked its closed sets, so the scrambled subset asks first
        fresh = Arrangement(arr.dim, arr.subspaces)
        scrambled = list(s) + [rng.choice(s) for _ in range(len(s))] if s else []
        rng.shuffle(scrambled)
        assert codim(fresh, scrambled) == expected
        assert codim(fresh, s) == expected
        assert codim(arr, s) == expected


def test_codim_unknown_label_after_cached_subset(arr_b):
    fresh = Arrangement(arr_b.dim, arr_b.subspaces)
    assert codim(fresh, (1,)) == 2
    with pytest.raises(UnknownLabel):
        codim(fresh, (1, 99))
    assert fresh == arr_b and hash(fresh) == hash(arr_b) and repr(fresh) == repr(arr_b)


# --- restriction -------------------------------------------------------------


def test_restrict_bhat_at_h3(arr_bhat):
    r = restrict(arr_bhat, "H3")
    assert r.dim == 4
    assert names(r) == ("H1", "H2", "H4", "H5")
    h5 = r.subspaces[3]
    assert h5.first == form(1, 0, -2, 0)
    assert h5.second == form(0, 1, 0, 2)
    assert validate(r).ok


def test_restrict_complex_analog_at_h3(arr_bhat_complex):
    r = restrict(arr_bhat_complex, "H3")
    h5 = r.subspaces[3]
    assert h5.first == form(1, 0, -2, 0)
    assert h5.second == form(0, 1, 0, -2)
    assert validate(r).ok


def test_restrict_two_subspaces():
    r = restrict(independent_pair(), "H1")
    assert r.dim == 2 and names(r) == ("H2",)
    assert r.subspaces[0].first == form(1, 0)
    assert r.subspaces[0].second == form(0, 1)
    assert validate(r).ok


def test_restrict_accepts_index(arr_bhat):
    assert names(restrict(arr_bhat, 3)) == ("H1", "H2", "H4", "H5")


def test_restrict_has_own_closed_sets(arr_bhat):
    for label in names(arr_bhat):
        r = restrict(arr_bhat, label)
        reparsed = parse_arrangement(serialize_arrangement(r))
        for s in all_subsets(r.n):
            assert codim(r, s) == codim(reparsed, s)
        assert r._walk[0] is not arr_bhat._walk[0]
        assert r._walk[0] == reparsed._walk[0]


def test_restrict_leaving_no_subspace_raises():
    with pytest.raises(DegenerateRestriction, match="restricting to 'H1' leaves no subspace"):
        restrict(single_subspace(), 1)
    with pytest.raises(DegenerateRestriction, match="restricting to 'H2' leaves no subspace"):
        restrict(restrict(independent_pair(), "H1"), "H2")


def test_restrict_unknown_label(arr_b):
    with pytest.raises(UnknownLabel):
        restrict(arr_b, "H9")


def test_restrict_degenerate_pair_raises():
    # H2's first form vanishes on H1, so H2 restricted to H1 has codimension 1
    arr = Arrangement(6, (pair("H1", (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
                          pair("H2", (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))))
    with pytest.raises(DegenerateRestriction, match="'H2' loses codimension when restricted to 'H1'"):
        restrict(arr, "H1")


def random_targets():
    """Arrangements built directly, not parsed, whose first member has random forms of rank 2.

    Half the entries are zero, so some members have form rank below 2 and
    some lose codimension on a restriction.
    """
    rng = random.Random(29)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if rng.random() < 0.5 else 0

    out = []
    while len(out) < 40:
        dim = rng.choice((4, 6, 8))
        members = [[[entry() for _ in range(dim)] for _ in range(2)] for _ in range(rng.randint(2, 5))]
        if dense_rank(members[0]) == 2:
            out.append(Arrangement(dim, tuple(pair(f"H{k}", *m) for k, m in enumerate(members, start=1))))
    return out


def dense_restriction(arr, i):
    """What `restrict(arr, i)` gives, from the rref's kernel basis and dense ranks alone.

    Either the (name, first, second) of each other member composed with
    that basis, or the message of the `DegenerateRestriction` it raises.
    """
    p = arr.subspaces[i - 1]
    target = [p.first, p.second]
    if dense_rank(target) != 2:
        return f"subspace {p.name!r} has form rank {dense_rank(target)}, expected 2"
    basis = dense_kernel_basis(target, arr.dim)
    out = []
    for j, q in enumerate(arr.subspaces, start=1):
        if j == i:
            continue
        first, second = (
            form(*(sum(c * x for c, x in zip(f, v)) for v in basis)) for f in (q.first, q.second)
        )
        if dense_rank([first, second]) != 2:
            return f"subspace {q.name!r} loses codimension when restricted to {p.name!r}"
        out.append((q.name, first, second))
    return tuple(out)


RESTRICT_CASES = {
    "fixtures": lambda: [load_fixture(name) for name in FIXTURES],
    "braid-a4": lambda: [braid_a4()],
    "lines7": lambda: [generic_lines(7, 3)],
    "lines7-conj": lambda: [generic_lines(7, 3, conjugate_last=True)],
    "planes7": lambda: [generic_hyperplanes(7, 3, 3)],
    "reflection-B3": lambda: [reflection("B", 3)],
    "reflection-G443": lambda: [reflection("G(4,4)", 3)],
    "random-targets": random_targets,
}


@pytest.mark.parametrize("case", list(RESTRICT_CASES))
def test_restrict_matches_the_dense_kernel_basis(case):
    """On every member, restrict composes with the rref's kernel basis, entry for entry,
    and raises exactly where a dense rank is not 2."""
    outcomes = set()
    for arr in RESTRICT_CASES[case]():
        for i in range(1, arr.n + 1):
            expected = dense_restriction(arr, i)
            if isinstance(expected, str):
                with pytest.raises(DegenerateRestriction) as raised:
                    restrict(arr, i)
                assert str(raised.value) == expected
                outcomes.add(expected.split()[2])  # "has" or "loses"
                continue
            r = restrict(arr, i)
            assert r.dim == arr.dim - 2
            assert tuple((q.name, q.first, q.second) for q in r.subspaces) == expected
            outcomes.add("composed")
    assert outcomes == ({"composed", "has", "loses"} if case == "random-targets" else {"composed"})


def test_restrict_at_a_member_of_form_rank_one_raises():
    """Only a directly built arrangement has such a member; its restriction used to have
    dim 2 and forms of length 3, so it did not parse back."""
    arr = Arrangement(4, (pair("H1", (1, 0, 0, 0), (2, 0, 0, 0)),
                          pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
                          pair("H3", (1, 0, 0, 1), (0, 1, 1, 0))))
    with pytest.raises(DegenerateRestriction, match="subspace 'H1' has form rank 1, expected 2"):
        restrict(arr, "H1")
    for other in ("H2", "H3"):  # H1 and either other member span codimension 3
        message = f"'H1' loses codimension when restricted to '{other}'"
        with pytest.raises(DegenerateRestriction, match=message):
            restrict(arr, other)


def test_restrict_transversal_r4_collapses(arr_b, arr_bprime):
    """In R^4 the other members meet a given one only at the origin, so the restriction
    is three copies of the origin of R^2 and fails pairwise transversality. Unvalidated,
    it gets its matroid's presentation: H*(R^2 minus the origin), with e1 = e2 = e3."""
    for arr in (arr_b, arr_bprime):
        r = restrict(arr, 1)
        assert (r.dim, r.n) == (2, 3)
        assert {v.kind for v in validate(r).violations} == {"pairwise-rank"}
        pres = full_presentation(r)
        assert [(str(rel.element), rel.signs) for rel in pres.relations] == [
            ("-e1 +e2", (1, 1)), ("-e1 +e3", (1, 1)), ("-e2 +e3", (1, 1)),
        ]
        betti, profile = betti_vector(r), ideal_rank_profile(pres)
        assert (betti, profile) == ((1, 1), (2, 3, 1))
        assert [b + i for b, i in zip(betti + (0, 0), (0,) + profile)] == [comb(3, p) for p in range(4)]
        assert kappa_rank(kappa(r)) == 0


# --- serialization ------------------------------------------------------------


def test_serialize_parse_roundtrip_plain_forms(arr_bhat):
    r = restrict(arr_bhat, "H3")
    assert parse_arrangement(serialize_arrangement(r)) == r


def test_serialized_document_shape(arr_b):
    document = arrangement_to_document(arr_b)
    assert set(document) == {"dim", "subspaces"}
    assert json.loads(serialize_arrangement(arr_b)) == document


# --- properties ----------------------------------------------------------------


def test_codim_equals_codim_of_closure(arr_b, arr_bprime, arr_bhat):
    rng = random.Random(37)
    for arr in (arr_b, arr_bprime, arr_bhat):
        subsets = []
        for _ in range(40):
            k = rng.randint(0, arr.n)
            subsets.append(tuple(sorted(rng.sample(range(1, arr.n + 1), k))))
        for s in subsets:
            assert codim(arr, s) == codim(arr, closure(arr, s))


def test_restrict_preserves_validity_when_triples_transversal(arr_bhat, arr_bhat_complex):
    for arr in (arr_bhat, arr_bhat_complex, independent_pair()):
        for label in names(arr):
            assert validate(restrict(arr, label)).ok
