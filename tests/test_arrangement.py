import itertools
import json
import random
from fractions import Fraction

import pytest

from twoarr.arrangement import (
    Arrangement,
    ComplexFormSpec,
    DegenerateRestriction,
    ParseError,
    UnknownLabel,
    ValidationError,
    ZeroForm,
    arrangement_from_document,
    arrangement_to_document,
    codim,
    from_complex_form,
    parse_arrangement,
    parse_rational,
    restrict,
    serialize_arrangement,
    validate,
)
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.matroid import closure
from conftest import braid_a4, form, generic_hyperplanes, generic_lines, pair
from dense_reference import kernel_basis as dense_kernel_basis
from dense_reference import rank as dense_rank


def cspec(z, zbar=None):
    d = len(z)
    zbar = zbar if zbar is not None else [(0, 0)] * d
    return ComplexFormSpec(
        tuple((Fraction(a), Fraction(b)) for a, b in z),
        tuple((Fraction(a), Fraction(b)) for a, b in zbar),
    )


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


def test_conversion_wrong_length_raises():
    with pytest.raises(ParseError):
        from_complex_form(cspec([(1, 0)]), d=2)


# --- parsing ----------------------------------------------------------------


def test_parse_fixture_b(arr_b):
    assert arr_b.dim == 4
    assert arr_b.labels == ("H1", "H2", "H3", "H4")
    assert arr_b.subspaces[2].first == form(-1, 0, 1, 0)
    assert arr_b.subspaces[2].second == form(0, -1, 0, 1)
    assert arr_b.is_holomorphic_input


def test_parse_fixture_bprime_h4(arr_bprime):
    h4 = arr_bprime.subspaces[3]
    assert h4.first == form(-2, 0, 1, 0)
    assert h4.second == form(0, 2, 0, 1)
    assert not arr_bprime.is_holomorphic_input


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


def test_parse_wrong_coefficient_count():
    with pytest.raises(ParseError):
        arrangement_from_document(doc(4, forms_rec("H1", (1, 0), (0, 1))))


def test_parse_odd_dim():
    with pytest.raises(ParseError):
        arrangement_from_document(doc(3, forms_rec("H1", (1, 0, 0), (0, 1, 0))))


def test_parse_unknown_field():
    rec = forms_rec("H1", (1, 0), (0, 1))
    rec["extra"] = 1
    with pytest.raises(ParseError):
        arrangement_from_document(doc(2, rec))


def test_parse_duplicate_names():
    with pytest.raises(ParseError):
        arrangement_from_document(
            doc(4, forms_rec("H1", (1, 0, 0, 0), (0, 1, 0, 0)), forms_rec("H1", (0, 0, 1, 0), (0, 0, 0, 1)))
        )


def test_parse_invalid_json():
    with pytest.raises(ParseError):
        parse_arrangement("{not json")


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


def test_parse_deeply_nested_json():
    with pytest.raises(ParseError):
        parse_arrangement("[" * 100_000 + "]" * 100_000)


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


def all_subsets(n):
    return [s for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]


@pytest.mark.parametrize("name", FIXTURES)
def test_codim_ignores_order_and_repeats(name):
    arr = load_fixture(name)
    rng = random.Random(41)
    for s in all_subsets(arr.n):
        expected = dense_rank([f for a in s for f in (arr.pair(a).first.coeffs, arr.pair(a).second.coeffs)])
        # a fresh copy has an empty cache, so the scrambled subset is computed
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
    assert r.labels == ("H1", "H2", "H4", "H5")
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


def test_restrict_two_subspaces(independent_pair):
    r = restrict(independent_pair, "H1")
    assert r.dim == 2 and r.labels == ("H2",)
    assert r.subspaces[0].first == form(1, 0)
    assert r.subspaces[0].second == form(0, 1)
    assert validate(r).ok


def test_restrict_accepts_index(arr_bhat):
    assert restrict(arr_bhat, 3).labels == ("H1", "H2", "H4", "H5")


def test_restrict_has_own_codim_cache(arr_bhat):
    for label in arr_bhat.labels:
        r = restrict(arr_bhat, label)
        reparsed = parse_arrangement(serialize_arrangement(r))
        for s in all_subsets(r.n):
            assert codim(r, s) == codim(reparsed, s)
        assert r._codim_cache is not arr_bhat._codim_cache
        assert r._codim_cache == reparsed._codim_cache


def test_restrict_unknown_label(arr_b):
    with pytest.raises(UnknownLabel):
        restrict(arr_b, "H9")


def test_restrict_degenerate_pair_raises():
    # H2's first form vanishes on H1, so H2 restricted to H1 has codimension 1
    arr = Arrangement(6, (pair("H1", (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
                          pair("H2", (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))))
    with pytest.raises(DegenerateRestriction, match="'H2' loses codimension when restricted to 'H1'"):
        restrict(arr, "H1")


@pytest.mark.parametrize("case", ["fixtures", "braid-a4", "lines7", "lines7-conj", "planes7"])
def test_restrict_matches_the_dense_kernel_basis(case):
    """On every subspace, restrict composes with the rref's kernel basis, entry for entry."""
    arrs = {
        "fixtures": lambda: [load_fixture(name) for name in FIXTURES],
        "braid-a4": lambda: [braid_a4()],
        "lines7": lambda: [generic_lines(7, 3)],
        "lines7-conj": lambda: [generic_lines(7, 3, conjugate_last=True)],
        "planes7": lambda: [generic_hyperplanes(7, 3, 3)],
    }[case]()
    for arr in arrs:
        for i, p in enumerate(arr.subspaces, start=1):
            basis = dense_kernel_basis([p.first.coeffs, p.second.coeffs], arr.dim)
            expected = tuple(
                (q.name, q.first.restrict_to(basis), q.second.restrict_to(basis))
                for q in arr.subspaces
                if q is not p
            )
            r = restrict(arr, i)
            assert r.dim == arr.dim - 2
            assert tuple((q.name, q.first, q.second) for q in r.subspaces) == expected


def test_restrict_transversal_r4_collapses(arr_b):
    # in R^4 the other members meet a given one only at the origin, so the
    # restriction has coincident members and fails pairwise transversality
    r = restrict(arr_b, "H1")
    kinds = {v.kind for v in validate(r).violations}
    assert kinds == {"pairwise-rank"}


# --- serialization ------------------------------------------------------------


def test_serialize_parse_roundtrip_fixtures(arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
    for arr in (arr_b, arr_bprime, arr_bhat, arr_bhat_complex):
        text = serialize_arrangement(arr)
        assert parse_arrangement(text) == arr


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


def test_restrict_preserves_validity_when_triples_transversal(
    arr_bhat, arr_bhat_complex, independent_pair
):
    for arr in (arr_bhat, arr_bhat_complex):
        for label in arr.labels:
            assert validate(restrict(arr, label)).ok
    for label in independent_pair.labels:
        assert validate(restrict(independent_pair, label)).ok
