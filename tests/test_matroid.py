import itertools
import random

import pytest

from twoarr.arrangement import Arrangement, codim, restrict
from twoarr import matroid
from twoarr.fixtures import load_fixture
from twoarr.matroid import (
    NotAdmissible,
    SizeMismatch,
    betti_vector,
    circuits,
    closure,
    flats,
    matroid_rank,
    nbc_sets,
    same_labeled_matroid,
    whitney_numbers,
)
from conftest import pair

U24_NBC = [(), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]


def test_matroid_rank_rejects_odd_codimension():
    # built directly, so parse-time validation never sees it
    arr = Arrangement(
        4,
        (
            pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
            pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
            pair("H3", (1, 0, 0, 0), (0, 0, 1, 0)),
        ),
    )
    assert matroid_rank(arr, (1, 2)) == 2
    with pytest.raises(NotAdmissible):
        matroid_rank(arr, iter((3, 1)))


def test_closure_empty(arr_bprime):
    assert closure(arr_bprime, ()) == ()


def test_closure_pair_spans_everything(arr_b):
    assert closure(arr_b, (1, 2)) == (1, 2, 3, 4)


def test_closure_singleton(arr_bprime):
    assert closure(arr_bprime, (1,)) == (1,)


def test_flats_uniform_rank_two(arr_bprime):
    lattice = flats(arr_bprime)
    groups = [[f.elements for f in g] for g in lattice.flats_by_rank]
    assert groups == [[()], [(1,), (2,), (3,), (4,)], [(1, 2, 3, 4)]]


def test_flats_single(single_subspace):
    lattice = flats(single_subspace)
    assert [[f.elements for f in g] for g in lattice.flats_by_rank] == [[()], [(1,)]]


def test_flats_bhat_counts(arr_bhat):
    lattice = flats(arr_bhat)
    assert [len(g) for g in lattice.flats_by_rank] == [1, 5, 10, 1]


def test_upper_covers(arr_bprime):
    lattice = flats(arr_bprime)
    bottom = lattice.flats_by_rank[0][0]
    assert len(lattice.upper_covers(bottom)) == 4
    atom = lattice.flats_by_rank[1][0]
    assert [f.elements for f in lattice.upper_covers(atom)] == [(1, 2, 3, 4)]


def test_circuits_uniform_rank_two(arr_bprime):
    assert circuits(arr_bprime) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_circuits_bhat(arr_bhat):
    assert circuits(arr_bhat) == list(itertools.combinations(range(1, 6), 4))


def test_circuits_found_once_per_arrangement(monkeypatch):
    arr = load_fixture("thm32-Bhat")  # fresh, with empty caches
    calls = []
    scan = matroid._scan_circuits
    monkeypatch.setattr(matroid, "_scan_circuits", lambda a: calls.append(a) or scan(a))
    first = circuits(arr)
    assert calls == [arr]
    first.append((99,))
    nbc_sets(arr)
    betti_vector(arr)
    same_labeled_matroid(arr, arr)
    assert calls == [arr]
    again = circuits(arr)
    assert again == first[:-1] and again is not circuits(arr)
    restricted = restrict(arr, 3)
    assert len(circuits(restricted)) == 4  # a restriction scans its own
    assert calls == [arr, restricted]


def test_circuits_independent(independent_pair):
    assert circuits(independent_pair) == []


def test_nbc_example(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        assert nbc_sets(arr).all_sets() == U24_NBC


def test_nbc_circuit_free_full_power_set(independent_pair):
    assert nbc_sets(independent_pair).all_sets() == [(), (1,), (2,), (1, 2)]


def test_nbc_bhat(arr_bhat):
    complex_ = nbc_sets(arr_bhat)
    assert complex_.counts == (1, 5, 10, 6)
    assert all(1 in s for s in complex_.sets_by_size[3])


def test_nbc_bad_order(arr_b):
    with pytest.raises(ValueError):
        nbc_sets(arr_b, (1, 2, 3))


def test_betti_vectors(arr_b, single_subspace, arr_bhat):
    assert betti_vector(arr_b) == (1, 4, 3)
    assert betti_vector(single_subspace) == (1, 1)
    assert betti_vector(arr_bhat) == (1, 5, 10, 6)


def test_whitney_check(arr_b, single_subspace, arr_bhat):
    """|Whitney numbers| equal the NBC counts, as the `betti` verb checks."""
    for arr in (arr_b, single_subspace, arr_bhat):
        assert whitney_numbers(arr) == betti_vector(arr)
    assert whitney_numbers(arr_b) == (1, 4, 3)
    assert whitney_numbers(arr_bhat) == (1, 5, 10, 6)


def test_same_labeled_matroid(arr_b, arr_bprime):
    assert same_labeled_matroid(arr_b, arr_bprime)
    assert same_labeled_matroid(arr_b, arr_b)


def test_same_labeled_matroid_size_mismatch(arr_b, arr_bhat):
    with pytest.raises(SizeMismatch):
        same_labeled_matroid(arr_b, arr_bhat)


def test_same_matroid_up_to_relabeling():
    # only {1,2,4} is a circuit, so the matroid is label-sensitive
    base = Arrangement(
        6,
        (
            pair("H1", (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
            pair("H2", (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
            pair("H3", (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
            pair("H4", (1, 0, -1, 0, 0, 0), (0, 1, 0, -1, 0, 0)),
        ),
    )
    rotated = Arrangement(6, tuple(base.subspaces[1:] + base.subspaces[:1]))
    assert circuits(base) == [(1, 2, 4)]
    assert circuits(rotated) == [(1, 3, 4)]
    assert not same_labeled_matroid(base, rotated)
    assert same_labeled_matroid(base, rotated, up_to_relabeling=True)


# --- properties ------------------------------------------------------------


def all_subsets(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def test_rank_monotone_and_submodular(arr_bprime, arr_bhat):
    for arr in (arr_bprime, arr_bhat):
        subsets = list(all_subsets(arr.n))
        ranks = {s: matroid_rank(arr, s) for s in subsets}
        for a in subsets:
            for b in subsets:
                union = tuple(sorted(set(a) | set(b)))
                inter = tuple(sorted(set(a) & set(b)))
                if set(a) <= set(b):
                    assert ranks[a] <= ranks[b]
                assert ranks[union] + ranks[inter] <= ranks[a] + ranks[b]


def test_flats_against_bruteforce_closure(arr_b, arr_bprime, arr_bhat, independent_pair):
    for arr in (arr_b, arr_bprime, arr_bhat, independent_pair):
        brute = {closure(arr, s) for s in all_subsets(arr.n)}
        enumerated = {f.elements for g in flats(arr).flats_by_rank for f in g}
        assert enumerated == brute
        for f in itertools.chain.from_iterable(flats(arr).flats_by_rank):
            assert f.rank == matroid_rank(arr, f.elements)


def test_circuits_are_minimal_dependent(arr_bprime, arr_bhat):
    for arr in (arr_bprime, arr_bhat):
        cs = circuits(arr)
        for c in cs:
            assert matroid_rank(arr, c) == len(c) - 1
            for x in c:
                rest = tuple(e for e in c if e != x)
                assert matroid_rank(arr, rest) == len(rest)
        # every dependent set contains a circuit
        for s in all_subsets(arr.n):
            if matroid_rank(arr, s) < len(s):
                assert any(set(c) <= set(s) for c in cs)


def test_nbc_downward_closed_with_singletons(arr_b, arr_bprime, arr_bhat):
    for arr in (arr_b, arr_bprime, arr_bhat):
        sets = set(nbc_sets(arr).all_sets())
        assert all((a,) in sets for a in range(1, arr.n + 1))
        for s in sets:
            for x in s:
                assert tuple(e for e in s if e != x) in sets


def test_nbc_counts_order_invariant(arr_bprime, arr_bhat):
    rng = random.Random(41)
    for arr in (arr_bprime, arr_bhat):
        base = nbc_sets(arr).counts
        for _ in range(20):
            order = list(range(1, arr.n + 1))
            rng.shuffle(order)
            assert nbc_sets(arr, order).counts == base


def test_codim_is_twice_rank(arr_b, arr_bprime, arr_bhat):
    for arr in (arr_b, arr_bprime, arr_bhat):
        for s in all_subsets(arr.n):
            assert codim(arr, s) == 2 * matroid_rank(arr, s)
