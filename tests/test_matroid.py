import itertools
import math
import random
import time

import pytest

from twoarr.arrangement import Arrangement, codim, parse_arrangement, validate
from twoarr import arrangement
from twoarr.restriction import restrict, serialize_arrangement
from twoarr.fixtures import load_fixture
from twoarr.matroid import (
    SizeMismatch,
    betti_vector,
    circuits,
    closure,
    flats,
    nbc_sets,
    same_labeled_matroid,
    whitney_numbers,
)
from twoarr.presentation import full_presentation, ideal_rank_profile
from conftest import (
    all_subsets, braid, braid_a4, generic_hyperplanes, graphic, independent_pair, pair, reflection, single_subspace,
)

U24_NBC = [(), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]


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


def test_flats_single():
    lattice = flats(single_subspace())
    assert [[f.elements for f in g] for g in lattice.flats_by_rank] == [[()], [(1,)]]


def test_flats_bhat_counts(arr_bhat):
    lattice = flats(arr_bhat)
    assert [len(g) for g in lattice.flats_by_rank] == [1, 5, 10, 1]


def test_all_flats_lists_the_ranks_in_order(arr_bhat):
    """`all_flats`, whose length the benchmark tracer counts, is `flats_by_rank` read bottom first."""
    for arr, count in ((arr_bhat, 17), (braid_a4(), 52)):  # A_4: the 52 set partitions of 5 points
        lattice = flats(arr)
        listed = lattice.all_flats()
        assert listed == list(itertools.chain.from_iterable(lattice.flats_by_rank))
        assert len(listed) == count
        assert [f.rank for f in listed] == sorted(f.rank for f in listed)


def test_circuits_uniform_rank_two(arr_bprime):
    assert circuits(arr_bprime) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_circuits_bhat(arr_bhat):
    assert circuits(arr_bhat) == list(itertools.combinations(range(1, 6), 4))


def test_circuits_found_once_per_arrangement(monkeypatch):
    arr = load_fixture("thm32-Bhat")  # fresh, with empty caches
    calls = []
    scan = arrangement._scan_circuits
    monkeypatch.setattr(arrangement, "_scan_circuits", lambda a: calls.append(a) or scan(a))
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


def test_enumerations_check_no_index(monkeypatch):
    """Subsets built from 1..n or from the circuits are masked without an index check."""
    arrs = {load_fixture("thm32-Bhat"): (1, 5, 10, 6), braid_a4(): (1, 10, 35, 50, 24)}

    def no_pair(self, index):
        raise AssertionError(f"Arrangement.pair({index}) was called")

    monkeypatch.setattr(Arrangement, "pair", no_pair)
    for arr, betti in arrs.items():  # fresh: the circuits are not scanned yet
        assert circuits(arr)
        assert nbc_sets(arr).counts == betti
        assert nbc_sets(arr, range(arr.n, 0, -1)).counts == betti
        assert whitney_numbers(arr) == betti


def test_circuits_independent():
    assert circuits(independent_pair()) == []


def test_nbc_example(arr_b, arr_bprime):
    for arr in (arr_b, arr_bprime):
        assert nbc_sets(arr).all_sets() == U24_NBC


def test_nbc_circuit_free_full_power_set():
    assert nbc_sets(independent_pair()).all_sets() == [(), (1,), (2,), (1, 2)]


def test_nbc_bhat(arr_bhat):
    complex_ = nbc_sets(arr_bhat)
    assert complex_.counts == (1, 5, 10, 6)
    assert all(1 in s for s in complex_.sets_by_size[3])


def test_nbc_bad_order(arr_b):
    with pytest.raises(ValueError):
        nbc_sets(arr_b, (1, 2, 3))


def test_betti_vectors(arr_b, arr_bhat):
    assert betti_vector(arr_b) == (1, 4, 3)
    assert betti_vector(single_subspace()) == (1, 1)
    assert betti_vector(arr_bhat) == (1, 5, 10, 6)


def test_whitney_check(arr_b, arr_bhat):
    """|Whitney numbers| equal the NBC counts, as the `betti` verb checks."""
    for arr in (arr_b, single_subspace(), arr_bhat):
        assert whitney_numbers(arr) == betti_vector(arr)
    assert whitney_numbers(arr_b) == (1, 4, 3)
    assert whitney_numbers(arr_bhat) == (1, 5, 10, 6)


def test_braid_a5_known_answers():
    """A_5: flats are set partitions of 6 points (Stirling numbers of the second kind),
    and both NBC and Whitney counts are the coefficients of (1 + t)(1 + 2t)...(1 + 5t).
    Its ideal profile, timed from parsing, takes under 40 s: rank I^p + b_p = C(15, p) (Björner–Ziegler)."""
    text = serialize_arrangement(braid(5))
    start = time.perf_counter()
    arr = parse_arrangement(text)
    profile = ideal_rank_profile(full_presentation(arr))
    elapsed = time.perf_counter() - start
    assert (arr.n, codim(arr, range(1, arr.n + 1)) // 2) == (15, 5)
    assert tuple(len(g) for g in flats(arr).flats_by_rank) == (1, 15, 65, 90, 31, 1)
    betti = (1, 15, 85, 225, 274, 120)
    assert nbc_sets(arr).counts == whitney_numbers(arr) == betti
    assert profile == tuple(math.comb(15, p) - (betti[p] if p < len(betti) else 0) for p in range(1, 16))
    assert elapsed < 40.0, f"{elapsed:.2f} s"


WALK_ORDER_INPUTS = {
    "A_4": lambda: braid(4),
    "A_5": lambda: braid(5),
    "B_3": lambda: reflection("B", 3),
    "B_4": lambda: reflection("B", 4),
    "U(3,7)": lambda: generic_hyperplanes(7, 3, 3),
}


@pytest.mark.parametrize("name", list(WALK_ORDER_INPUTS))
def test_whitney_numbers_read_ranks_not_walk_order(name):
    """Weisner's sum visits the closed sets by rank: the same closed sets listed in another order
    give the same Whitney numbers, which equal the NBC counts."""
    arr = WALK_ORDER_INPUTS[name]()
    want = whitney_numbers(arr)
    assert want == betti_vector(arr)
    closed, covers = arr._walk
    for seed in range(3):
        items = list(closed.items())
        random.Random(seed).shuffle(items)
        arr.__dict__["_walk"] = (dict(items), covers)  # the cached walk, reordered
        assert list(arr._walk[0]) != list(closed)
        assert whitney_numbers(arr) == want


# connected graphs on the vertices 0..d: name -> (d, edges)
GRAPHS = {
    "path P_5": (4, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "cycle C_5": (4, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star K_1,4": (4, [(0, 2), (1, 2), (2, 3), (2, 4)]),
    "K_4 minus an edge": (3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "wheel W_5": (4, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),  # hub 0
    "triangular prism": (5, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K_2,3": (4, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
}


def chromatic(vertices: frozenset, edges: frozenset) -> list[int]:
    """Coefficients (constant term first) of the chromatic polynomial, by deletion-contraction."""
    if not edges:
        return [0] * len(vertices) + [1]
    edge = min(edges, key=sorted)
    u, v = sorted(edge)
    deleted = chromatic(vertices, edges - {edge})
    merged = {frozenset(u if w == v else w for w in e) for e in edges - {edge}}
    contracted = chromatic(vertices - {v}, frozenset(e for e in merged if len(e) == 2))
    return [a - b for a, b in itertools.zip_longest(deleted, contracted, fillvalue=0)]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_graphic_arrangement_known_answers(name):
    """A connected graph's Betti numbers are the absolute coefficients of its chromatic
    polynomial divided by t (Orlik-Terao, ch. 2), and rank I^p + b_p = C(n, p) in every degree."""
    d, edges = GRAPHS[name]
    arr = graphic(d, edges)
    chi = chromatic(frozenset(range(d + 1)), frozenset(frozenset(e) for e in edges))
    assert chi[0] == 0
    betti = betti_vector(arr)
    assert betti == tuple(abs(c) for c in reversed(chi[1:]))
    padded = betti + (0,) * (arr.n + 1 - len(betti))
    profile = ideal_rank_profile(full_presentation(arr))
    assert tuple(r + b for r, b in zip(profile, padded[1:])) == tuple(math.comb(arr.n, p) for p in range(1, arr.n + 1))


# (kind, d) of `conftest.reflection` -> the exponents e_i, coexponents for G(4, p, 3)
REFLECTIONS = {
    ("B", 3): (1, 3, 5),
    ("D", 4): (1, 3, 3, 5),
    ("B", 4): (1, 3, 5, 7),
    ("G(4,1)", 3): (1, 5, 9),
    ("G(4,4)", 3): (1, 5, 6),
}


@pytest.mark.parametrize("kind, d", list(REFLECTIONS), ids=[f"{k}-{d}" for k, d in REFLECTIONS])
def test_reflection_arrangement_known_answers(kind, d):
    """Non-binary lattices, complex coefficients for G(4, p, 3): the Betti numbers are the
    coefficients of the product of 1 + e_i t (Orlik-Terao, ch. 6), and rank I^p + b_p = C(n, p)."""
    arr = reflection(kind, d)
    product = [1]
    for e in REFLECTIONS[kind, d]:
        product = [a + e * b for a, b in zip(product + [0], [0] + product)]
    assert arr.n == sum(REFLECTIONS[kind, d]) <= 16 and validate(arr).ok
    assert betti_vector(arr) == whitney_numbers(arr) == tuple(product)
    padded = tuple(product) + (0,) * (arr.n + 1 - len(product))
    profile = ideal_rank_profile(full_presentation(arr))
    assert tuple(r + b for r, b in zip(profile, padded[1:])) == tuple(math.comb(arr.n, p) for p in range(1, arr.n + 1))


def test_same_labeled_matroid(arr_b, arr_bprime):
    assert same_labeled_matroid(arr_b, arr_bprime)
    assert same_labeled_matroid(arr_b, arr_b)


def test_no_relabeling_matches_different_circuit_counts():
    a3, planes = braid(3), generic_hyperplanes(6, 3, 3)
    assert (a3.n, len(circuits(a3)), planes.n, len(circuits(planes))) == (6, 7, 6, 15)
    assert not same_labeled_matroid(a3, planes, up_to_relabeling=True)


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


def test_rank_monotone_and_submodular(arr_bprime, arr_bhat):
    for arr in (arr_bprime, arr_bhat):
        subsets = list(all_subsets(arr.n))
        ranks = {s: codim(arr, s) // 2 for s in subsets}
        for a in subsets:
            for b in subsets:
                union = tuple(sorted(set(a) | set(b)))
                inter = tuple(sorted(set(a) & set(b)))
                if set(a) <= set(b):
                    assert ranks[a] <= ranks[b]
                assert ranks[union] + ranks[inter] <= ranks[a] + ranks[b]


def test_flats_against_bruteforce_closure(arr_b, arr_bprime, arr_bhat):
    for arr in (arr_b, arr_bprime, arr_bhat, independent_pair()):
        brute = {closure(arr, s) for s in all_subsets(arr.n)}
        enumerated = {f.elements for g in flats(arr).flats_by_rank for f in g}
        assert enumerated == brute
        for f in itertools.chain.from_iterable(flats(arr).flats_by_rank):
            assert f.rank == codim(arr, f.elements) // 2


def test_circuits_are_minimal_dependent(arr_bprime, arr_bhat):
    for arr in (arr_bprime, arr_bhat):
        cs = circuits(arr)
        for c in cs:
            assert codim(arr, c) // 2 == len(c) - 1
            for x in c:
                rest = tuple(e for e in c if e != x)
                assert codim(arr, rest) // 2 == len(rest)
        # every dependent set contains a circuit
        for s in all_subsets(arr.n):
            if codim(arr, s) // 2 < len(s):
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
    """Every subset has even codimension, so its rank codim // 2 is exact."""
    for arr in (arr_b, arr_bprime, arr_bhat):
        for s in all_subsets(arr.n):
            assert codim(arr, s) % 2 == 0
