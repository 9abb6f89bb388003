"""The closed-set walk (`Arrangement._walk`) and the searches on it, against the code they replaced."""

import functools
import itertools
import math
import random
import re
import sys
import time

import pytest

import lattice_reference as ref
from conftest import (
    all_subsets, braid, braid_a4, generic_hyperplanes, generic_lines, independent_pair, pair, single_subspace,
)
from twoarr import arrangement, cli, linalg, matroid, restriction
from twoarr.arrangement import (
    Arrangement,
    _members,
    codim,
    parse_arrangement,
    validate,
)
from twoarr.fixtures import load_fixture
from twoarr.invariants import VERDICT_DISTINGUISHED, compare
from twoarr.matroid import NotAdmissible, circuits, closure, flats, nbc_sets, whitney_numbers
from twoarr.presentation import full_presentation, ideal_rank_profile
from twoarr.restriction import restrict, serialize_arrangement
from twoarr.verbs import betti as betti_verb

FIXTURES = ("example22-B", "example22-Bprime", "thm32-Bhat", "thm32-Bhat-complex")
CASES = (
    [f"fixture-{name}" for name in FIXTURES]
    + ["single-subspace", "independent-pair", "braid-A4", "planes-7"]
    + [f"braid-A4-loop-{position}" for position in (0, 2, 10)]  # a zero member: no set is NBC
    + [f"lines-{n}{tag}" for n in range(7, 13) for tag in ("", "-conj")]
)


def looped_a4(position):
    """A_4 with a zero member, a loop, inserted at `position`. Parsing rejects a loop;
    an `Arrangement` built in code may hold one."""
    a4 = braid_a4()
    members = list(a4.subspaces)
    members.insert(position, pair("Z", (0,) * a4.dim, (0,) * a4.dim))
    return Arrangement(a4.dim, tuple(members))


@functools.lru_cache(maxsize=None)
def build(case):
    """A fresh arrangement per case, shared by the tests below."""
    if case.startswith("fixture-"):
        return load_fixture(case[len("fixture-"):])
    if case == "single-subspace":  # rank 1, no circuit
        return single_subspace()
    if case == "independent-pair":  # no circuit
        return independent_pair()
    if case.startswith("braid-A4-loop-"):
        return looped_a4(int(case[len("braid-A4-loop-"):]))
    if case.startswith("braid-A"):
        return braid(int(case[len("braid-A"):]))
    if case == "planes-7":
        return generic_hyperplanes(7, 3, 3)
    n, _, conj = case[len("lines-"):].partition("-")
    return generic_lines(int(n), 3, conjugate_last=bool(conj))


@pytest.mark.parametrize("case", CASES)
def test_closed_sets_match_bruteforce_closure(case):
    arr = build(case)
    codims = {mask: ref.codim(arr, _members(mask)) for mask in range(1 << arr.n)}
    brute = {
        mask | sum(1 << b for b in range(arr.n) if codims[mask | 1 << b] == c)
        for mask, c in codims.items()
    }  # closure(S): S plus every element that leaves codim(S) as it is
    assert set(arr._walk[0]) == brute
    assert all(codims[mask] == c for mask, c in arr._walk[0].items())


@pytest.mark.parametrize("case", CASES)
def test_lattice_consumers_match_reference(case):
    arr = build(case)
    assert flats(arr) == ref.flats(arr)
    assert whitney_numbers(arr) == ref.whitney_numbers(arr)
    expected = ref.circuits(arr)
    assert circuits(arr) == expected
    assert nbc_sets(arr) == ref.nbc_sets(arr, expected)
    order = list(range(1, arr.n + 1))
    random.Random(arr.n).shuffle(order)
    assert nbc_sets(arr, order) == ref.nbc_sets(arr, expected, order)
    rng = random.Random(7)
    drawn = [rng.sample(range(1, arr.n + 1), rng.randint(0, arr.n)) for _ in range(30)]
    for s in [(), (1,), (1, 2)][: arr.n + 1] + drawn:  # the empty set, a point and a pair, then 30 draws
        assert closure(arr, s) == ref.closure(arr, s)


def inadmissible_arrangements():
    """Directly built arrangements that fail validation: odd ranks, not essential, degenerate pairs."""
    out = [
        Arrangement(
            4,
            (
                pair("H1", (1, 0, 0, 0), (0, 1, 0, 0)),
                pair("H2", (0, 0, 1, 0), (0, 0, 0, 1)),
                pair("H3", (1, 0, 0, 0), (0, 0, 1, 0)),
            ),
        )
    ]
    rng = random.Random(5)
    while len(out) < 30:
        dim = rng.choice((4, 6))
        # a zero last coordinate in every form leaves the arrangement not essential
        width = dim - (len(out) % 3 == 0)
        n = rng.randint(3, 6)
        rows = [
            tuple(rng.choice((-1, 0, 0, 1, 2)) if i < width else 0 for i in range(dim))
            for _ in range(2 * n)
        ]
        arr = Arrangement(dim, tuple(pair(f"H{k + 1}", rows[2 * k], rows[2 * k + 1]) for k in range(n)))
        if not validate(arr).ok:
            out.append(arr)
    return out


def test_validate_matches_reference_on_inadmissible_arrangements():
    kinds = set()
    for arr in inadmissible_arrangements():
        report = validate(arr)
        assert report == ref.validate(arr)
        kinds |= {v.kind for v in report.violations}
        assert {_members(m) for m in arr._walk[0]} == set(ref.closed_sets(arr))
        for s in all_subsets(arr.n):
            assert closure(arr, s) == ref.closure(arr, s)
        try:
            expected = ref.flats(arr)
        except NotAdmissible as e:
            with pytest.raises(NotAdmissible, match=re.escape(str(e))):
                flats(arr)
        else:
            assert flats(arr) == expected
    assert kinds == {"pair-rank", "not-essential", "pairwise-rank", "odd-rank"}


def test_circuits_and_nbc_sets_raise_like_flats_on_inadmissible_input():
    """The searches and Weisner's sum pass the walk's parity gate first, so they name the subset `flats` names."""
    for arr in inadmissible_arrangements():
        with pytest.raises(NotAdmissible) as raised:
            flats(arr)
        message = re.escape(str(raised.value))
        with pytest.raises(NotAdmissible, match=message):
            circuits(arr)
        with pytest.raises(NotAdmissible, match=message):
            nbc_sets(arr)
        with pytest.raises(NotAdmissible, match=message):
            nbc_sets(arr, range(arr.n, 0, -1))
        with pytest.raises(NotAdmissible, match=message):
            whitney_numbers(arr)


def test_each_lattice_reader_passes_the_gate_once(monkeypatch):
    """`flats`, the circuit search, `nbc_sets` and `whitney_numbers` each take the walk from one gate call."""
    assert not hasattr(matroid, "_check_admissible")
    gate = arrangement._admissible_walk
    passed = []
    for module in (arrangement, matroid):  # the circuit search sits in arrangement, the other readers in matroid
        monkeypatch.setattr(module, "_admissible_walk", lambda arr: passed.append(arr) or gate(arr))
    for reader in (flats, circuits, nbc_sets, whitney_numbers):
        arr = braid_a4()
        passed.clear()
        reader(arr)
        assert passed == [arr], reader.__name__


def test_one_walk_per_arrangement(monkeypatch, capsys):
    walked = []
    walk = arrangement.closed_sets
    monkeypatch.setattr(arrangement, "closed_sets", lambda groups: walked.append(groups) or walk(groups))
    arr = parse_arrangement(serialize_arrangement(braid_a4()))
    assert walked == [arr._integer_forms]

    def no_forward(*args, **kwargs):
        raise AssertionError("sparse_echelon in restrict")

    reduced = []
    with monkeypatch.context() as m:
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("twoarr"):
                if getattr(module, "sparse_echelon", None) is linalg.sparse_echelon:
                    m.setattr(module, "sparse_echelon", no_forward)
        m.setattr(restriction, "reduced_echelon", lambda rows: reduced.append(rows) or linalg.reduced_echelon(rows))
        restricted = restrict(arr, 1)
    assert walked == [arr._integer_forms]  # restrict reads the parse's walk for its codimensions
    assert len(reduced) == 1  # the kernel of member 1's forms
    monkeypatch.setattr(betti_verb, "_read_arrangement", lambda path: arr)
    counted = []
    real_circuits = matroid.circuits
    monkeypatch.setattr(matroid, "circuits", lambda a: counted.append(a) or real_circuits(a))
    assert [len(g) for g in flats(arr).flats_by_rank] == [1, 10, 25, 15, 1]
    assert closure(arr, (1, 2)) == (1, 2, 5)
    assert len(matroid.circuits(arr)) == 37
    assert nbc_sets(arr).counts == (1, 10, 35, 50, 24)
    assert whitney_numbers(arr) == (1, 10, 35, 50, 24)
    assert cli.main(["betti", "braid-a4.arr"]) == 0  # the file is not read
    assert "whitney check: ok" in capsys.readouterr().out
    assert walked == [arr._integer_forms]
    assert len(counted) == 1  # the call above: nbc_sets and betti read no circuits
    flats(restricted)
    assert walked == [arr._integer_forms, restricted._integer_forms]  # a restriction walks its own


def test_rank_questions_after_parse_eliminate_nothing(monkeypatch):
    """After the walk, `codim` on every subset and `validate` read the closed sets."""
    arrs = [
        parse_arrangement(serialize_arrangement(braid_a4())),
        parse_arrangement(serialize_arrangement(restrict(load_fixture("thm32-Bhat"), "H3"))),
    ]

    def no_elimination(*args, **kwargs):
        raise AssertionError("linalg elimination after parse")

    for name in ("reduced_echelon", "sparse_echelon"):
        real = getattr(linalg, name)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("twoarr") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, no_elimination)
    for arr in arrs:
        for s in all_subsets(arr.n):
            assert codim(arr, s) == ref.codim(arr, s)
        assert validate(arr).ok


def test_walk_runs_no_forward_echelon(monkeypatch):
    """Each residual of the walk is reduced once, by `reduced_echelon`, and keys its span as it is."""
    arrs = [build(case) for case in CASES] + inadmissible_arrangements()
    walks = [arr._walk for arr in arrs]

    def no_forward(*args, **kwargs):
        raise AssertionError("sparse_echelon in the walk")

    monkeypatch.setattr(linalg, "sparse_echelon", no_forward)
    assert [linalg.closed_sets(arr._integer_forms) for arr in arrs] == walks


@pytest.mark.parametrize("case", CASES + [f"braid-A{d}" for d in (2, 3, 5)])
def test_walk_inserts_each_closed_set_after_the_sets_it_covers(case):
    """Weisner's rule in `whitney_numbers` and the first odd set `_admissible_walk`
    reports both read the walk's insertion order: cl(()) first, cl(F + b) after F."""
    arr = build(case)
    closed, covers = arr._walk
    position = {f: k for k, f in enumerate(closed)}
    assert next(iter(closed)) == covers[0]
    for f in closed:
        for b in range(arr.n):
            if not f >> b & 1:
                assert position[covers[f | 1 << b]] > position[f]


def test_whitney_numbers_with_a_loop_in_the_bottom_and_fast_on_a6():
    """Weisner's sum skips the loops in cl(()); A_6's 877 flats take one pass over the covers."""
    looped = looped_a4(2)
    assert looped._walk[1][0] == 1 << 2  # the zero member is cl(())
    assert whitney_numbers(looped) == ref.whitney_numbers(looped) == whitney_numbers(braid_a4())
    a6 = braid(6)
    a6._walk  # walk first, so only the pass over the covers is timed
    start = time.perf_counter()
    numbers = whitney_numbers(a6)
    elapsed = time.perf_counter() - start
    assert numbers == (1, 21, 175, 735, 1624, 1764, 720)
    assert elapsed < 0.1, f"{elapsed:.3f} s"


class CountingDict(dict):
    """A dict that counts the passes over it: iterations and views of its keys, values or items."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def keys(self):
        self.passes += 1
        return super().keys()

    def values(self):
        self.passes += 1
        return super().values()

    def items(self):
        self.passes += 1
        return super().items()


def test_rank_questions_look_up_closures_and_never_scan_the_closed_sets():
    """Rank questions fold cover lookups; each search passes over the closed sets once, for parity."""
    arrs = [
        parse_arrangement(serialize_arrangement(braid_a4())),
        parse_arrangement(serialize_arrangement(restrict(load_fixture("thm32-Bhat"), "H3"))),
    ]
    for arr in arrs:
        closed, covers = arr._walk
        spy = CountingDict(closed)
        vars(arr)["_walk"] = (spy, covers)
        for s in all_subsets(arr.n):
            assert codim(arr, s) == ref.codim(arr, s)
            assert closure(arr, s) == ref.closure(arr, s)
        assert spy.passes == 0
        expected = ref.circuits(arr)
        assert circuits(arr) == expected
        assert spy.passes == 1
        assert nbc_sets(arr) == ref.nbc_sets(arr, expected)
        assert spy.passes == 2
        order = list(range(arr.n, 0, -1))
        assert nbc_sets(arr, order) == ref.nbc_sets(arr, expected, order)
        assert spy.passes == 3


def test_braid_a6_known_answers_stay_fast():
    """A_6, the graphic arrangement of K_7, against answers from graph theory, in under 3 s.

    Its circuits are the 1172 cycles of K_7, and its NBC and Whitney counts
    are the coefficients of (1 + t)(1 + 2t)...(1 + 6t).
    """
    text = serialize_arrangement(braid(6))
    start = time.perf_counter()
    arr = parse_arrangement(text)
    cs = circuits(arr)
    complex_ = nbc_sets(arr)
    whitney = whitney_numbers(arr)
    elapsed = time.perf_counter() - start
    element = {e: k for k, e in enumerate(itertools.combinations(range(7), 2), start=1)}
    cycles = {
        tuple(sorted(element[tuple(sorted(e))] for e in zip(walk, walk[1:] + walk[:1])))
        for size in range(3, 8)
        for first, *rest in itertools.combinations(range(7), size)
        for walk in ((first, *p) for p in itertools.permutations(rest))
    }
    assert sorted(cycles) == cs
    assert len(cs) == sum(math.comb(7, k) * math.factorial(k - 1) // 2 for k in range(3, 8)) == 1172
    coeffs = [1]
    for k in range(1, 7):
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    assert complex_.counts == whitney == tuple(coeffs) == (1, 21, 175, 735, 1624, 1764, 720)
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_twenty_generic_lines_stay_fast():
    """20 generic lines in under 2 s, and `compare` with their conj variant in under 10 s."""
    text = serialize_arrangement(generic_lines(20, 3))
    start = time.perf_counter()
    arr = parse_arrangement(text)
    cs = circuits(arr)
    complex_ = nbc_sets(arr)
    lattice = flats(arr)
    elapsed = time.perf_counter() - start
    assert cs == list(itertools.combinations(range(1, 21), 3))
    assert complex_.counts == (1, 20, 19)
    assert [len(g) for g in lattice.flats_by_rank] == [1, 20, 1]
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    conj_text = serialize_arrangement(generic_lines(20, 3, True))
    start = time.perf_counter()
    report = compare(parse_arrangement(text), parse_arrangement(conj_text))
    elapsed = time.perf_counter() - start
    want = (0, 171) + tuple(math.comb(20, p) for p in range(3, 21))
    assert report.ideal_ranks == (want, want)
    assert report.verdict == VERDICT_DISTINGUISHED
    assert elapsed < 10.0, f"{elapsed:.2f} s"


def test_hyp5_and_its_restriction_known_answers_stay_fast():
    """hyp5, 16 generic hyperplanes in C^5, is the matroid U(5, 16), and its restriction
    to L1 is U(4, 15); U(r, n) has b_p = C(n, p) below r and b_r = C(n - 1, r - 1).
    `betti`'s NBC counts and Whitney numbers on each, and on hyp5 `present`'s ideal ranks,
    rank I^p + b_p = C(16, p), in under 10 s each, timed from parsing."""
    text = serialize_arrangement(generic_hyperplanes(16, 5, 3))
    start = time.perf_counter()
    arr = parse_arrangement(text)
    betti, whitney = nbc_sets(arr).counts, whitney_numbers(arr)
    profile = ideal_rank_profile(full_presentation(arr))
    elapsed = time.perf_counter() - start
    assert betti == whitney == (1, 16, 120, 560, 1820, 1365)
    assert profile == tuple(math.comb(16, p) - (betti[p] if p < len(betti) else 0) for p in range(1, 17))
    assert elapsed < 10.0, f"{elapsed:.2f} s"
    start = time.perf_counter()
    restricted = parse_arrangement(serialize_arrangement(restrict(arr, "L1")))
    betti, whitney = nbc_sets(restricted).counts, whitney_numbers(restricted)
    elapsed = time.perf_counter() - start
    assert betti == whitney == (1, 15, 105, 455, 364)
    assert elapsed < 10.0, f"{elapsed:.2f} s"


def test_braid_a6_present_known_answer_stays_fast():
    """`present`'s ideal ranks on A_6, rank I^p + b_p = C(21, p) for p = 1..21 with b_p = 0
    past the rank, in under 20 s timed from parsing; the pass ends on the full degree-7 slice.
    `compare`'s row, read off its Betti row, is the same, and it takes under 2 s."""
    text = serialize_arrangement(braid(6))
    start = time.perf_counter()
    arr = parse_arrangement(text)
    profile = ideal_rank_profile(full_presentation(arr))
    elapsed = time.perf_counter() - start
    betti = (1, 21, 175, 735, 1624, 1764, 720)
    assert profile == tuple(math.comb(21, p) - (betti[p] if p < len(betti) else 0) for p in range(1, 22))
    assert elapsed < 20.0, f"{elapsed:.2f} s"
    start = time.perf_counter()
    report = compare(arr, arr)
    elapsed = time.perf_counter() - start
    assert report.betti == (betti, betti) and report.ideal_ranks == (profile, profile)
    assert elapsed < 2.0, f"{elapsed:.2f} s"
