"""Hypothesis properties: invariance under form rechoice and relabelling, round trips,
and the Björner–Ziegler identity.

Each of the first three properties runs on every input: the four fixtures,
small generated arrangements (n <= 7), two graphic arrangements (n = 8
and 9) and the reflection arrangement of G(4, 4, 3) (n = 12, complex
coefficients), whose lattices are not those of uniform matroids. A drawn case
replaces each subspace's form pair by an invertible rational 2x2
recombination of it, which drops the complex block, and then reorders the
subspaces. Graphic arrangements and the reflection arrangements B_3 and
G(4, 4, 3) are also checked with z_j and its conjugate swapped: every member
is then conjugate-linear, one complex structure again, so their relations
take the all-plus route, and the solver checks each of them. The
Björner–Ziegler identity runs on drawn generic lines and planes. Two CLI
properties close the file: `compare` marks DIFFER on exactly the rows its
JSON `differing` names, on drawn pairs of generic lines; and `betti --order`
prints the default order's Betti and Whitney lines from its one NBC complex.
The runs are derandomized, as in `test_parser_fuzz.py`.
"""

import contextlib
import functools
import io
import itertools
import json
import tempfile
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAPHS, chromatic, generic_hyperplanes, generic_lines, graphic, reflection
from test_presentation import circuit_relation, recombined, swapped
from twoarr import matroid
from twoarr.arrangement import (
    Arrangement,
    ValidationError,
    parse_arrangement,
)
from twoarr.restriction import restrict, serialize_arrangement
from twoarr.cli import main
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.exterior import ideal_ranks
from twoarr.invariants import compare, kappa, kappa_rank, triple_coefficients
from twoarr.matroid import betti_vector, circuits, nbc_sets
from twoarr.presentation import MODE_COMPLEX, ModeMismatch, full_presentation, ideal_rank_profile

INPUTS = {
    **{name: load_fixture(name) for name in FIXTURES},
    "lines-7": generic_lines(7, 3),
    "lines-6-conj": generic_lines(6, 5, conjugate_last=True),
    "planes-6": generic_hyperplanes(6, 3, 3),
    "planes-5-conj": generic_hyperplanes(5, 3, 7, conjugate_last=True),
    # non-uniform lattices: the rest are uniform matroids or the small fixtures
    "wheel-w5": graphic(*GRAPHS["wheel W_5"]),
    "prism": graphic(*GRAPHS["triangular prism"]),
    "reflection-G443": reflection("G(4,4)", 3),
}
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=3)

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
GL2 = st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS).filter(lambda m: m[0] * m[3] != m[1] * m[2])


@st.composite
def changed(draw, arr):
    """(new index of each old one, `arr` recombined pair by pair and reordered)."""
    mats = draw(st.lists(GL2, min_size=arr.n, max_size=arr.n))
    perm = list(range(arr.n))  # new subspace j + 1 is old perm[j] + 1
    draw(st.randoms(use_true_random=False)).shuffle(perm)
    moved = recombined(arr, mats)
    new_of = {old + 1: new + 1 for new, old in enumerate(perm)}
    return new_of, Arrangement(arr.dim, tuple(moved.subspaces[old] for old in perm))


def invariants(arr):
    return {
        "betti": betti_vector(arr),
        "ideal ranks": ideal_rank_profile(full_presentation(arr)),
        "kappa rank": kappa_rank(kappa(arr)),
        "triples": Counter(triple_coefficients(arr).values()) if arr.dim == 4 else None,
    }


@functools.lru_cache(maxsize=None)
def base_invariants(name):
    return invariants(INPUTS[name])


def _relabelled_mask(mask, new_of):
    return sum(1 << (new_of[i + 1] - 1) for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.mark.parametrize("name", INPUTS)
@PROPERTY
@given(data=st.data())
def test_invariants_survive_form_rechoice_and_relabelling(name, data):
    base = INPUTS[name]
    new_of, arr = data.draw(changed(base))
    assert arr._walk[0] == {_relabelled_mask(m, new_of): c for m, c in base._walk[0].items()}
    assert circuits(arr) == sorted(tuple(sorted(new_of[e] for e in c)) for c in circuits(base))
    assert invariants(arr) == base_invariants(name)


@pytest.mark.parametrize("name", INPUTS)
@PROPERTY
@given(data=st.data())
def test_parse_serialize_parse_round_trips(name, data):
    _, changed_arr = data.draw(changed(INPUTS[name]))
    for arr in (INPUTS[name], changed_arr):
        parsed = parse_arrangement(serialize_arrangement(arr))
        assert parsed == arr
        assert parse_arrangement(serialize_arrangement(parsed)) == parsed


@pytest.mark.parametrize("name", INPUTS)
@PROPERTY
@given(data=st.data())
def test_restrict_output_parses_or_repeats_a_member(name, data):
    """Restricted members may coincide (every member of an R^4 input becomes the origin of R^2)."""
    _, arr = data.draw(changed(INPUTS[name]))
    text = serialize_arrangement(restrict(arr, data.draw(st.integers(1, arr.n))))
    try:
        parse_arrangement(text)
    except ValidationError as e:
        assert {v.kind for v in e.report.violations} == {"pairwise-rank"}


@pytest.mark.parametrize("conjugate_last", [False, True], ids=["z-linear", "conj"])
@pytest.mark.parametrize("rank", [2, 3], ids=["lines", "planes"])
@PROPERTY
@given(n=st.integers(3, 7), seed=st.integers(0, 2**16))
def test_ideal_ranks_and_nbc_counts_fill_every_degree(rank, conjugate_last, n, seed):
    """rank I^p + #NBC_p = C(n, p) (Björner–Ziegler, JAMS 1992) on a generic arrangement."""
    arr = generic_hyperplanes(n, rank, seed, conjugate_last)
    ranks = (0,) + ideal_rank_profile(full_presentation(arr))
    counts = nbc_sets(arr).counts
    counts += (0,) * (n + 1 - len(counts))
    assert [r + c for r, c in zip(ranks, counts)] == [comb(n, p) for p in range(n + 1)]


@st.composite
def connected_graphs(draw):
    """(d, edges) of a connected graph on the vertices 0..d, d <= 6: a spanning tree plus extra edges.

    In the tree each vertex v > 0 joins a drawn earlier vertex, and then the
    vertices are relabelled; up to MAX_EXTRA_EDGES other edges are added, and
    all the edges come in a drawn order.
    """
    d = draw(st.integers(1, 6))
    label = draw(st.permutations(range(d + 1)))
    tree = {tuple(sorted((label[v], label[draw(st.integers(0, v - 1))]))) for v in range(1, d + 1)}
    others = [e for e in itertools.combinations(range(d + 1), 2) if e not in tree]
    extra = draw(st.lists(st.sampled_from(others), max_size=MAX_EXTRA_EDGES, unique=True)) if others else []
    return d, draw(st.permutations(sorted(tree) + extra))


# n <= 12 on 7 vertices: about 1 s per example at worst, against 8 s with 8 extra
# edges (n = 14), measured on one Xeon core under CPython 3.11
MAX_EXTRA_EDGES = 6


def conjugated(arr):
    """`arr` with z_j and its conjugate swapped in every member: a real change of
    coordinates, so the same lattice and dependencies, but no longer z-linear input."""
    return swapped(arr, range(1, arr.n + 1))


@settings(PROPERTY, max_examples=10)
@given(graph=connected_graphs())
def test_graphic_arrangements_match_the_chromatic_polynomial(graph):
    """Betti numbers are the absolute coefficients of chi_G(t) / t (Orlik-Terao, ch. 2),
    rank I^p + b_p = C(n, p), and the conjugate swap keeps the relations, which the
    solver gives on every circuit."""
    d, edges = graph
    arr = graphic(d, edges)
    chi = chromatic(frozenset(range(d + 1)), frozenset(frozenset(e) for e in edges))
    betti = betti_vector(arr)
    assert betti == tuple(abs(c) for c in reversed(chi[1:]))
    betti += (0,) * (arr.n + 1 - len(betti))
    ranks = ideal_ranks(full_presentation(arr).elements(), arr.n)
    assert [r + b for r, b in zip(ranks, betti)] == [comb(arr.n, p) for p in range(arr.n + 1)]
    other = conjugated(arr)
    with pytest.raises(ModeMismatch):
        full_presentation(other, MODE_COMPLEX)
    relations = full_presentation(other).relations
    assert relations == tuple(circuit_relation(other, c) for c in circuits(other))
    assert relations == full_presentation(arr).relations
    assert compare(arr, other).differing == ()


@pytest.mark.parametrize("kind", ["B", "G(4,4)"])
def test_conjugate_swap_of_a_reflection_arrangement_keeps_the_solved_all_plus_relations(kind):
    """In C^3, B_3 and G(4, 4, 3) swapped to conjugate-linear input take the all-plus
    route, and solving each circuit gives the same relations, every sigma_j +1."""
    arr = reflection(kind, 3)
    other = conjugated(arr)
    with pytest.raises(ModeMismatch):
        full_presentation(other, MODE_COMPLEX)
    relations = full_presentation(other).relations
    assert {s for rel in relations for s in rel.signs} == {1}
    assert relations == tuple(circuit_relation(other, c) for c in circuits(other))
    assert relations == full_presentation(arr, MODE_COMPLEX).relations
    assert compare(arr, other).differing == ()


def cli_run(*argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def written(directory, arrangements):
    """Paths of the arrangements, each serialized into its own file under `directory`."""
    paths = []
    for k, arr in enumerate(arrangements):
        path = Path(directory) / f"{k}.arr"
        path.write_text(serialize_arrangement(arr))
        paths.append(str(path))
    return paths


COMPARE_ROWS = {
    "matroids (labeled)": "matroid",
    "betti": "betti",
    "ideal ranks": "ideal-ranks",
    "kappa ranks": "kappa-rank",
    "triple multisets": "triple-multiset",
}


@pytest.mark.parametrize("conjugate_last", [False, True], ids=["z-linear", "conj"])
@settings(PROPERTY, max_examples=8)
@given(n=st.integers(3, 6), seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_compare_text_marks_exactly_the_json_differing_rows(conjugate_last, n, seeds):
    """The second arrangement's last member is conjugate-linear under `conjugate_last`."""
    pair = [generic_lines(n, seeds[0]), generic_lines(n, seeds[1], conjugate_last)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = written(tmp, pair)
        code, text = cli_run("compare", *paths)
        _, doc = cli_run("compare", *paths, "--format", "json")
    marked = [COMPARE_ROWS[line.split(":")[0]] for line in text.splitlines() if line.endswith("DIFFER")]
    assert marked == json.loads(doc)["differing"]
    assert code == (10 if marked else 0)


@pytest.mark.parametrize("name", INPUTS)
@PROPERTY
@given(data=st.data())
def test_betti_order_changes_only_the_nbc_line(name, data):
    _, arr = data.draw(changed(INPUTS[name]))
    order = data.draw(st.permutations(range(1, arr.n + 1)))
    calls = []
    enumerate_nbc = matroid.nbc_sets

    def spy(a, o=None):
        calls.append(o)
        return enumerate_nbc(a, o)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(matroid, "nbc_sets", spy):
        (path,) = written(tmp, [arr])
        _, default = cli_run("betti", path)
        code, ordered = cli_run("betti", path, "--order", ",".join(map(str, order)))
    assert code == 0
    assert ordered.splitlines()[1:] == default.splitlines()[1:]
    assert ordered.splitlines()[2] == "whitney check: ok"
    assert calls == [None, tuple(order)]
