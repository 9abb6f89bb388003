"""The paper's integral claim: every slice of the relation ideal, eliminated over Z, has unit pivots.

Björner–Ziegler (JAMS 1992): E/I is free over Z with the NBC monomials as a
basis. Each relation r_C leads at C minus its largest member with
coefficient ±1, so over Z the slice I^p has an echelon basis whose pivot
monomials are exactly those that contain some such broken circuit, each
pivot a unit; then E^p/I^p has no torsion. `integral_reference` eliminates
by unimodular row operations only, so any pivot other than 1 it keeps is a
true index of the lattice, not an artefact of scaling.
"""

import itertools
import math

import pytest

from conftest import braid, elem, generic_hyperplanes, generic_lines, graphic, reflection
from integral_reference import integral_slices
from test_matroid import GRAPHS
from twoarr.exterior import ideal_ranks
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.presentation import full_presentation

# test_lattice_walk.py's CASES (the fixtures, A_4, U(3, 7), and lines at n = 7..12 with and
# without conj), the reflection inputs with n <= 12 and the graphic family. B_4 (n = 16) and
# G(4, 1, 3) (n = 15) pass too, but take about 3 s and 0.7 s in process on one Xeon core.
INPUTS = {
    **{f.removesuffix(".arr"): lambda f=f: load_fixture(f) for f in FIXTURES},
    "braid-A4": lambda: braid(4),
    "planes-7": lambda: generic_hyperplanes(7, 3, 3),
    **{
        f"lines-{n}{tag}": lambda n=n, tag=tag: generic_lines(n, 3, conjugate_last=bool(tag))
        for n in range(7, 13)
        for tag in ("", "-conj")
    },
    **{f"reflection-{k}-{d}": lambda k=k, d=d: reflection(k, d) for k, d in (("B", 3), ("D", 4), ("G(4,4)", 3))},
    **{f"graphic-{name}": lambda name=name: graphic(*GRAPHS[name]) for name in GRAPHS},
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_every_integral_slice_has_unit_pivots_at_the_broken_circuit_monomials(name):
    arr = INPUTS[name]()
    pres = full_presentation(arr)
    broken = {r.circuit[:-1] for r in pres.relations}
    slices = list(integral_slices(pres.elements(), arr.n))
    for p, kept in enumerate(slices):
        assert all(row[mon] == 1 for mon, row in kept.items()), p
        expected = {s for s in itertools.combinations(range(1, arr.n + 1), p) if any(set(b) <= set(s) for b in broken)}
        assert set(kept) == expected, p
    full = tuple(math.comb(arr.n, p) for p in range(len(slices), arr.n + 1))
    assert tuple(map(len, slices)) + full == ideal_ranks(pres.elements(), arr.n)


@pytest.mark.parametrize("a, b", [(2, 3), (4, 2)])
def test_the_integral_pass_keeps_a_lattice_index_in_its_pivots(a, b):
    """a e12 + e13 and b e12 span a sublattice of index b in its saturation: over Z the pivots
    are gcd(a, b) and b / gcd(a, b), and no kept row holds a zero. An elimination that scales
    or divides rows need not show that index."""
    slices = list(integral_slices([elem(((1, 2), a), ((1, 3), 1)), elem(((1, 2), b))], 3))
    g = math.gcd(a, b)
    assert {mon: row[mon] for mon, row in slices[2].items()} == {(1, 2): g, (1, 3): b // g}
    assert all(0 not in row.values() for kept in slices for row in kept.values())
