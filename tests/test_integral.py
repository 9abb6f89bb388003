"""The paper's integral claim, on the package's own pass: every slice of the relation ideal is
eliminated over Z by unimodular steps alone, and its pivots are the broken-circuit monomials.

Björner–Ziegler (JAMS 1992): E/I is free over Z with the NBC monomials as a
basis. Each relation r_C leads at C minus its largest member with
coefficient ±1, and `exterior.ideal_slices` feeds each slice those unit-lead
rows first. If no `linalg._cancel` or `_primitive` step of the pass meets a
pivot other than ±1, no row is scaled or divided: the slice's basis spans
the same lattice over Z as the products it was fed, and with pivots of 1 that
lattice is saturated, so E^p/I^p has no torsion. The pivot monomials are then
exactly those that contain some C - max C, and the ranks are
C(n, p) - #NBC_p, with the counts from `matroid.nbc_sets`.
"""

import math

import pytest

from conftest import GRAPHS, braid, elem, generic_hyperplanes, generic_lines, graphic, reflection
from twoarr import linalg
from twoarr.exterior import ExtElement, ideal_slices, monomials
from twoarr.fixtures import FIXTURES, load_fixture
from twoarr.matroid import nbc_sets
from twoarr.presentation import full_presentation

# test_lattice_walk.py's CASES (the fixtures, A_4, U(3, 7), and lines at n = 7..12 with and
# without conj), the reflection inputs with n <= 16 and the graphic family.
INPUTS = {
    **{f.removesuffix(".arr"): lambda f=f: load_fixture(f) for f in FIXTURES},
    "braid-A4": lambda: braid(4),
    "planes-7": lambda: generic_hyperplanes(7, 3, 3),
    **{
        f"lines-{n}{tag}": lambda n=n, tag=tag: generic_lines(n, 3, conjugate_last=bool(tag))
        for n in range(7, 13)
        for tag in ("", "-conj")
    },
    **{
        f"reflection-{k}-{d}": lambda k=k, d=d: reflection(k, d)
        for k, d in (("B", 3), ("D", 4), ("G(4,4)", 3), ("B", 4), ("G(4,1)", 3))
    },
    **{f"graphic-{name}": lambda name=name: graphic(*GRAPHS[name]) for name in GRAPHS},
}


def non_unit_steps(monkeypatch):
    """Installs a spy on linalg's row steps and gives the list it fills: (step, pivot) for each
    `_cancel` against, or `_primitive` at, a pivot other than ±1."""
    steps = []
    cancel, primitive = linalg._cancel, linalg._primitive

    def spy_cancel(r, b, c):
        if abs(b[c]) != 1:
            steps.append(("_cancel", b[c]))
        return cancel(r, b, c)

    def spy_primitive(row, pivot):
        if abs(row[pivot]) != 1:
            steps.append(("_primitive", row[pivot]))
        return primitive(row, pivot)

    monkeypatch.setattr(linalg, "_cancel", spy_cancel)
    monkeypatch.setattr(linalg, "_primitive", spy_primitive)
    return steps


@pytest.mark.parametrize("name", list(INPUTS))
def test_every_integral_slice_has_unit_pivots_at_the_broken_circuit_monomials(name, monkeypatch):
    arr = INPUTS[name]()
    pres = full_presentation(arr)
    nbc = nbc_sets(arr).counts
    broken = {r.circuit[:-1] for r in pres.relations}
    steps = non_unit_steps(monkeypatch)  # on the pass alone, not the circuit solves
    slices = list(ideal_slices(pres.elements(), arr.n))
    assert steps == []
    for p, echelon in enumerate(slices):
        cols = monomials(arr.n, p)
        assert [cols[min(row)] for row in echelon] == [s for s in cols if any(set(b) <= set(s) for b in broken)], p
    ranks = [len(echelon) for echelon in slices] + [math.comb(arr.n, p) for p in range(len(slices), arr.n + 1)]
    assert ranks == [math.comb(arr.n, p) - (nbc[p] if p < len(nbc) else 0) for p in range(arr.n + 1)]


@pytest.mark.parametrize("a, b", [(2, 3), (4, 2)])
def test_a_lattice_index_shows_as_a_non_unit_step(a, b, monkeypatch):
    """a e12 + e13 and b e12 span a sublattice of index b in its saturation, and no row leads
    with a unit: over Q they span e12 and e13, but the pass must scale or divide a row."""
    steps = non_unit_steps(monkeypatch)
    slices = list(ideal_slices([elem(((1, 2), a), ((1, 3), 1)), elem(((1, 2), b))], 3))
    assert slices[2] == [{0: 1}, {1: 1}]
    assert steps


@pytest.mark.parametrize("name", ["example22-B", "thm32-Bhat-complex", "braid-A4", "lines-9-conj", "reflection-B-3"])
def test_the_feed_order_never_changes_a_slice(name, monkeypatch):
    """Terms out of graded-lex order and a reversed relation list give the same slices, and the
    pass still finds each unit lead: it reads a generator's lead off its least monomial."""
    arr = INPUTS[name]()
    gens = full_presentation(arr).elements()
    shuffled = [ExtElement(tuple(reversed(g.terms))) for g in reversed(gens)]
    assert shuffled != gens
    steps = non_unit_steps(monkeypatch)
    assert list(ideal_slices(shuffled, arr.n)) == list(ideal_slices(gens, arr.n))
    assert steps == []

