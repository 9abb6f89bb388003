"""Reference lattice code for the differential tests, on its own rank oracle.

These are the implementations the closed-set walk replaced: closures by one
rank question per (subset, element) pair, the lattice by breadth-first
closure, circuits by an unbounded scan over all subsets, and set-based NBC
and Moebius tests. They stay here as the oracle the package is compared
against. Every rank comes from `codim` below: dense `Fraction` elimination
(`dense_reference.rref`) of the stacked forms, which shares no code with
the package's walk or kernels.
"""

import itertools

from dense_reference import rref
from twoarr.arrangement import ValidationReport, Violation
from twoarr.matroid import Flat, IntersectionLattice, NbcComplex, NotAdmissible

_BASES: dict[int, tuple] = {}  # id(arr) -> (arr, {subset bitmask: rref basis}); arr pins the id


def _basis(arr, mask):
    """The reduced echelon basis of the forms of a subset, built one element at a time."""
    if id(arr) not in _BASES:
        if len(_BASES) >= 4:
            _BASES.clear()
        _BASES[id(arr)] = (arr, {0: []})
    bases = _BASES[id(arr)][1]
    if mask not in bases:
        top = mask.bit_length() - 1
        below = _basis(arr, mask & ~(1 << top))
        if len(below) == arr.dim:  # already the whole space
            bases[mask] = below
        else:
            s = arr.subspaces[top]
            reduced, pivots = rref(below + [list(s.first), list(s.second)])
            bases[mask] = reduced[: len(pivots)]
    return bases[mask]


def codim(arr, subset):
    """Rank of the stacked forms of a subset of 1-based indices."""
    return len(_basis(arr, sum(1 << (a - 1) for a in set(subset))))


def matroid_rank(arr, subset):
    c = codim(arr, subset)
    if c % 2 != 0:
        raise NotAdmissible(f"subset {set(subset)} has odd codimension {c}")
    return c // 2


def closure(arr, subset):
    subset = tuple(sorted(set(subset)))
    base = codim(arr, subset)
    return tuple(
        b
        for b in range(1, arr.n + 1)
        if b in subset or codim(arr, subset + (b,)) == base
    )


def closed_sets(arr):
    """Breadth-first closure; works whether or not the arrangement is admissible."""
    first = closure(arr, ())
    seen = {first}
    frontier = [first]
    while frontier:
        nxt = []
        for f in frontier:
            for a in range(1, arr.n + 1):
                if a in f:
                    continue
                g = closure(arr, f + (a,))
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def validate(arr):
    out = []
    for a in range(1, arr.n + 1):
        r = codim(arr, (a,))
        if r != 2:
            out.append(Violation("pair-rank", (a,), f"subspace {a} has form rank {r}, expected 2"))
    if out:
        return ValidationReport(tuple(out))
    total = codim(arr, range(1, arr.n + 1))
    if total != arr.dim:
        out.append(
            Violation(
                "not-essential",
                tuple(range(1, arr.n + 1)),
                f"all forms span rank {total}, expected {arr.dim}",
            )
        )
    for a in range(1, arr.n + 1):
        for b in range(a + 1, arr.n + 1):
            r = codim(arr, (a, b))
            if r != 4:
                out.append(
                    Violation("pairwise-rank", (a, b), f"subset {{{a},{b}}} has rank {r}, expected 4")
                )
    for f in closed_sets(arr):
        r = codim(arr, f)
        if r % 2 != 0:
            out.append(Violation("odd-rank", f, f"subset {set(f)} has rank {r} (odd)"))
    return ValidationReport(tuple(out))


def flats(arr):
    bottom = closure(arr, ())
    ranks = {bottom: matroid_rank(arr, bottom)}
    frontier = [bottom]
    while frontier:
        nxt = []
        for f in frontier:
            for a in range(1, arr.n + 1):
                if a in f:
                    continue
                g = closure(arr, f + (a,))
                if g not in ranks:
                    ranks[g] = matroid_rank(arr, g)
                    nxt.append(g)
        frontier = nxt
    top = max(ranks.values())
    groups = [[] for _ in range(top + 1)]
    for elements, r in ranks.items():
        groups[r].append(Flat(elements, r))
    for g in groups:
        g.sort(key=lambda f: f.elements)
    return IntersectionLattice(tuple(tuple(g) for g in groups))


def circuits(arr):
    found = []
    for size in range(1, arr.n + 1):  # a loop, a zero member, is a circuit of size 1
        for comb in itertools.combinations(range(1, arr.n + 1), size):
            s = set(comb)
            if any(set(c) <= s for c in found):
                continue
            if matroid_rank(arr, comb) < size:
                found.append(comb)
    return sorted(found)


def nbc_sets(arr, circuits, order=None):
    n = arr.n
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    pos = {e: i for i, e in enumerate(order)}
    broken = [frozenset(c) - {min(c, key=pos.__getitem__)} for c in circuits]
    groups = []
    for size in range(n + 1):
        level = [
            comb
            for comb in itertools.combinations(range(1, n + 1), size)
            if not any(b <= set(comb) for b in broken)
        ]
        if not level:
            break
        groups.append(level)
    return NbcComplex(tuple(tuple(g) for g in groups))


def whitney_numbers(arr):
    lattice = flats(arr)
    mu = {}
    for group in lattice.flats_by_rank:
        for f in group:
            below = sum(
                mu[g.elements]
                for grp in lattice.flats_by_rank[: f.rank]
                for g in grp
                if set(g.elements) < set(f.elements)
            )
            mu[f.elements] = 1 if f.rank == 0 else -below
    return tuple(
        sum(abs(mu[f.elements]) for f in group) for group in lattice.flats_by_rank
    )
