"""Combinatorics of an arrangement: rank function, flats, circuits, NBC sets.

The ground set is 1..n by subspace position. The matroid rank of a subset
is half the real codimension of its intersection; operations here assume
the arrangement has already passed validation.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ._value import Value
from .arrangement import Arrangement, codim


class SizeMismatch(ValueError):
    """Two arrangements with different ground set sizes were compared."""


class NotAdmissible(ValueError):
    """A subset's intersection has odd codimension, so there is no matroid rank."""


def matroid_rank(arr: Arrangement, subset: Iterable[int]) -> int:
    subset = tuple(subset)
    c = codim(arr, subset)
    if c % 2 != 0:
        raise NotAdmissible(f"subset {set(subset)} has odd codimension {c}")
    return c // 2


def closure(arr: Arrangement, subset: Iterable[int]) -> tuple[int, ...]:
    """All elements whose forms lie in the span of the subset's forms."""
    subset = tuple(sorted(set(subset)))
    base = codim(arr, subset)
    return tuple(
        b
        for b in range(1, arr.n + 1)
        if b in subset or codim(arr, subset + (b,)) == base
    )


class Flat(Value):
    elements: tuple[int, ...]
    rank: int


class IntersectionLattice(Value):
    """Flats grouped by rank, bottom first; a geometric lattice."""

    flats_by_rank: tuple[tuple[Flat, ...], ...]

    @property
    def top_rank(self) -> int:
        return len(self.flats_by_rank) - 1

    def all_flats(self) -> list[Flat]:
        return [f for group in self.flats_by_rank for f in group]

    def upper_covers(self, flat: Flat) -> tuple[Flat, ...]:
        if flat.rank == self.top_rank:
            return ()
        return tuple(
            g
            for g in self.flats_by_rank[flat.rank + 1]
            if set(flat.elements) < set(g.elements)
        )


def flats(arr: Arrangement) -> IntersectionLattice:
    """Breadth-first closure enumeration of the intersection lattice."""
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
    groups: list[list[Flat]] = [[] for _ in range(top + 1)]
    for elements, r in ranks.items():
        groups[r].append(Flat(elements, r))
    for g in groups:
        g.sort(key=lambda f: f.elements)
    return IntersectionLattice(tuple(tuple(g) for g in groups))


def circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Minimal dependent subsets, in lexicographic order.

    They are computed once per arrangement; each call returns a new list.
    """
    return list(arr._circuits)


def _scan_circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Scan the subsets by size for minimal dependent ones; see `circuits`."""
    found: list[tuple[int, ...]] = []
    for size in range(2, arr.n + 1):
        for comb in itertools.combinations(range(1, arr.n + 1), size):
            s = set(comb)
            if any(set(c) <= s for c in found):
                continue
            if matroid_rank(arr, comb) < size:
                found.append(comb)
    return sorted(found)


class NbcComplex(Value):
    """Subsets containing no broken circuit, grouped by cardinality."""

    sets_by_size: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.sets_by_size)

    def all_sets(self) -> list[tuple[int, ...]]:
        return [s for group in self.sets_by_size for s in group]


def nbc_sets(arr: Arrangement, order: Sequence[int] | None = None) -> NbcComplex:
    """NBC complex for a linear order on the ground set (default 1 < ... < n).

    `order` lists the elements from smallest to largest. A broken circuit is
    a circuit minus its smallest element; NBC sets contain none of them.
    """
    n = arr.n
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    pos = {e: i for i, e in enumerate(order)}
    broken = [frozenset(c) - {min(c, key=pos.__getitem__)} for c in circuits(arr)]
    groups: list[list[tuple[int, ...]]] = []
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


def betti_vector(arr: Arrangement) -> tuple[int, ...]:
    """NBC set counts by cardinality; entry p is the rank of degree-p cohomology."""
    return nbc_sets(arr).counts


def whitney_numbers(arr: Arrangement) -> tuple[int, ...]:
    """Unsigned Whitney numbers: rank-level sums of |mu| over the lattice."""
    lattice = flats(arr)
    mu: dict[tuple[int, ...], int] = {}
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


def whitney_check(arr: Arrangement) -> bool:
    """Independent count check: |Whitney numbers| must equal the NBC counts."""
    return whitney_numbers(arr) == betti_vector(arr)


def same_labeled_matroid(
    a1: Arrangement, a2: Arrangement, *, up_to_relabeling: bool = False
) -> bool:
    """Equality of circuit systems under identity labeling.

    With `up_to_relabeling`, searches all ground set permutations (n <= 8).
    """
    if a1.n != a2.n:
        raise SizeMismatch(f"{a1.n} vs {a2.n} subspaces")
    c1 = {frozenset(c) for c in circuits(a1)}
    c2 = {frozenset(c) for c in circuits(a2)}
    if not up_to_relabeling:
        return c1 == c2
    if a1.n > 8:
        raise ValueError("permutation search is limited to n <= 8")
    for perm in itertools.permutations(range(1, a1.n + 1)):
        image = {frozenset(perm[e - 1] for e in c) for c in c1}
        if image == c2:
            return True
    return False
