"""Combinatorics of an arrangement: rank function, flats, circuits, NBC sets.

The ground set is 1..n by subspace position. The matroid rank of a subset
is half the real codimension of its intersection; operations here assume
the arrangement has already passed validation.

Everything but `matroid_rank` reads the arrangement's cached closed sets
(`Arrangement._closed_sets`: one breadth-first walk, keyed by bitmask) and
circuits. A subset's rank is that of the least closed set containing it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ._value import Value
from .arrangement import Arrangement, _mask, _members, codim


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
    """The least closed set containing the subset: all elements in the span of its forms."""
    mask = _mask(arr, subset)
    return _members(min((c, g) for g, c in arr._closed_sets.items() if g & mask == mask)[1])


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
    """The intersection lattice: the arrangement's closed sets grouped by rank.

    Raises `NotAdmissible` on the first closed set, in breadth-first order,
    of odd codimension.
    """
    closed = arr._closed_sets
    groups: list[list[Flat]] = [[] for _ in range(max(closed.values()) // 2 + 1)]
    for mask, c in closed.items():
        if c % 2:
            raise NotAdmissible(f"subset {set(_members(mask))} has odd codimension {c}")
        groups[c // 2].append(Flat(_members(mask), c // 2))
    for g in groups:
        g.sort(key=lambda f: f.elements)
    return IntersectionLattice(tuple(tuple(g) for g in groups))


def circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Minimal dependent subsets, in lexicographic order.

    They are computed once per arrangement; each call returns a new list.
    """
    return list(arr._circuits)


def _scan_circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Scan the subsets by size for minimal dependent ones; see `circuits`.

    No circuit has more than r + 1 elements, r the rank of the whole set,
    so larger subsets are not scanned (Oxley, Matroid Theory, ch. 1).
    """
    by_codim = sorted((c, g) for g, c in arr._closed_sets.items())
    found: list[int] = []
    for size in range(2, min(arr.n, by_codim[-1][0] // 2 + 1) + 1):
        for comb in itertools.combinations(range(1, arr.n + 1), size):
            mask = _mask(arr, comb)
            if any(m & mask == m for m in found):
                continue
            c = next(c for c, g in by_codim if g & mask == mask)
            if c % 2:
                raise NotAdmissible(f"subset {set(comb)} has odd codimension {c}")
            if c // 2 < size:
                found.append(mask)
    return sorted(map(_members, found))


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
    broken = {_mask(arr, set(c) - {min(c, key=pos.__getitem__)}) for c in circuits(arr)}
    groups: list[list[tuple[int, ...]]] = []
    for size in range(n + 1):
        level = []
        for comb in itertools.combinations(range(1, n + 1), size):
            mask = _mask(arr, comb)
            if not any(b & mask == b for b in broken):
                level.append(comb)
        if not level:
            break
        groups.append(level)
    return NbcComplex(tuple(tuple(g) for g in groups))


def betti_vector(arr: Arrangement) -> tuple[int, ...]:
    """NBC set counts by cardinality; entry p is the rank of degree-p cohomology."""
    return nbc_sets(arr).counts


def whitney_numbers(arr: Arrangement) -> tuple[int, ...]:
    """Unsigned Whitney numbers: rank-level sums of |mu| over the lattice."""
    mu: dict[int, int] = {}
    out = []
    for group in flats(arr).flats_by_rank:
        out.append(0)
        for f in group:
            mask = _mask(arr, f.elements)
            mu[mask] = -sum(v for g, v in mu.items() if g & mask == g) if mu else 1
            out[-1] += abs(mu[mask])
    return tuple(out)


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
