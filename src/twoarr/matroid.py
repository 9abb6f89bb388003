"""Combinatorics of an arrangement: rank function, flats, circuits, NBC sets.

The ground set is 1..n by subspace position. The matroid rank of a subset
is half the real codimension of its intersection, `codim(arr, s) // 2`.
Nothing here needs a validated arrangement: an odd codimension raises
`NotAdmissible` at the lattice readers' one gate, `_admissible_walk`.

Every rank question is a fold of cover lookups in the arrangement's one
walk (`arrangement._closure`); the flats are the walk's closed sets, and
the circuits and NBC sets are searches over closures. The circuit search
sits in `arrangement` beside the `_circuits` cache it fills, so the
presentation reads circuits without loading this module. A caller's
subset has its indices checked (`arrangement._mask`); subsets built here
are bitmasks from the start.
"""

import itertools
from collections.abc import Iterable, Sequence

from ._value import Value
from .arrangement import Arrangement, NotAdmissible, _admissible_walk, _closure, _mask, _members


class SizeMismatch(ValueError):
    """Two arrangements with different ground set sizes were compared."""


def closure(arr: Arrangement, subset: Iterable[int]) -> tuple[int, ...]:
    """The least closed set containing the subset: all elements in the span of its forms."""
    return _members(_closure(arr, _mask(arr, subset)))


class Flat(Value):
    elements: tuple[int, ...]
    rank: int


class IntersectionLattice(Value):
    """Flats grouped by rank, bottom first; a geometric lattice."""

    flats_by_rank: tuple[tuple[Flat, ...], ...]

    def all_flats(self) -> list[Flat]:
        return [f for group in self.flats_by_rank for f in group]


def flats(arr: Arrangement) -> IntersectionLattice:
    """The intersection lattice: the arrangement's closed sets grouped by rank.

    Raises `NotAdmissible` as the gate `_admissible_walk` does, as do
    `circuits`, `nbc_sets` and `whitney_numbers`.
    """
    closed, _ = _admissible_walk(arr)
    groups: list[list[Flat]] = [[] for _ in range(max(closed.values()) // 2 + 1)]
    for mask, c in closed.items():
        groups[c // 2].append(Flat(_members(mask), c // 2))
    for g in groups:
        g.sort(key=lambda f: f.elements)
    return IntersectionLattice(tuple(tuple(g) for g in groups))


def circuits(arr: Arrangement) -> list[tuple[int, ...]]:
    """Minimal dependent subsets, in lexicographic order (`arrangement._scan_circuits`).

    They are computed once per arrangement; each call returns a new list.
    """
    return list(arr._circuits)


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
    S = {s_1 < ... < s_k} is one exactly when it is independent and each s_i
    is the least element of cl({s_i, ..., s_k}) (Björner 1992), so each
    level grows by each x < s_1 outside cl(S) that is least in cl(S + x).
    """
    n = arr.n
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    _, covers = _admissible_walk(arr)
    bits = [1 << (e - 1) for e in order]
    before = [sum(bits[:p]) for p in range(n)]  # the elements before bits[p] in the order
    level = [(0, covers[0], n)]  # (S, cl(S), position of its least element)
    groups = []
    while level:
        groups.append(tuple(sorted(_members(s) for s, _, _ in level)))
        level = [
            (s | bit, covers[closed | bit], p)
            for s, closed, end in level
            for p, bit in enumerate(bits[:end])
            if not closed & bit and not covers[closed | bit] & before[p]
        ]
    return NbcComplex(tuple(groups))


def betti_vector(arr: Arrangement) -> tuple[int, ...]:
    """NBC set counts by cardinality; entry p is the rank of degree-p cohomology."""
    return nbc_sets(arr).counts


def whitney_numbers(arr: Arrangement) -> tuple[int, ...]:
    """Unsigned Whitney numbers: rank-level sums of |mu| over the lattice.

    Weisner (Stanley, EC1 3.9): mu(F) = -sum mu(G) over closed G, a not in G
    with cl(G + a) = F, a least in F outside cl(()); rank order visits G first.
    """
    closed, covers = _admissible_walk(arr)
    below = {covers[0]: -1}  # -mu(F), summed from the G under F
    out: dict[int, int] = {}
    for mask, c in sorted(closed.items(), key=lambda item: item[1]):
        mu = -below.pop(mask)
        out[c // 2] = out.get(c // 2, 0) + abs(mu)
        for a in range(arr.n):
            if not mask >> a & 1:
                f = covers[mask | 1 << a]
                if not f & ~covers[0] & (1 << a) - 1:  # a is least in F outside cl(())
                    below[f] = below.get(f, 0) + mu
    return tuple(out.values())


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
