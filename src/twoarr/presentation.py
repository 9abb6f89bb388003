r"""Signed presentation of the complement's integral cohomology algebra.

One degree-1 generator e_a per subspace and one relation per circuit. For
a circuit a_0 < a_1 < ... < a_k the forms of the members a_1..a_k are a
basis of the span of all the circuit's forms, so both forms of a_0 have
unique expansions

    l_{a_0}  = sum_{j>=1} alpha_j l_{a_j} + beta_j  l'_{a_j}
    l'_{a_0} = sum_{j>=1} gamma_j l_{a_j} + delta_j l'_{a_j}

which are recorded as two exact linear dependencies normalized with
alpha_0 = delta_0 = -1 and beta_0 = gamma_0 = 0. Each member contributes
the sign of its 2x2 coefficient block,

    sigma_j = sign det [[alpha_j, beta_j], [gamma_j, delta_j]],

nonzero whenever all intersections have even codimension, and the circuit's
relation is

    sum_j (-1)^j sigma_j e_{A \ a_j}

with the deleted-member monomials written in increasing index order.
Arrangements built entirely from z-linear complex equations admit a direct
route that skips the solves: there every sigma_j is +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .arrangement import Arrangement
from .exterior import ExtElement, degree_span_rank
from .linalg import Matrix, det_sign, solve_unique
from .matroid import circuits, matroid_rank, nbc_sets

MODE_REAL = "real-2-arrangement"
MODE_COMPLEX = "complex"
_MODE_ALIASES = {"real": MODE_REAL, MODE_REAL: MODE_REAL, "complex": MODE_COMPLEX}


class NotACircuit(ValueError):
    """The given subset is not a minimal dependent set of the arrangement."""


class ModeMismatch(ValueError):
    """Complex mode requested for input that is not purely z-linear."""


@dataclass(frozen=True)
class DependencyPair:
    """The two normalized linear dependencies of a circuit.

    quads[j] = (alpha_j, beta_j, gamma_j, delta_j), with quads[0] fixed to
    (-1, 0, 0, -1).
    """

    circuit: tuple[int, ...]
    quads: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]


@dataclass(frozen=True)
class CircuitRelation:
    circuit: tuple[int, ...]
    signs: tuple[int, ...]
    element: ExtElement


@dataclass(frozen=True)
class Presentation:
    n: int
    relations: tuple[CircuitRelation, ...]
    mode: str

    def elements(self) -> list[ExtElement]:
        return [r.element for r in self.relations]


def _checked_circuit(arr: Arrangement, circuit: Sequence[int]) -> tuple[int, ...]:
    c = tuple(sorted(set(circuit)))
    if len(c) != len(tuple(circuit)) or matroid_rank(arr, c) != len(c) - 1:
        raise NotACircuit(f"{tuple(circuit)} is not a circuit")
    for x in c:
        rest = tuple(e for e in c if e != x)
        if matroid_rank(arr, rest) != len(rest):
            raise NotACircuit(f"{tuple(circuit)} is not minimal")
    return c


def circuit_dependencies(arr: Arrangement, circuit: Sequence[int]) -> DependencyPair:
    """Solve the two normalized dependencies of a circuit exactly."""
    c = _checked_circuit(arr, circuit)
    a0, rest = c[0], c[1:]
    columns = []
    for a in rest:
        p = arr.pair(a)
        columns += [p.first.coeffs, p.second.coeffs]
    basis = Matrix.from_columns(columns, arr.dim)
    p0 = arr.pair(a0)
    x = solve_unique(basis, p0.first.coeffs)
    y = solve_unique(basis, p0.second.coeffs)
    quads = [(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1))]
    for j in range(len(rest)):
        quads.append((x[2 * j], x[2 * j + 1], y[2 * j], y[2 * j + 1]))
    return DependencyPair(c, tuple(quads))


def _os_element(c: tuple[int, ...], signs: Sequence[int]) -> ExtElement:
    terms = {}
    for j in range(len(c)):
        mon = c[:j] + c[j + 1 :]
        terms[mon] = (-1) ** j * signs[j]
    return ExtElement.from_terms(terms)


def circuit_relation(arr: Arrangement, circuit: Sequence[int]) -> CircuitRelation:
    """The signed relation a circuit imposes."""
    dep = circuit_dependencies(arr, circuit)
    signs = []
    for al, be, ga, de in dep.quads:
        s = det_sign(Matrix.from_rows([[al, be], [ga, de]]))
        if s == 0:
            raise ValueError(
                f"degenerate coefficient block in circuit {dep.circuit}; "
                "arrangement violates the even-rank condition"
            )
        signs.append(s)
    return CircuitRelation(dep.circuit, tuple(signs), _os_element(dep.circuit, signs))


def full_presentation(arr: Arrangement, mode: str = MODE_REAL) -> Presentation:
    """One relation per circuit.

    Real mode runs the dependency solves; complex mode requires purely
    z-linear input and emits the alternating-sign relations directly.
    """
    if mode not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    cs = circuits(arr)
    if mode == MODE_COMPLEX:
        if not arr.is_holomorphic_input:
            raise ModeMismatch("complex mode needs all subspaces given by z-linear equations")
        relations = tuple(
            CircuitRelation(c, (1,) * len(c), _os_element(c, (1,) * len(c))) for c in cs
        )
    else:
        relations = tuple(circuit_relation(arr, c) for c in cs)
    return Presentation(arr.n, relations, mode)


def normalize_signs(pres: Presentation) -> Presentation:
    """Rescale each relation so its lexicographically first monomial has coefficient +1.

    Relations are only defined up to overall sign; this trades the
    sigma_0 = +1 convention for reproducible leading signs.
    """
    out = []
    for rel in pres.relations:
        lead = min(rel.element.terms, key=lambda t: t[0])[1] if rel.element.terms else 1
        if lead < 0:
            rel = CircuitRelation(
                rel.circuit, tuple(-s for s in rel.signs), -rel.element
            )
        out.append(rel)
    return Presentation(pres.n, tuple(out), pres.mode)


def ideal_rank(pres: Presentation, degree: int) -> int:
    """Rank over the rationals of the degree slice of the relation ideal."""
    return degree_span_rank(pres.elements(), degree, pres.n)[0]


def ideal_rank_profile(pres: Presentation) -> tuple[int, ...]:
    """Ideal ranks for degrees 1..n."""
    return tuple(ideal_rank(pres, p) for p in range(1, pres.n + 1))


def nbc_basis_check(arr: Arrangement) -> bool:
    """Check rank I^p + #NBC_p = C(n, p) in every degree."""
    pres = full_presentation(arr)
    counts = nbc_sets(arr).counts
    for p in range(arr.n + 1):
        nbc_p = counts[p] if p < len(counts) else 0
        if ideal_rank(pres, p) + nbc_p != comb(arr.n, p):
            return False
    return True
