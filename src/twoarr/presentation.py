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
The input picks the route. On z-linear input a complex coefficient lambda
acts on the (Re, Im) pair with determinant |lambda|^2 > 0, so every
sigma_j is +1 and nothing is solved; the mode only checks the input and
labels the result.

The solves are integer: `full_presentation` reads each sigma_j from the
integer rows of `linalg.reduced_echelon`, pivots positive, and only
`circuit_dependencies` turns those rows into `Fraction` quads. The ideal's
rank profile is read off the one pass that builds its graded slices, each
grown from the echelon basis of the one below (`exterior.ideal_slices`);
kappa's degree-2 basis comes from the same pass.
"""

from fractions import Fraction
from typing import Iterable

from ._value import Value
from .arrangement import Arrangement
from .exterior import ExtElement, ideal_ranks
from .linalg import SparseRow, integer_row, reduced_echelon
from .matroid import circuits

MODE_REAL = "real-2-arrangement"
MODE_COMPLEX = "complex"
_MODE_ALIASES = {"real": MODE_REAL, MODE_REAL: MODE_REAL, "complex": MODE_COMPLEX}


class NotACircuit(ValueError):
    """The given subset is not a minimal dependent set of the arrangement."""


class ModeMismatch(ValueError):
    """Complex mode requested for input that is not purely z-linear."""


class DependencyPair(Value):
    """The two normalized linear dependencies of a circuit.

    quads[j] = (alpha_j, beta_j, gamma_j, delta_j), with quads[0] fixed to
    (-1, 0, 0, -1).
    """

    circuit: tuple[int, ...]
    quads: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]


class CircuitRelation(Value):
    circuit: tuple[int, ...]
    signs: tuple[int, ...]
    element: ExtElement


class Presentation(Value):
    n: int
    relations: tuple[CircuitRelation, ...]
    mode: str

    def elements(self) -> list[ExtElement]:
        return [r.element for r in self.relations]


def _checked_circuit(arr: Arrangement, circuit: Iterable[int]) -> tuple[int, ...]:
    """The members in increasing order, if they are one of the arrangement's circuits."""
    given = tuple(circuit)
    c = tuple(sorted(given))
    if c not in arr._circuits:
        raise NotACircuit(f"{given} is not a circuit")
    return c


def circuit_dependencies(arr: Arrangement, circuit: Iterable[int]) -> DependencyPair:
    """Solve the two normalized dependencies of a circuit exactly.

    Both right-hand sides are solved in one integer system: coordinate i
    gives the equation row (l_{a_1}[i], l'_{a_1}[i], ..., l'_{a_k}[i] |
    l_{a_0}[i], l'_{a_0}[i]), scaled to integers, which leaves the solutions
    unchanged. In its reduced echelon form the pivots are the 2k unknowns'
    columns, and row j reads row[j] * (x_j, y_j) = (row[2k], row[2k + 1]).
    """
    c = _checked_circuit(arr, circuit)
    echelon = _solve(arr, c)
    unknowns = len(echelon)
    x = [Fraction(row.get(unknowns, 0), row[j]) for j, row in enumerate(echelon)]
    y = [Fraction(row.get(unknowns + 1, 0), row[j]) for j, row in enumerate(echelon)]
    quads = [(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1))]
    for j in range(0, unknowns, 2):
        quads.append((x[j], x[j + 1], y[j], y[j + 1]))
    return DependencyPair(c, tuple(quads))


def _solve(arr: Arrangement, c: tuple[int, ...]) -> list[SparseRow]:
    """The reduced echelon rows of `circuit_dependencies`' system.

    `c` is known to be a circuit, in increasing order.
    """
    forms = []
    for a in c[1:] + c[:1]:
        p = arr.pair(a)
        forms += [p.first.coeffs, p.second.coeffs]
    unknowns = len(forms) - 2
    rows = (dict(enumerate(integer_row([f[i] for f in forms]))) for i in range(arr.dim))
    echelon = reduced_echelon(rows)
    if [min(row) for row in echelon] != list(range(unknowns)):
        raise ValueError(f"circuit {c} has no unique dependency")
    return echelon


def _signs(c: tuple[int, ...], echelon: list[SparseRow]) -> tuple[int, ...]:
    """Each sigma_j, read from the integer echelon rows of `_solve`.

    Rows j, j + 1 have positive pivots P, P' and right-hand sides (X, Y),
    (X', Y'), so alpha delta - beta gamma = (X Y' - X' Y) / (P P') has the
    sign of X Y' - X' Y.
    """
    u = len(echelon)
    signs = [1]  # (alpha_0, beta_0, gamma_0, delta_0) = (-1, 0, 0, -1)
    for j in range(0, u, 2):
        r, r2 = echelon[j], echelon[j + 1]
        det = r.get(u, 0) * r2.get(u + 1, 0) - r2.get(u, 0) * r.get(u + 1, 0)
        if det == 0:
            raise ValueError(
                f"degenerate coefficient block in circuit {c}; "
                "arrangement violates the even-rank condition"
            )
        signs.append(1 if det > 0 else -1)
    return tuple(signs)


def _relation(c: tuple[int, ...], signs: tuple[int, ...]) -> CircuitRelation:
    """The relation sum_j (-1)^j sigma_j e_{c minus c_j}, its terms in graded-lex order."""
    # leaving out a later member gives a smaller monomial, so j runs downwards
    terms = tuple((c[:j] + c[j + 1 :], (-1) ** j * signs[j]) for j in reversed(range(len(c))))
    return CircuitRelation(c, signs, ExtElement(terms))


def full_presentation(arr: Arrangement, mode: str = MODE_REAL) -> Presentation:
    """One relation per circuit, its signs found by the route the input picks.

    z-linear input takes every sigma_j = +1 and solves nothing; other input is
    solved. The mode only checks the input (`ModeMismatch`) and labels the result.
    """
    if mode not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    holomorphic = arr.is_holomorphic_input
    if mode == MODE_COMPLEX and not holomorphic:
        raise ModeMismatch("complex mode needs all subspaces given by z-linear equations")
    # circuits() found these, so they skip _checked_circuit's re-check
    relations = tuple(
        _relation(c, (1,) * len(c) if holomorphic else _signs(c, _solve(arr, c)))
        for c in circuits(arr)
    )
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


def ideal_rank_profile(pres: Presentation) -> tuple[int, ...]:
    """Ideal ranks for degrees 1..n."""
    return ideal_ranks(pres.elements(), pres.n)[1:]

