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

with the deleted-member monomials written in increasing index order. A
`CircuitRelation` holds the circuit and signs, and computes this on first read.
The circuit picks the route. If its members share one complex structure
(each coordinate used as z_j or as conj(z_j), not both), l_{a_0} + i l'_{a_0}
is a complex combination of the other members' l + i l', and a coefficient
lambda_j acts on (l, l') with determinant |lambda_j|^2 > 0: every sigma_j is
+1, unsolved. Other circuits are solved; the mode only checks and labels.

The solves are integer: `_solve` eliminates the circuit's rows of the
arrangement's integer forms, whose positive scales keep every sigma_j
(`_signs`). Only `circuit_dependencies` divides those scales back out
into `Fraction` quads, reading them from the one function that computes
them (`arrangement.integer_form`). The ideal's rank profile is read off
the one pass that builds its graded slices, each grown from the reduced
echelon basis of the one below (`exterior.ideal_slices`); kappa's
degree-2 basis is one of them.
"""

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

from ._value import Value
from .arrangement import Arrangement, integer_form
from .exterior import ExtElement, ideal_ranks
from .linalg import SparseRow, reduced_echelon

MODE_REAL = "real-2-arrangement"
MODE_COMPLEX = "complex"
_MODE_ALIASES = {"real": MODE_REAL, MODE_REAL: MODE_REAL, "complex": MODE_COMPLEX}


class NotACircuit(ValueError):
    """The given subset is not a minimal dependent set of the arrangement."""


class ModeMismatch(ValueError):
    """Complex mode requested for a member with no complex block, or one using some conj(z_j)."""


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

    @cached_property
    def element(self) -> ExtElement:
        """sum_j (-1)^j sigma_j e_{c minus c_j}, its terms in graded-lex order."""
        c = self.circuit
        # leaving out a later member gives a smaller monomial, so j runs downwards
        return ExtElement(tuple((c[:j] + c[j + 1 :], (-1) ** j * self.signs[j]) for j in reversed(range(len(c)))))


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
    gives the row (L_{a_1}[i], L'_{a_1}[i], ..., L'_{a_k}[i] | L_{a_0}[i],
    L'_{a_0}[i]) of the integer forms L = s l, s > 0 (`integer_form`). Its
    reduced echelon row j reads row[j] * (X_j, Y_j) = (row[2k], row[2k + 1]),
    and x_j = X_j s_j / s_{a_0}, y_j = Y_j s_j / s'_{a_0}.
    """
    c = _checked_circuit(arr, circuit)
    echelon = _solve(arr, c)
    u = len(echelon)
    pairs = [arr.subspaces[a - 1] for a in c[1:] + c[:1]]
    s = [scale for p in pairs for scale in (integer_form(p.first)[0], integer_form(p.second)[0])]
    x = [Fraction(row.get(u, 0) * s[j], row[j] * s[u]) for j, row in enumerate(echelon)]
    y = [Fraction(row.get(u + 1, 0) * s[j], row[j] * s[u + 1]) for j, row in enumerate(echelon)]
    quads = [(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1))]
    for j in range(0, u, 2):
        quads.append((x[j], x[j + 1], y[j], y[j + 1]))
    return DependencyPair(c, tuple(quads))


def _solve(arr: Arrangement, c: tuple[int, ...]) -> list[SparseRow]:
    """The reduced echelon rows of `circuit_dependencies`' system, on the integer forms.

    `c` is known to be a circuit, in increasing order.
    """
    forms = [f for a in c[1:] + c[:1] for f in arr._integer_forms[a - 1]]
    unknowns = len(forms) - 2
    echelon = reduced_echelon(dict(enumerate(row)) for row in zip(*forms))
    if [min(row) for row in echelon] != list(range(unknowns)):
        raise ValueError(f"circuit {c} has no unique dependency")
    return echelon


def _signs(c: tuple[int, ...], echelon: list[SparseRow]) -> tuple[int, ...]:
    """Each sigma_j, read from the integer echelon rows of `_solve`.

    Rows j, j + 1 have positive pivots P, P' and right-hand sides (X, Y),
    (X', Y'), so alpha delta - beta gamma, which is (X Y' - X' Y) / (P P')
    times the forms' positive scales, has the sign of X Y' - X' Y.
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


def full_presentation(arr: Arrangement, mode: str = MODE_REAL) -> Presentation:
    """One relation per circuit, its signs found by the route the circuit picks.

    A circuit whose members all have complex blocks, none using z_j where it
    or another uses conj(z_j), takes every sigma_j = +1 and is not solved.
    The mode only checks the input (`ModeMismatch`) and labels the result.
    """
    if mode not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}")
    mode = _MODE_ALIASES[mode]
    support = [s.complex_spec and s.complex_spec.support for s in arr.subspaces]
    if mode == MODE_COMPLEX and not all(m and not m[1] for m in support):
        raise ModeMismatch("complex mode needs all subspaces given by z-linear equations")
    relations = []
    for c in arr._circuits:  # found by the circuit search, so not re-checked by _checked_circuit
        ms = [support[a - 1] for a in c]
        one_structure = all(ms) and not any(z & zbar for z, _ in ms for _, zbar in ms)
        relations.append(CircuitRelation(c, (1,) * len(c) if one_structure else _signs(c, _solve(arr, c))))
    return Presentation(arr.n, tuple(relations), mode)


def normalize_signs(pres: Presentation) -> Presentation:
    """Rescale each relation so its lexicographically first monomial has coefficient +1.

    That monomial leaves out the last member a_k: for j < k, c minus a_k and
    c minus a_j first differ at position j, where the former holds a_j <
    a_{j+1}. Its coefficient is (-1)^k sigma_k. Relations are only defined up
    to overall sign; this trades sigma_0 = +1 for reproducible leading signs.
    """
    out = []
    for rel in pres.relations:
        if (-1) ** (len(rel.circuit) - 1) * rel.signs[-1] < 0:
            rel = CircuitRelation(rel.circuit, tuple(-s for s in rel.signs))
        out.append(rel)
    return Presentation(pres.n, tuple(out), pres.mode)


def ideal_rank_profile(pres: Presentation) -> tuple[int, ...]:
    """Ideal ranks for degrees 1..n."""
    return ideal_ranks(pres.elements(), pres.n)[1:]

