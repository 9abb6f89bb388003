"""Exact invariants of codimension-2 subspace arrangements.

Given defining linear forms (real pairs or complex equations), computes
the intersection lattice, the signed presentation of the complement's
integral cohomology algebra, the kappa pairing whose rank separates
algebras over a shared lattice, and the linking signs of the associated
great-circle links.
"""

from .arrangement import (
    Arrangement,
    ComplexFormSpec,
    DegenerateRestriction,
    LinearForm,
    ParseError,
    SubspacePair,
    UnknownLabel,
    ValidationError,
    ValidationReport,
    ZeroForm,
    arrangement_from_document,
    arrangement_to_document,
    codim,
    from_complex_form,
    parse_arrangement,
    restrict,
    serialize_arrangement,
    validate,
)
from .exterior import ExtElement, degree_span_rank, monomials, normalize
from .invariants import (
    ComparisonReport,
    DimensionNot4,
    KappaForm,
    compare,
    kappa,
    kappa_rank,
    pairwise_linking,
    triple_coefficients,
)
from .linalg import (
    Matrix,
    NoSolution,
    NotSquare,
    NotUnique,
    det_sign,
    kernel_basis,
    rank,
    rref,
    solve_unique,
)
from .matroid import (
    IntersectionLattice,
    NbcComplex,
    NotAdmissible,
    SizeMismatch,
    betti_vector,
    circuits,
    closure,
    flats,
    matroid_rank,
    nbc_sets,
    same_labeled_matroid,
    whitney_check,
    whitney_numbers,
)
from .presentation import (
    CircuitRelation,
    DependencyPair,
    ModeMismatch,
    NotACircuit,
    Presentation,
    circuit_dependencies,
    circuit_relation,
    full_presentation,
    ideal_rank,
    ideal_rank_profile,
    nbc_basis_check,
    normalize_signs,
)

__version__ = "0.1.0"
