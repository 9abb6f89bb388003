"""Exact invariants of codimension-2 subspace arrangements.

Given defining linear forms (real pairs or complex equations), computes
the intersection lattice, the signed presentation of the complement's
integral cohomology algebra, the kappa pairing whose rank separates
algebras over a shared lattice, and the linking signs of the associated
great-circle links.

`import twoarr` loads no submodule. Each public name below is imported
from its submodule on first use (PEP 562), so a caller, the CLI included,
pays only for the modules it touches.
"""

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "arrangement": """Arrangement ComplexFormSpec DegenerateRestriction LinearForm
            ParseError SubspacePair UnknownLabel ValidationError ValidationReport ZeroForm
            arrangement_from_document arrangement_to_document codim from_complex_form
            parse_arrangement restrict serialize_arrangement validate""",
        "exterior": "ExtElement degree_span_rank monomials normalize",
        "invariants": """ComparisonReport DimensionNot4 KappaForm compare kappa kappa_rank
            pairwise_linking triple_coefficients""",
        "linalg": """Matrix NoSolution NotSquare NotUnique det_sign kernel_basis rank rref
            solve_unique""",
        "matroid": """IntersectionLattice NbcComplex NotAdmissible SizeMismatch betti_vector
            circuits closure flats matroid_rank nbc_sets same_labeled_matroid whitney_check
            whitney_numbers""",
        "presentation": """CircuitRelation DependencyPair ModeMismatch NotACircuit Presentation
            circuit_dependencies circuit_relation full_presentation ideal_rank
            ideal_rank_profile nbc_basis_check normalize_signs""",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(module), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
