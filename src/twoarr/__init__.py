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

# Public name -> the submodule that defines it: the functions the README's
# Library section documents, the types they return and the exceptions they
# raise. Everything else stays in its submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "arrangement": "Arrangement DegenerateRestriction ParseError UnknownLabel ValidationError parse_arrangement",
        "invariants": """ComparisonReport DimensionNot4 KappaForm compare kappa kappa_rank
            triple_coefficients""",
        "matroid": "SizeMismatch",
        "presentation": "ModeMismatch Presentation full_presentation",
        "restriction": "restrict",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(("arrangement", "exterior", "invariants", "linalg", "matroid", "presentation", "restriction"))

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
