"""Warping invariants of knot diagrams.

The warping degree d(D) of an oriented knot diagram measures how far the
diagram is from being monotone (descending): it is the smallest, over all
base points, number of crossings met first at an underpass.  This package
computes d(D), the warping sum e(D) = d(D) + d(-D), the span spn(D), and
knot-level quantities derived from them over a bundled table of small
knots, from any of the three common diagram notations.

Importing the package loads none of its submodules.  Each exported name
is looked up in its home module on first use (PEP 562), so a program
that needs only the parser and the warping engine never loads the knot
table, the bracket or the oracle.  ``from warpdeg import summary`` and
``warpdeg.summary`` work as before.
"""

import importlib

# home module -> the names exported from it
_EXPORTS = {
    "bracket": ("BracketPolynomial", "determinant", "kauffman_bracket"),
    "codes": (
        "DTCode", "GaussCode", "GaussToken", "PDCode", "canonical",
        "detect_notation", "dt_to_gauss", "gauss_to_dt", "parse_dt",
        "parse_gauss", "parse_pd", "pd_to_gauss", "serialize",
    ),
    "diagram": ("change_crossing", "from_gauss", "mirror", "reverse", "rotate"),
    "errors": (
        "BudgetExceeded", "CapExceeded", "CodeSyntaxError", "DataError",
        "InternalInconsistency", "InvalidParam", "NotAKnot", "NotClassical",
        "StructureError", "UnknownCrossing", "UnknownSigns", "WarpingError",
    ),
    "families": ("ozawa_twist", "rational_pq", "twist_minimal"),
    "oracle": (
        "OracleResult", "min_changes_to_monotone", "profile_bruteforce",
        "random_codes",
    ),
    "table": (
        "KnotEntry", "KnotTable", "VerificationReport", "e_hat_bounds",
        "knot_e", "knot_md", "load_table", "verify_paper",
    ),
    "warping": (
        "WarpingSummary", "is_monotone", "profile", "summary",
        "warping_degree", "warping_polynomial",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
