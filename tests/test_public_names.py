"""The names ``warpdeg`` exports: a removal or an addition is deliberate."""

from __future__ import annotations

import __future__
import importlib
from types import ModuleType

import warpdeg

PUBLIC_NAMES = {
    "BracketPolynomial", "BudgetExceeded", "CapExceeded", "CodeSyntaxError",
    "DTCode", "DataError", "GaussCode", "GaussToken", "InternalInconsistency",
    "InvalidParam", "KnotEntry", "KnotTable", "NotAKnot", "NotClassical",
    "OracleResult", "PDCode", "StructureError", "UnknownCrossing",
    "UnknownSigns", "VerificationReport", "WarpingError", "WarpingSummary",
    "canonical", "change_crossing", "detect_notation", "determinant",
    "dt_to_gauss", "e_hat_bounds", "from_gauss", "gauss_to_dt", "is_monotone",
    "kauffman_bracket", "knot_e", "knot_md", "load_table",
    "min_changes_to_monotone", "mirror", "ozawa_twist", "parse_dt",
    "parse_gauss", "parse_pd", "pd_to_gauss", "profile", "profile_bruteforce",
    "random_codes", "rational_pq", "reverse", "rotate", "serialize", "summary",
    "twist_minimal", "verify_paper", "warping_degree", "warping_polynomial",
}


def test_the_package_exports_exactly_the_pinned_names():
    exported = {
        name for name, value in vars(warpdeg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
        and value is not __future__.annotations
    }
    assert exported == PUBLIC_NAMES
    for name in sorted(PUBLIC_NAMES):
        value = getattr(warpdeg, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
