"""The names ``warpdeg`` exports: a removal or an addition is deliberate.

The package loads its submodules lazily, so the names are read from
``__all__`` and ``dir()``; each one must still resolve to the object its
home module defines.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import warpdeg

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = {
    "BracketPolynomial", "BudgetExceeded", "CapExceeded", "CheckRow",
    "CodeSyntaxError", "DTCode", "DataError", "ExpectedValues", "GaussCode",
    "InternalInconsistency", "InvalidParam", "KnotEntry", "KnotTable", "NotAKnot", "NotClassical",
    "OracleResult", "PDCode", "StructureError", "UnknownCrossing",
    "UnknownSigns", "VerificationReport", "WarpingError", "WarpingSummary",
    "canonical", "change_crossing", "detect_notation", "determinant",
    "dt_to_gauss", "e_hat_bounds", "from_gauss", "gauss_to_dt", "gauss_to_pd",
    "is_classical",
    "is_monotone", "kauffman_bracket", "knot_e", "knot_md", "load_table",
    "min_changes_to_monotone", "mirror", "ozawa_twist", "parse_dt",
    "parse_gauss", "parse_pd", "pd_to_gauss", "profile", "profile_bruteforce",
    "random_codes", "rational_pq", "reverse", "rotate", "serialize", "summary",
    "twist_minimal", "verify_paper", "warping_degree", "warping_polynomial",
}


def test_the_package_exports_exactly_the_pinned_names():
    assert len(warpdeg.__all__) == len(PUBLIC_NAMES)
    assert set(warpdeg.__all__) == PUBLIC_NAMES
    for name in sorted(PUBLIC_NAMES):
        value = getattr(warpdeg, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_the_package_holds_the_only_list_of_public_names():
    # a second list in a module would drift from the package's; a module's
    # other names are internal
    assigned = []
    for path in sorted((SRC / "warpdeg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned += [path.name for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id == "__all__"
                     and isinstance(node.ctx, ast.Store)]
    assert assigned == ["__init__.py"]


def test_dir_lists_every_pinned_name_and_no_other():
    listed = {
        name for name in dir(warpdeg)
        if not name.startswith("_")
        and not isinstance(getattr(warpdeg, name), ModuleType)
    }
    assert listed == PUBLIC_NAMES


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        warpdeg.no_such_name
    assert not hasattr(warpdeg, "cli_main")
    with pytest.raises(ImportError):
        from warpdeg import no_such_name


def test_a_bare_import_loads_no_submodule():
    # -S: no site .pth file can import anything on the package's behalf
    script = ("import sys, warpdeg; "
              "print(sorted(m for m in sys.modules if m.startswith('warpdeg.')))\n"
              "from warpdeg import parse_gauss, summary\n"
              "summary(parse_gauss('O1+U2+O3+U1+O2+U3+'))\n"
              "print('pathlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          check=True)
    # the parser and the engine run without pathlib
    assert proc.stdout.split() == ["[]", "False"]
