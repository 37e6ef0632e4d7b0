"""Warping invariants of knot diagrams.

The warping degree d(D) of an oriented knot diagram measures how far the
diagram is from being monotone (descending): it is the smallest, over all
base points, number of crossings met first at an underpass.  This package
computes d(D), the warping sum e(D) = d(D) + d(-D), the span spn(D), and
knot-level quantities derived from them over a bundled table of small
knots, from any of the three common diagram notations.
"""

from __future__ import annotations

from .bracket import BracketPolynomial, determinant, kauffman_bracket
from .codes import (
    DTCode,
    GaussCode,
    GaussToken,
    PDCode,
    canonical,
    detect_notation,
    dt_to_gauss,
    gauss_to_dt,
    parse_dt,
    parse_gauss,
    parse_pd,
    pd_to_gauss,
    serialize,
)
from .diagram import (
    change_crossing,
    from_gauss,
    mirror,
    reverse,
    rotate,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    CodeSyntaxError,
    DataError,
    InternalInconsistency,
    InvalidParam,
    NotAKnot,
    NotClassical,
    StructureError,
    UnknownCrossing,
    UnknownSigns,
    WarpingError,
)
from .families import ozawa_twist, rational_pq, twist_minimal
from .oracle import (
    OracleResult,
    min_changes_to_monotone,
    profile_bruteforce,
    random_codes,
)
from .table import (
    KnotEntry,
    KnotTable,
    VerificationReport,
    e_hat_bounds,
    knot_e,
    knot_md,
    load_table,
    verify_paper,
)
from .warping import (
    WarpingSummary,
    is_monotone,
    profile,
    summary,
    warping_degree,
    warping_polynomial,
)

__version__ = "0.1.0"
