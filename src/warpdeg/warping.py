"""Warping degree, warping sum and span of an oriented diagram.

For a base point ``a`` (the edge before position ``a``), the warping
degree ``d_a(D)`` counts the crossings whose first visit on the walk from
``a`` is an underpass.  Moving the base point forward past one visit
changes the count by exactly 1: the visit walked past was first before
the move and its partner is first after it, so an underpass drops the
count and an overpass raises it.  The profile, a plain tuple of these
degrees in edge order, is therefore computed in O(c) time: one direct
count at base 0, then 2c-1 increments.

Derived quantities, all orientation-sensitive unless stated otherwise:

* ``d(D)``            -- min over the profile.
* ``e(D)``            -- warping sum ``d(D) + d(-D)``.
* ``spn(D)``          -- span, max minus min of the profile.
* ``W_D``             -- warping polynomial: coefficient ``k`` counts the
                         base points of degree ``k``.

Since a visit's partner has the opposite strand role, walking the whole
circle balances out: ``d_a(D) + d_a(-D) = c`` at every shared base point,
which gives the identities ``e(D) = c - spn(D)`` and
``d(-D) = c - max(profile)``.  ``summary`` builds the forward profile
once and takes the minimum, the maximum and the polynomial from it.  It
still recomputes the reverse degree by an independent traversal and
checks both identities, raising InternalInconsistency if the engine ever
disagrees with itself.
"""

from __future__ import annotations

from .codes import GaussCode, _Value
from .diagram import reverse
from .errors import InternalInconsistency

__all__ = [
    "WarpingSummary",
    "profile",
    "warping_degree",
    "is_monotone",
    "warping_polynomial",
    "summary",
]


class WarpingSummary(_Value):
    """All warping quantities of one diagram, cross-checked.

    ``polynomial`` holds coefficient k = #{a : d_a = k}; ``profile`` is
    the forward profile.
    """

    __slots__ = ("crossings", "d_forward", "d_reverse", "warping_sum", "span",
                 "polynomial", "profile")

    def __init__(self, crossings: int, d_forward: int, d_reverse: int,
                 warping_sum: int, span: int, polynomial: tuple[int, ...],
                 profile: tuple[int, ...]) -> None:
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "d_forward", d_forward)
        object.__setattr__(self, "d_reverse", d_reverse)
        object.__setattr__(self, "warping_sum", warping_sum)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "profile", profile)


def profile(diagram: GaussCode) -> tuple[int, ...]:
    """Warping degrees at all 2c base points (``(0,)`` when c = 0)."""
    occ = diagram.tokens
    n = len(occ)
    if n == 0:
        return (0,)
    seen: set[int] = set()
    d0 = 0
    for tok in occ:
        if tok.label not in seen:
            seen.add(tok.label)
            if not tok.over:
                d0 += 1
    degrees = [d0]
    for a in range(n - 1):
        step = -1 if not occ[a].over else 1
        degrees.append(degrees[-1] + step)
    return tuple(degrees)


def warping_degree(diagram: GaussCode) -> int:
    """d(D): the smallest warping degree over all base points."""
    return min(profile(diagram))


def is_monotone(diagram: GaussCode) -> bool:
    """True when some base point sees every crossing as an overpass first."""
    return warping_degree(diagram) == 0


def _polynomial(degrees: tuple[int, ...], crossings: int) -> tuple[int, ...]:
    coeffs = [0] * (crossings + 1)
    for d in degrees:
        coeffs[d] += 1
    return tuple(coeffs)


def warping_polynomial(diagram: GaussCode) -> tuple[int, ...]:
    """Dense coefficients of the warping polynomial, degree 0..c."""
    return _polynomial(profile(diagram), diagram.crossings)


def summary(diagram: GaussCode) -> WarpingSummary:
    """Compute d(D), d(-D), e(D), spn(D) and the warping polynomial.

    The forward profile is built once and read for the minimum, the
    maximum and the polynomial.  The reverse degree comes from a fresh
    traversal of the reversed diagram, then both closed-form identities
    are verified against the forward profile.
    """
    c = diagram.crossings
    degrees = profile(diagram)
    d_fwd = min(degrees)
    top = max(degrees)
    d_rev = min(profile(reverse(diagram)))
    e = d_fwd + d_rev
    spn = top - d_fwd
    if c > 0 and d_rev != c - top:
        raise InternalInconsistency(
            f"reverse degree {d_rev} != c - max(profile) = {c - top}"
        )
    if c > 0 and spn != c - e:
        raise InternalInconsistency(f"span {spn} != c - e = {c - e}")
    return WarpingSummary(
        crossings=c,
        d_forward=d_fwd,
        d_reverse=d_rev,
        warping_sum=e,
        span=spn,
        polynomial=_polynomial(degrees, c),
        profile=degrees,
    )
