"""Warping degree, warping sum and span of an oriented diagram.

For a base point ``a`` (the edge before position ``a``), the warping
degree ``d_a(D)`` counts the crossings whose first visit on the walk from
``a`` is an underpass.  Moving the base point forward past one visit
changes the count by exactly 1: the visit walked past was first before
the move and its partner is first after it, so an underpass drops the
count and an overpass raises it.  The profile, a plain tuple of these
degrees in edge order, is therefore computed in O(c) time: one direct
count at base 0, then 2c-1 increments.  The direct count relies on the
normalization that every ``GaussCode`` carries: labels are 1..c in order
of first appearance, so a crossing's first visit is the one whose label
is one more than the largest label seen before it.

Derived quantities, all orientation-sensitive unless stated otherwise:

* ``d(D)``            -- min over the profile.
* ``e(D)``            -- warping sum ``d(D) + d(-D)``.
* ``spn(D)``          -- span, max minus min of the profile.
* ``W_D``             -- warping polynomial: coefficient ``k`` counts the
                         base points of degree ``k``.

Since a visit's partner has the opposite strand role, walking the whole
circle balances out: ``d_a(D) + d_a(-D) = c`` at every shared base point,
which gives the identities ``e(D) = c - spn(D)`` and
``d(-D) = c - max(profile)``.  ``summary`` still recomputes the reverse
degree by an independent traversal of the reversed diagram, but streams
it: the degrees of ``-D`` are walked for their minimum and never stored.
Only then does it build the forward profile, once, and take the minimum,
the maximum and the polynomial from it, so at most one profile is held
at a time.  ``d(-D) = c - max(profile)`` is checked, raising
InternalInconsistency if the engine ever disagrees with itself; the span
identity holds exactly when that one does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, islice

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


def _degrees(diagram: GaussCode) -> Iterator[int]:
    """The warping degrees at the 2c base points, in edge order, lazily."""
    overs = diagram.overs
    if not overs:
        return iter((0,))
    # labels are 1..c in order of first appearance, so the first visit to
    # a crossing is the one that carries the next fresh label
    fresh = 1
    d0 = 0
    for label, over in zip(diagram.labels, overs):
        if label == fresh:
            fresh += 1
            if not over:
                d0 += 1
    # walking past an overpass raises the degree by 1, an underpass lowers
    # it; islice rather than overs[:-1], which would copy the column
    steps = map((-1, 1).__getitem__, islice(overs, len(overs) - 1))
    return accumulate(steps, initial=d0)


def profile(diagram: GaussCode) -> tuple[int, ...]:
    """Warping degrees at all 2c base points (``(0,)`` when c = 0)."""
    # tuple() of a list, as in codes._build_gauss: grown from the
    # iterator, the tuple raised batch peak RSS by 1.5 MB on short codes
    return tuple(list(_degrees(diagram)))


def warping_degree(diagram: GaussCode) -> int:
    """d(D): the smallest warping degree over all base points."""
    return min(_degrees(diagram))


def is_monotone(diagram: GaussCode) -> bool:
    """True when some base point sees every crossing as an overpass first."""
    return warping_degree(diagram) == 0


def _polynomial(degrees: Iterable[int], crossings: int) -> tuple[int, ...]:
    coeffs = [0] * (crossings + 1)
    for d in degrees:
        coeffs[d] += 1
    return tuple(coeffs)


def warping_polynomial(diagram: GaussCode) -> tuple[int, ...]:
    """Dense coefficients of the warping polynomial, degree 0..c."""
    return _polynomial(_degrees(diagram), diagram.crossings)


def summary(diagram: GaussCode) -> WarpingSummary:
    """Compute d(D), d(-D), e(D), spn(D) and the warping polynomial.

    The reverse degree comes first, from a fresh traversal of the reversed
    diagram whose degrees are streamed for their minimum and never stored.
    The reversed diagram is then dropped, and the forward profile is built
    once and read for the minimum, the maximum and the polynomial, so only
    one profile is held at a time.  The reverse degree is verified
    against the forward profile's maximum.
    """
    c = diagram.crossings
    d_rev = min(_degrees(reverse(diagram)))
    degrees = profile(diagram)
    d_fwd = min(degrees)
    top = max(degrees)
    e = d_fwd + d_rev
    spn = top - d_fwd
    if c > 0 and d_rev != c - top:
        raise InternalInconsistency(
            f"reverse degree {d_rev} != c - max(profile) = {c - top}"
        )
    return WarpingSummary(c, d_fwd, d_rev, e, spn, _polynomial(degrees, c), degrees)
