"""Generators for the diagram families used throughout the package.

Every diagram is built once as a planar port graph in PD's slot
convention: a crossing has ports 0..3 counterclockwise, 1 and 3 on its
overpass.  Each builder returns the signed Gauss code that
``bracket._trace_code`` reads off the curve trace from port (0, 1), as
``pd_to_gauss`` reads PD input.  That port, on an overpass, is the
diagram's one anchor: ``generate`` writes the code from it in every notation.
In a rational tangle the ports are NW, SW, SE, NE.  Twist regions are
grown one crossing at a time: a right twist hooks a new crossing onto
the NE/SE corners of the tangle, a bottom twist onto SW/SE, and the
closure joins NW to NE and SW to SE.

The two-parameter family ``rational_pq(p, q)``: p bottom twists applied
to the vertical (infinity) tangle followed by q right twists realize the
continued fraction q + 1/p, so the closure is the two-bridge diagram of
the fraction (pq+1)/p.  In particular (2, n) is the standard (n+2)-crossing
twist knot diagram: a clasp of two crossings plus n half-twists.

``ozawa_twist(n)`` is a different diagram of the same twist knot, drawn
so that one crossing change makes it monotone no matter which
orientation is chosen: the half-twist region is laid out as a nested
spiral that some base point descends completely, in both directions,
except at a single clasp crossing.
"""

from __future__ import annotations

from .bracket import Port, _trace, _trace_code
from .codes import GaussCode
from .errors import InvalidParam, NotAKnot

__all__ = ["twist_minimal", "rational_pq", "ozawa_twist"]

# Where a twist hooks its new crossing on: per tangle corner, the slot
# that takes the corner's strand and the slot that becomes the corner.
# Every new crossing has the SW-NE diagonal over, which makes every
# rational diagram built here alternating.
_RIGHT = (("ne", 0, 3), ("se", 1, 2))
_BOTTOM = (("sw", 0, 1), ("se", 3, 2))


def _closed(links: dict[Port, Port], c: int) -> GaussCode:
    """Trace code of a closed port graph; NotAKnot on more than one component."""
    trace = _trace(links, (0, 1))
    if len(trace) != 2 * c:
        raise NotAKnot("closure has more than one component")
    return _trace_code(trace, c)


def _continued_fraction(entries: list[int]) -> GaussCode:
    """Trace code of the numerator closure of the tangle [a1, a2, ..., ak].

    The realized fraction is ak + 1/(a_{k-1} + 1/(... + 1/a1)).  Entries
    must all be >= 1.  Used with k = 2 by the public API; longer vectors
    serve the bundled-data generator.
    """
    if not entries or any(a < 1 for a in entries):
        raise InvalidParam("tangle entries must be integers >= 1")
    k = len(entries)
    # One symmetric map pairs the two ports of every edge, and each corner
    # with the far end of its strand: the opposite corner while the strand
    # is bare, a port once a crossing is hooked on.  The start is vertical
    # (infinity) when k is even, so that the last entry lands on right
    # twists; either way the first twist meets both bare strands.
    if k % 2:
        links: dict = {"nw": "ne", "ne": "nw", "sw": "se", "se": "sw"}
    else:
        links = {"nw": "sw", "sw": "nw", "ne": "se", "se": "ne"}
    c = 0
    for i, a in enumerate(entries):
        hooks = _BOTTOM if (k - i) % 2 == 0 else _RIGHT  # i = k - 1: rights
        for _ in range(a):
            for corner, into, out in hooks:
                end = links.pop(corner)
                links[end], links[c, into] = (c, into), end
                links[corner], links[c, out] = (c, out), corner
            c += 1
    # the closure joins NW to NE and SW to SE, leaving only ports
    for a, b in (("nw", "ne"), ("sw", "se")):
        end_a, end_b = links.pop(a), links.pop(b)
        links[end_a], links[end_b] = end_b, end_a
    return _closed(links, c)


def rational_pq(p: int, q: int) -> GaussCode:
    """The standard alternating two-bridge diagram of the fraction (pq+1)/p.

    p and q count the half-twists of the two regions; both must be >= 1.
    Raises NotAKnot when the closure has two components, which happens
    exactly when pq is odd (the fraction numerator pq+1 is even).
    """
    if p < 1 or q < 1:
        raise InvalidParam(f"twist counts must be >= 1, got ({p}, {q})")
    return _continued_fraction([p, q])


def twist_minimal(n: int) -> GaussCode:
    """Minimal (n+2)-crossing twist knot diagram: a clasp plus n twists."""
    if n < 1:
        raise InvalidParam(f"twist parameter must be >= 1, got {n}")
    return _continued_fraction([2, n])


def ozawa_twist(n: int) -> GaussCode:
    """A twist knot diagram with warping degree 1 for both orientations.

    Same knot as ``twist_minimal(n)`` but drawn with 2n+1 crossings so
    that a single crossing change makes the diagram monotone no matter
    which orientation is chosen: one arc passes over everything except
    one clasp crossing in the middle.  Walking from either end of that
    arc meets only the clasp as a first-visit underpass, in both
    directions, so d(D) = d(-D) = 1 and e(D) = 2.

    Layout: a horizontal arc passes over stations 1..2n+1 from west to
    east; the return arc comes back under it, visiting the stations in
    the nested zigzag order 1, 2n, 3, 2n-2, 5, ... (odd stations
    ascending interleaved with even stations descending) and arriving
    from the south on odd visits.  The horizontal arc yields only at the
    middle station n+1.  The trace enters station s from the west at
    visit s - 1, and the return arc's m-th visit is visit c + m - 1.
    """
    if n < 1:
        raise InvalidParam(f"twist parameter must be >= 1, got {n}")
    c = 2 * n + 1
    # each visit as (station, side it enters by, side it leaves by)
    visits = [(s, "W", "E") for s in range(1, c + 1)]
    visits += [(m, "S", "N") if m % 2 else (c + 1 - m, "N", "S")
               for m in range(1, c + 1)]
    # slots counterclockwise from N, so that W-E is the overpass; at the
    # clasp the return arc is over, so its slots turn a quarter, from W
    ports = [(s - 1, ("NWSE" if s != n + 1 else "WSEN").index(side))
             for s, enter, leave in visits for side in (enter, leave)]
    links = dict(zip(ports[1::2], ports[2::2] + ports[:1]))  # exit -> entry
    return _closed(links | {b: a for a, b in links.items()}, c)
