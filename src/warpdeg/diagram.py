"""Oriented knot diagrams and the symmetry operations used on them.

There is one diagram type, ``GaussCode``: an anchored, oriented Gauss
sequence whose position 0 is where traversal starts and whose column
order is the direction of travel.  Base points for warping computations
live on the edges of the curve; base point ``a`` sits on the edge just
before position ``a``, so there are ``2c`` of them (one for the
zero-crossing diagram).

The operations here are pure: each returns a new diagram.  Labels are kept
normalized (1..c by first appearance) so that structural equality of
values means equality of anchored diagrams.  Moves take valid diagrams to
valid ones, so they relabel or keep every label in place and never
re-validate; only codes built from outside data (Gauss, DT and PD text,
random codes) are validated.
"""

from __future__ import annotations

from .codes import GaussCode, _relabel, _rotated
from .errors import UnknownCrossing


def from_gauss(code: GaussCode) -> GaussCode:
    """Adopt a Gauss code as a diagram: the code itself, already normalized."""
    return code


def reverse(diagram: GaussCode) -> GaussCode:
    """The same diagram traversed in the opposite direction.

    The visit sequence is reversed and re-anchored at position 0; the edge
    before position 0 is the same physical edge as before, so profiles of
    ``diagram`` and ``reverse(diagram)`` line up as a -> (2c - a) mod 2c.
    """
    return GaussCode._of(_relabel(diagram.labels[::-1]), diagram.overs[::-1],
                         diagram.signs[::-1])


def mirror(diagram: GaussCode) -> GaussCode:
    """Swap over and under at every crossing and negate the signs."""
    return GaussCode._of(diagram.labels,
                         tuple([not over for over in diagram.overs]),
                         tuple([-sign for sign in diagram.signs]))


def rotate(diagram: GaussCode, k: int) -> GaussCode:
    """Move the anchor forward by ``k`` edges (any integer)."""
    n = len(diagram.labels)
    if n == 0:
        return diagram
    return _rotated(diagram, k % n)


def change_crossing(diagram: GaussCode, label: int) -> GaussCode:
    """Switch the over/under strands of one crossing.

    The strand orientations stay put while the roles swap, so the changed
    crossing's sign negates; an unsigned crossing stays unsigned.
    """
    if not 1 <= label <= diagram.crossings:
        raise UnknownCrossing(
            f"crossing {label} not in 1..{diagram.crossings}"
        )
    overs, signs = list(diagram.overs), list(diagram.signs)
    for p, at in enumerate(diagram.labels):
        if at == label:
            overs[p], signs[p] = not overs[p], -signs[p]
    return GaussCode._of(diagram.labels, tuple(overs), tuple(signs))
