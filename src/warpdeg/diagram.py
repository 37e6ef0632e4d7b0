"""Oriented knot diagrams and the symmetry operations used on them.

An OrientedDiagram is an anchored, oriented Gauss sequence: position 0 is
where traversal starts and the tuple order is the direction of travel.
Base points for warping computations live on the edges of the curve; base
point ``a`` sits on the edge just before position ``a``, so there are
``2c`` of them (one for the zero-crossing diagram).

The operations here are pure: each returns a new diagram.  Labels are kept
normalized (1..c by first appearance) so that structural equality of
values means equality of anchored diagrams.  Moves take valid diagrams to
valid ones, so they relabel or keep every label in place and never
re-validate; only codes built from outside data (Gauss, DT and PD text,
random codes) are validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import GaussCode, GaussToken, UNSIGNED, _relabel
from .errors import UnknownCrossing

__all__ = [
    "OrientedDiagram",
    "from_gauss",
    "to_gauss",
    "reverse",
    "mirror",
    "rotate",
    "change_crossing",
]


@dataclass(frozen=True)
class OrientedDiagram:
    """Anchored oriented diagram; ``occurrences`` is the visit sequence."""

    occurrences: tuple[GaussToken, ...]

    @property
    def crossings(self) -> int:
        return len(self.occurrences) // 2

    def sign_of(self, label: int) -> int:
        for tok in self.occurrences:
            if tok.label == label:
                return tok.sign
        raise UnknownCrossing(f"no crossing labelled {label}")

    def has_all_signs(self) -> bool:
        return all(tok.sign != UNSIGNED for tok in self.occurrences)


def from_gauss(code: GaussCode) -> OrientedDiagram:
    """Adopt a Gauss code as a diagram (codes are already normalized)."""
    return OrientedDiagram(code.tokens)


def to_gauss(diagram: OrientedDiagram) -> GaussCode:
    return GaussCode(diagram.occurrences)


def reverse(diagram: OrientedDiagram) -> OrientedDiagram:
    """The same diagram traversed in the opposite direction.

    The visit sequence is reversed and re-anchored at position 0; the edge
    before position 0 is the same physical edge as before, so profiles of
    ``diagram`` and ``reverse(diagram)`` line up as a -> (2c - a) mod 2c.
    """
    return OrientedDiagram(_relabel(diagram.occurrences[::-1]))


def mirror(diagram: OrientedDiagram) -> OrientedDiagram:
    """Swap over and under at every crossing and negate the signs."""
    return OrientedDiagram(tuple(GaussToken(t.label, not t.over, -t.sign)
                                 for t in diagram.occurrences))


def rotate(diagram: OrientedDiagram, k: int) -> OrientedDiagram:
    """Move the anchor forward by ``k`` edges (any integer)."""
    n = len(diagram.occurrences)
    if n == 0:
        return diagram
    k %= n
    return OrientedDiagram(
        _relabel(diagram.occurrences[k:] + diagram.occurrences[:k])
    )


def change_crossing(diagram: OrientedDiagram, label: int) -> OrientedDiagram:
    """Switch the over/under strands of one crossing.

    The strand orientations stay put while the roles swap, so the changed
    crossing's sign negates; an unsigned crossing stays unsigned.
    """
    if not 1 <= label <= diagram.crossings:
        raise UnknownCrossing(
            f"crossing {label} not in 1..{diagram.crossings}"
        )
    return OrientedDiagram(tuple(
        GaussToken(t.label, not t.over, -t.sign) if t.label == label else t
        for t in diagram.occurrences
    ))
