"""Kauffman bracket state sum over a signed Gauss sequence.

The bracket needs no planar embedding beyond what a signed Gauss code
carries.  Cut the curve at every visit: 2c arcs remain.  A smoothing of a
crossing reconnects the four arc ends that meet there in one of two ways:

* oriented: each incoming arc continues into the outgoing arc of the
  other strand (the Seifert smoothing);
* disoriented: the two incoming ends join each other, as do the two
  outgoing ends.

Which of the two is the A-smoothing is decided by the crossing sign:
rotating the overpass counterclockwise onto the underpass sweeps the
A-regions, and chasing that rule through both chiralities shows the
A-smoothing is the oriented one exactly at positive crossings.  Summing
``A^(#A - #B) * delta^(loops - 1)`` over all ``2^c`` states with
``delta = -A^2 - A^(-2)`` gives the bracket, and multiplying by
``(-A^3)^(-writhe)`` makes it invariant under all Reidemeister moves.

Exponential in c, guarded by a hard cap.  Requires every crossing sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import OrientedDiagram
from .errors import CapExceeded, NotClassical, UnknownSigns

__all__ = ["BRACKET_CAP", "BracketPolynomial", "kauffman_bracket", "determinant"]

BRACKET_CAP = 14

Laurent = dict[int, int]  # exponent of A -> integer coefficient


def _laurent_add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, k in q.items():
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k != 0}


def _laurent_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, k1 in p.items():
        for e2, k2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + k1 * k2
    return {e: k for e, k in out.items() if k != 0}


@dataclass(frozen=True)
class BracketPolynomial:
    """Writhe-normalized bracket, as sorted (exponent, coefficient) pairs."""

    coefficients: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, coeffs: Laurent) -> "BracketPolynomial":
        return cls(tuple(sorted((e, k) for e, k in coeffs.items() if k != 0)))

    def as_dict(self) -> Laurent:
        return dict(self.coefficients)

    def __mul__(self, other: "BracketPolynomial") -> "BracketPolynomial":
        return BracketPolynomial.from_dict(
            _laurent_mul(self.as_dict(), other.as_dict())
        )

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for e, k in self.coefficients:
            term = f"A^{e}" if e != 0 else "1"
            if k == 1 and e != 0:
                parts.append(term)
            elif k == -1 and e != 0:
                parts.append(f"-{term}")
            elif e == 0:
                parts.append(str(k))
            else:
                parts.append(f"{k}*{term}")
        return " + ".join(parts).replace("+ -", "- ")


class _ArcUnion:
    """Union-find over the 2c arcs; loops = components after pairing ends."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def kauffman_bracket(
    diagram: OrientedDiagram, cap: int = BRACKET_CAP
) -> BracketPolynomial:
    """The writhe-normalized Kauffman bracket of a fully signed diagram."""
    c = diagram.crossings
    if c > cap:
        raise CapExceeded(f"bracket is exponential; {c} crossings > cap {cap}")
    if c == 0:
        return BracketPolynomial.from_dict({0: 1})
    if not diagram.has_all_signs():
        raise UnknownSigns("the bracket needs a sign at every crossing")

    occ = diagram.occurrences
    n = 2 * c
    positions: dict[int, list[int]] = {}
    for pos, tok in enumerate(occ):
        positions.setdefault(tok.label, []).append(pos)
    crossings = [tuple(positions[label]) for label in range(1, c + 1)]
    signs = [diagram.sign_of(label) for label in range(1, c + 1)]
    writhe = sum(signs)

    # delta^k, precomputed once
    delta: Laurent = {2: -1, -2: -1}
    delta_pow: list[Laurent] = [{0: 1}]
    for _ in range(c):
        delta_pow.append(_laurent_mul(delta_pow[-1], delta))

    total: Laurent = {}
    for state in range(1 << c):
        arcs = _ArcUnion(n)
        exponent = 0
        for idx, (p, q) in enumerate(crossings):
            pick_a = not (state >> idx) & 1
            exponent += 1 if pick_a else -1
            # oriented smoothing for A at positive crossings, B at negative
            oriented = pick_a == (signs[idx] > 0)
            if oriented:
                arcs.union((p - 1) % n, q)
                arcs.union((q - 1) % n, p)
            else:
                arcs.union((p - 1) % n, (q - 1) % n)
                arcs.union(p, q)
        loops = len({arcs.find(i) for i in range(n)})
        total = _laurent_add(
            total,
            {e + exponent: k for e, k in delta_pow[loops - 1].items()},
        )

    norm = {-3 * writhe: 1 if writhe % 2 == 0 else -1}
    return BracketPolynomial.from_dict(_laurent_mul(total, norm))


def determinant(diagram: OrientedDiagram, cap: int = BRACKET_CAP) -> int:
    """|V(-1)|, the knot determinant, from the normalized bracket.

    Evaluates the bracket at a primitive 8th root of unity exactly, in
    Z[x]/(x^4 + 1).  The result of a classical knot diagram is an
    integer; anything else raises NotClassical.
    """
    poly = kauffman_bracket(diagram, cap=cap)
    vec = [0, 0, 0, 0]
    for e, k in poly.coefficients:
        r = e % 8
        if r < 4:
            vec[r] += k
        else:
            vec[r - 4] -= k
    if vec[1] or vec[2] or vec[3]:
        raise NotClassical("not a classical knot diagram: its bracket at "
                           f"the 8th root of unity is not an integer: {vec}")
    return abs(vec[0])
