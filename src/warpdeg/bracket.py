"""Kauffman bracket of a signed Gauss sequence, by crossing contraction.

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
A-smoothing is the oriented one exactly at positive crossings.  The
bracket is the sum of ``A^(#A - #B) * delta^(loops - 1)`` over all
``2^c`` states with ``delta = -A^2 - A^(-2)``, and multiplying by
``(-A^3)^(-writhe)`` makes it invariant under all Reidemeister moves.

The sum is not enumerated.  Crossings are smoothed one at a time, in a
greedy order that keeps the open arc ends (the frontier) few, and states
that join the open ends alike are merged into one Laurent polynomial
(Bar-Natan, "Fast Khovanov homology computations", 2007).  The cost is
exponential in the frontier width, not in c; two-bridge and twist
diagrams have constant width.  Planarity is not assumed, so virtual codes
get the state sum's value too.  ``BRACKET_CAP`` stays the default guard:
a wide frontier still costs up to ``2^c``.  Requires every crossing sign.
"""

from __future__ import annotations

from .codes import GaussCode, _Value
from .errors import CapExceeded, NotClassical, UnknownSigns

__all__ = ["BRACKET_CAP", "BracketPolynomial", "kauffman_bracket", "determinant"]

BRACKET_CAP = 14

Laurent = dict[int, int]  # exponent of A -> integer coefficient
DELTA: Laurent = {2: -1, -2: -1}  # the value of a closed loop


def _laurent_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, k1 in p.items():
        for e2, k2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + k1 * k2
    return {e: k for e, k in out.items() if k != 0}


class BracketPolynomial(_Value):
    """Writhe-normalized bracket, as sorted (exponent, coefficient) pairs."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "coefficients", coefficients)

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


def _contraction_order(
    labels: tuple[int, ...], crossings: list[tuple[int, int]]
) -> list[int]:
    """Greedy order: next, the crossing most joined to those already done."""
    n = len(labels)
    neighbours = [[labels[(v + d) % n] - 1 for v in pq for d in (-1, 1)]
                  for pq in crossings]
    done = [False] * len(crossings)
    order = []
    for _ in crossings:
        nxt = max((i for i, d in enumerate(done) if not d),
                  key=lambda i: sum(done[j] for j in neighbours[i]))
        done[nxt] = True
        order.append(nxt)
    return order


def _join(mate: dict[int, int], a: int, b: int) -> int:
    """Join open ends a and b; 1 if that closes a loop, else 0.

    An end missing from ``mate`` is matched to its arc's other end, end ^ 1.
    """
    pa = mate.pop(a, a ^ 1)
    if pa == b:
        mate.pop(b, None)
        return 1
    pb = mate.pop(b, b ^ 1)
    mate[pa], mate[pb] = pb, pa
    return 0


def _divide_by_delta(p: Laurent) -> Laurent:
    """Exact quotient p / delta, as -A^2 * p / (1 + A^4)."""
    rest = dict(p)
    out: Laurent = {}
    for e in range(min(rest), max(rest) - 3):
        k = rest.get(e, 0)
        if k:
            out[e + 2] = -k
            rest[e + 4] = rest.get(e + 4, 0) - k
    return out


def kauffman_bracket(
    diagram: GaussCode, cap: int = BRACKET_CAP
) -> BracketPolynomial:
    """The writhe-normalized Kauffman bracket of a fully signed diagram."""
    c = diagram.crossings
    if c > cap:
        raise CapExceeded(f"bracket is exponential; {c} crossings > cap {cap}")
    if c == 0:
        return BracketPolynomial.from_dict({0: 1})
    if not diagram.has_all_signs():
        raise UnknownSigns("the bracket needs a sign at every crossing")

    labels = diagram.labels
    n = 2 * c
    positions: dict[int, list[int]] = {}
    for pos, label in enumerate(labels):
        positions.setdefault(label, []).append(pos)
    crossings = [tuple(positions[label]) for label in range(1, c + 1)]
    signs = [diagram.signs[p] for p, _ in crossings]
    writhe = sum(signs)

    # Arc i runs from visit i to visit i + 1: end 2i is its tail, 2i + 1
    # its head.  A state maps each open end to the end it is joined to.
    states: dict[tuple, Laurent] = {(): {0: 1}}
    for idx in _contraction_order(labels, crossings):
        p, q = crossings[idx]
        in_p, in_q = 2 * ((p - 1) % n) + 1, 2 * ((q - 1) % n) + 1
        oriented = ((in_p, 2 * q), (in_q, 2 * p))
        disoriented = ((in_p, in_q), (2 * p, 2 * q))
        # A (shift +1) is the oriented smoothing exactly at positive crossings
        smoothings = ((signs[idx], oriented), (-signs[idx], disoriented))
        merged: dict[tuple, Laurent] = {}
        for state, poly in states.items():
            for shift, joins in smoothings:
                mate = dict(state)
                term = {e + shift: k for e, k in poly.items()}
                for a, b in joins:
                    if _join(mate, a, b):
                        term = _laurent_mul(term, DELTA)
                acc = merged.setdefault(tuple(sorted(mate.items())), {})
                for e, k in term.items():
                    acc[e] = acc.get(e, 0) + k
        states = merged

    (total,) = states.values()  # delta * <D>: all loops counted, not loops - 1
    norm = {-3 * writhe: 1 if writhe % 2 == 0 else -1}
    return BracketPolynomial.from_dict(
        _laurent_mul(_divide_by_delta(total), norm)
    )


def determinant(diagram: GaussCode, cap: int = BRACKET_CAP) -> int:
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
