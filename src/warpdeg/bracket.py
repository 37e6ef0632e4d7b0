"""Kauffman bracket by crossing contraction; planarity, PD codes, determinant.

The bracket needs no planar embedding beyond what a signed Gauss code
carries.  Cut the curve at every visit: 2c arcs remain.  Arc i runs from
visit i to visit i + 1; end 2i is its tail, end 2i + 1 its head, so the
ends at visit p are 2p - 1 (in) and 2p (out), modulo 4c.  ``_corners``
lists each crossing's four ends counterclockwise from the under-strand
in, and so holds its sign.  Rotating the overpass counterclockwise
sweeps the A-regions, between corners 1 and 2 and between 3 and 0, so
at every crossing the A-smoothing joins corner 0 to 1 and 2 to 3, the
B-smoothing 0 to 3 and 1 to 2.  The bracket is the sum of
``A^(#A - #B) * delta^(loops - 1)`` over all ``2^c`` states with
``delta = -A^2 - A^(-2)``, and multiplying by ``(-A^3)^(-writhe)``
makes it invariant under all Reidemeister moves.

The sum is not enumerated.  Crossings are smoothed one at a time, in a
greedy order that keeps the open arc ends (the frontier) few, and states
that join the open ends alike are merged into one Laurent polynomial
(Bar-Natan, "Fast Khovanov homology computations", 2007).  Each pick
of the order is an O(c) scan of running scores.  A smoothing closes 0, 1
or 2 loops, and its factor ``A^(+-1) * delta^loops`` is read from a table
and added straight into the merged state's polynomial.  The cost is
exponential in the frontier width, not in c; two-bridge and twist
diagrams have constant width.  Planarity is not assumed, so virtual codes
get the state sum's value too.  ``BRACKET_CAP`` stays the default guard:
a wide frontier still costs up to ``2^c``.  Requires every crossing sign.

``is_classical`` decides planarity in O(c): the F faces that ``_faces``
traces, with c vertices and 2c edges, make a sphere exactly when
F = c + 2 (Kauffman, "Virtual knot theory", 1999).  PD's corner order
lives here alone: one corner list serves the bracket, the faces and
``gauss_to_pd``, and ``_trace_code`` reads a Gauss code off a curve's
port trace, for ``pd_to_gauss`` and for every family diagram.

``determinant`` does not go through the bracket.  On a classical
diagram it is |det| of the coloring matrix with one row and one column
deleted, eliminated exactly by Bareiss's fraction-free method (Math.
Comp. 1968): O(c^3), with no cap.
"""

from __future__ import annotations

from .codes import MINUS, PLUS, GaussCode, PDCode, _build_gauss, _partners, _Value
from .errors import (CapExceeded, InternalInconsistency, InvalidParam,
                     NotClassical, StructureError, UnknownSigns)

__all__ = [
    "BRACKET_CAP", "BracketPolynomial", "kauffman_bracket", "is_classical",
    "determinant", "gauss_to_pd", "pd_to_gauss",
]

BRACKET_CAP = 14
_NOT_PLANAR = "not a classical knot diagram: its faces do not make a sphere"

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


def _contraction_order(corners: list[tuple[int, int, int, int]]) -> list[int]:
    """Greedy order: next, the crossing with most arcs to those already done."""
    owner = [0] * (4 * len(corners))  # the crossing at each arc end
    for i, ends in enumerate(corners):
        for end in ends:
            owner[end] = i
    score: list[float] = [0] * len(corners)  # neighbours already done
    order = []
    for _ in corners:
        nxt = max(range(len(score)), key=score.__getitem__)  # first maximum
        score[nxt] = float("-inf")  # never picked again
        for end in corners[nxt]:
            score[owner[end ^ 1]] += 1  # the crossing at the arc's far end
        order.append(nxt)
    return order


# [loops]: A^shift * delta^loops as (exponent, coefficient)s; A's shift is +1
_A_FACTORS, _B_FACTORS = (
    tuple(tuple((e + shift, k) for e, k in power.items())
          for power in ({0: 1}, DELTA, _laurent_mul(DELTA, DELTA)))
    for shift in (1, -1)
)


def _divide_by_delta(p: Laurent) -> Laurent:
    """Exact quotient p / delta, as -A^2 * p / (1 + A^4)."""
    rest = dict(p)
    out: Laurent = {}
    for e in range(min(rest), max(rest) - 3):
        k = rest.pop(e, 0)
        if k:
            out[e + 2] = -k
            rest[e + 4] = rest.get(e + 4, 0) - k
    remainder = BracketPolynomial.from_dict(rest)
    if remainder.coefficients:  # p is delta * <D>: the contraction is wrong
        raise InternalInconsistency(f"bracket total / delta leaves {remainder}")
    return out


def kauffman_bracket(
    diagram: GaussCode, cap: int = BRACKET_CAP
) -> BracketPolynomial:
    """The writhe-normalized Kauffman bracket of a fully signed diagram."""
    if cap < 0:
        raise InvalidParam(f"cap must be nonnegative, got {cap}")
    c = diagram.crossings
    if c > cap:
        raise CapExceeded(f"bracket is exponential; {c} crossings > cap {cap}")
    if c == 0:
        return BracketPolynomial.from_dict({0: 1})
    if not diagram.has_all_signs():
        raise UnknownSigns("the bracket needs a sign at every crossing")

    corners = _corners(diagram)
    writhe = sum(diagram.signs) // 2  # each sign sits on both visits

    # a state maps each open arc end to the end it is joined to
    states: dict[tuple, Laurent] = {(): {0: 1}}
    for idx in _contraction_order(corners):
        w, x, y, z = corners[idx]
        smoothings = ((_A_FACTORS, ((w, x), (y, z))),
                      (_B_FACTORS, ((w, z), (x, y))))
        merged: dict[tuple, Laurent] = {}
        for state, poly in states.items():
            for factors, joins in smoothings:
                mate = dict(state)
                loops = 0
                for a, b in joins:
                    # join ends a and b; an end not in mate is joined to end ^ 1
                    pa = mate.pop(a, a ^ 1)
                    if pa == b:
                        mate.pop(b, None)
                        loops += 1
                    else:
                        pb = mate.pop(b, b ^ 1)
                        mate[pa], mate[pb] = pb, pa
                acc = merged.setdefault(tuple(sorted(mate.items())), {})
                for shift, scale in factors[loops]:
                    for e, k in poly.items():
                        acc[e + shift] = acc.get(e + shift, 0) + k * scale
        states = merged

    (total,) = states.values()  # delta * <D>: all loops counted, not loops - 1
    norm = {-3 * writhe: 1 if writhe % 2 == 0 else -1}
    return BracketPolynomial.from_dict(
        _laurent_mul(_divide_by_delta(total), norm)
    )


def _corners(diagram: GaussCode) -> list[tuple[int, int, int, int]]:
    """Each crossing's four arc ends, counterclockwise from the under-strand in.

    Tuple i is label i + 1, and each arc end 0..4c - 1 lies in one tuple.
    The signs embed the code in a closed surface (its Carter surface): at
    under-visit u and over-visit o a positive crossing has the ends under
    in, over out, under out, over in ((2u - 1, 2o, 2u, 2o - 1) mod 4c),
    and a negative one the mirror order.  Every sign must be known.
    """
    m = 2 * len(diagram.labels)  # arc ends
    corners = []
    for p, q in enumerate(_partners(diagram.labels)):
        if p < q:  # first visits come in label order
            u, o = (q, p) if diagram.overs[p] else (p, q)
            u_in, o_in = (2 * u - 1) % m, (2 * o - 1) % m
            corners.append((u_in, 2 * o, 2 * u, o_in) if diagram.signs[p] == PLUS
                           else (u_in, o_in, 2 * u, 2 * o))
    return corners


def _faces(diagram: GaussCode) -> list[int]:
    """The face of each arc end, named by the least end on that face.

    A face is an orbit of "cross the arc, then turn to the next end
    counterclockwise"; ``_corners`` puts each end on one corner of one
    crossing, so the turn is a permutation of the ends.
    """
    m = 2 * len(diagram.labels)  # arc ends
    turn = [0] * m
    for ends in _corners(diagram):
        for k in range(4):
            turn[ends[k]] = ends[(k + 1) % 4]
    face = [-1] * m
    for start in range(m):
        end = start
        while face[end] < 0:
            face[end] = start
            end = turn[end ^ 1]
    return face


def is_classical(diagram: GaussCode) -> bool:
    """Whether the signed code is planar (classical): its faces number c + 2."""
    if not diagram.has_all_signs():
        raise UnknownSigns("planarity needs a sign at every crossing")
    c = diagram.crossings
    return c == 0 or len(set(_faces(diagram))) == c + 2


def gauss_to_pd(diagram: GaussCode) -> PDCode:
    """The PD code of a classical diagram: edge v + 1 is the arc into visit v.

    Each crossing lists its ``_corners``.  Raises UnknownSigns,
    NotClassical, and StructureError on the zero-crossing code, which PD
    text cannot write.
    """
    if not diagram.has_all_signs():
        raise UnknownSigns("PD output needs a sign at every crossing")
    if not is_classical(diagram):
        raise NotClassical(_NOT_PLANAR)
    n = len(diagram.labels)
    if not n:
        raise StructureError("the zero-crossing diagram has no PD code")
    # end 2v - 1 comes into visit v on edge v + 1; end 2v leaves it on v + 2
    return PDCode(tuple(sorted(tuple((end // 2 + 1) % n + 1 for end in ends)
                               for ends in _corners(diagram))))


Port = tuple[int, int]  # (crossing id, slot), slots 0..3 counterclockwise


def _trace(links: dict[Port, Port], start: Port) -> list[Port]:
    """The ports a curve enters, from ``start`` until it comes back there.

    The curve leaves a crossing by the slot opposite its entry and follows
    ``links``, which pairs the two ports of each edge.  That step is a
    bijection on ports and no entered port is an exit, so a trace holds at
    most 2c ports, exactly 2c when it is the whole diagram.
    """
    ports = [start]
    while (here := links[ports[-1][0], ports[-1][1] ^ 2]) != start:
        ports.append(here)
    return ports


def _trace_code(trace: list[Port], c: int) -> GaussCode:
    """The Gauss code of a whole trace through crossings 0..c - 1, in PD's slots.

    Visit v enters the trace's port v: its label is the crossing id + 1, and
    it is over at an odd slot.  A crossing is positive when its over-strand
    leaves one slot counterclockwise from where its under-strand enters.
    """
    # under enters even s, over enters odd u and leaves by u ^ 2; that is
    # s + 1 (mod 4) exactly when s ^ u == 3, else s ^ u == 1
    turn = [0] * c
    for cid, slot in trace:
        turn[cid] ^= slot
    return _build_gauss([(cid + 1, slot % 2 == 1, PLUS if turn[cid] == 3 else MINUS)
                         for cid, slot in trace], len(trace))


def pd_to_gauss(pd: PDCode) -> GaussCode:
    """Trace the curve of a PD code and emit the signed Gauss code.

    The under-strand of each crossing runs from the first to the third
    entry of its quadruple; following those directions around the diagram
    determines the over-strand directions and hence every crossing sign.
    Raises StructureError if the curve from the first quadruple enters
    some crossing by its outgoing under-strand or misses some crossing,
    and NotClassical, a StructureError, if the curve's faces do not make
    a sphere: PD names a planar diagram.
    """
    # sorted by edge label, each edge's two ports are neighbours
    ports = [port for _, port in sorted(
        (edge, (ci, slot)) for ci, quad in enumerate(pd.quads)
        for slot, edge in enumerate(quad))]
    links = dict(zip(ports[::2], ports[1::2])) | dict(zip(ports[1::2], ports[::2]))
    trace = _trace(links, (0, 0)) if pd.quads else []
    for ci, slot in trace:
        if slot == 2:
            raise StructureError(
                f"edge {pd.quads[ci][2]} runs against the under-strand orientation"
            )
    if len(trace) != 2 * pd.crossings:
        raise StructureError("PD code describes more than one component")
    code = _trace_code(trace, pd.crossings)
    if not is_classical(code):
        raise NotClassical("PD code is not planar: its faces do not make a sphere")
    return code


def determinant(diagram: GaussCode) -> int:
    """The knot determinant |Delta(-1)| of a classical diagram.

    Arcs run from one undervisit to the next; crossing k's row of the
    coloring matrix is twice its overarc minus its two underarcs.  Any
    one row and one column deleted, the rest has determinant +-det(K).
    Raises UnknownSigns on a missing sign and NotClassical on a
    non-planar code, both through ``is_classical``.
    """
    if not is_classical(diagram):
        raise NotClassical(_NOT_PLANAR)
    c = diagram.crossings
    if c == 0:
        return 1
    labels, overs = diagram.labels, diagram.overs
    n = len(labels)
    start = overs.index(False) + 1  # arc 0 begins after the first undervisit
    arc_at = [0] * n
    arc = 0
    for v in range(start, start + n):
        arc_at[v % n] = arc
        arc += not overs[v % n]
    # row k - 1 is crossing k; the undervisit at v ends arc_at[v] and
    # starts the next arc
    rows = [[0] * c for _ in range(c)]
    for v, label in enumerate(labels):
        row = rows[label - 1]
        if overs[v]:
            row[arc_at[v]] += 2
        else:
            row[arc_at[v]] -= 1
            row[(arc_at[v] + 1) % c] -= 1
    return abs(_bareiss([row[1:] for row in rows[1:]]))


def _bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, which it overwrites."""
    sign, prev = 1, 1
    for k in range(len(m)):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            lead = row[k]
            if lead:
                row[k + 1:] = [(a * pivot - lead * b) // prev
                               for a, b in zip(row[k + 1:], top)]
            elif pivot != prev:  # the matrix is sparse: skip the product
                row[k + 1:] = [a * pivot // prev for a in row[k + 1:]]
        prev = pivot
    return sign * prev
