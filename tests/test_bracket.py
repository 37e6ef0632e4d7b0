"""Kauffman bracket and determinant against classical reference values."""

from __future__ import annotations

import gc
import time

import pytest

from warpdeg.bracket import (
    BRACKET_CAP,
    DELTA,
    BracketPolynomial,
    Laurent,
    _bareiss,
    _contraction_order,
    _corners,
    _divide_by_delta,
    _laurent_mul,
    determinant,
    is_classical,
    kauffman_bracket,
)
from warpdeg.codes import (
    GaussCode,
    dt_to_gauss,
    parse_dt,
    parse_gauss,
    serialize,
)
from warpdeg.diagram import from_gauss, mirror, reverse, rotate
from warpdeg.errors import (
    CapExceeded,
    InternalInconsistency,
    InvalidParam,
    NotClassical,
    StructureError,
    UnknownSigns,
)
from warpdeg.families import ozawa_twist, rational_pq, twist_minimal
from warpdeg.oracle import random_codes

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"
GRANNY = "O1+O2+U3+O4+U2+O3+U4+U5+O6+U1+O5+U6+"


def diagram(text: str):
    return from_gauss(parse_gauss(text))


def test_unknot_bracket_is_one():
    assert kauffman_bracket(diagram("")).as_dict() == {0: 1}


def test_kink_normalizes_away():
    # writhe normalization makes the bracket blind to a single kink
    assert kauffman_bracket(diagram("O1+U1+")).as_dict() == {0: 1}
    assert kauffman_bracket(diagram("O1-U1-")).as_dict() == {0: 1}


def test_positive_trefoil_bracket():
    assert kauffman_bracket(diagram(TREFOIL)).as_dict() == \
        {-4: 1, -12: 1, -16: -1}


def test_figure_eight_bracket_is_palindromic():
    coeffs = kauffman_bracket(diagram(FIGURE8)).as_dict()
    assert coeffs == {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}
    assert coeffs == {-e: k for e, k in coeffs.items()}  # amphichiral


def test_mirror_negates_every_exponent():
    poly = kauffman_bracket(diagram(TREFOIL)).as_dict()
    mirrored = kauffman_bracket(mirror(diagram(TREFOIL))).as_dict()
    assert mirrored == {-e: k for e, k in poly.items()}


def test_bracket_ignores_anchor_and_direction():
    d = diagram(FIGURE8)
    want = kauffman_bracket(d).as_dict()
    assert kauffman_bracket(reverse(d)).as_dict() == want
    assert kauffman_bracket(rotate(d, 3)).as_dict() == want


def test_added_kink_leaves_the_bracket_alone():
    plain = kauffman_bracket(diagram(TREFOIL)).as_dict()
    kinked = kauffman_bracket(diagram(TREFOIL + "O4+U4+")).as_dict()
    assert kinked == plain


def test_composite_bracket_is_the_product_of_the_factors():
    tref = kauffman_bracket(diagram(TREFOIL))
    assert kauffman_bracket(diagram(GRANNY)).as_dict() == \
        (tref * tref).as_dict()


def test_twist_knot_determinants():
    # the twist knot of the fraction (2n+1)/2 has determinant 2n + 1
    for n in range(1, 7):
        assert determinant(twist_minimal(n)) == 2 * n + 1


def test_small_determinants():
    assert determinant(diagram("")) == 1
    assert determinant(diagram("O1+U1+")) == 1
    assert determinant(diagram(TREFOIL)) == 3
    assert determinant(diagram(FIGURE8)) == 5
    assert determinant(diagram(GRANNY)) == 9


def test_determinant_of_a_virtual_code_is_not_classical():
    # the virtual trefoil: a valid signed Gauss code with no planar diagram
    with pytest.raises(NotClassical, match="not a classical knot diagram"):
        determinant(diagram("O1+O2+U1+U2+"))
    assert issubclass(NotClassical, StructureError)


def test_bracket_needs_every_sign():
    with pytest.raises(UnknownSigns):
        kauffman_bracket(from_gauss(dt_to_gauss(parse_dt("4 6 2"))))


def test_bracket_cap_is_enforced():
    big = twist_minimal(BRACKET_CAP - 1)  # c = cap + 1
    with pytest.raises(CapExceeded):
        kauffman_bracket(big)
    assert determinant(big) == 2 * (BRACKET_CAP - 1) + 1


def test_a_negative_bracket_cap_is_an_invalid_parameter():
    with pytest.raises(InvalidParam,
                       match="^cap must be nonnegative, got -1$"):
        kauffman_bracket(diagram(""), cap=-1)
    assert kauffman_bracket(diagram(""), cap=0).as_dict() == {0: 1}


def test_polynomial_value_object():
    poly = BracketPolynomial.from_dict({2: 1, 0: -3, 4: 0})
    assert poly.coefficients == ((0, -3), (2, 1))
    assert poly.as_dict() == {0: -3, 2: 1}
    assert str(BracketPolynomial.from_dict({0: 1})) == "1"
    assert str(BracketPolynomial.from_dict({})) == "0"
    assert str(BracketPolynomial.from_dict({-4: 1, 0: 2, 8: -1})) == \
        "A^-4 + 2 - A^8"


def test_a_coefficient_other_than_one_prints_before_its_power(table):
    (five_two,) = table["5_2"].minimal_diagrams
    assert str(kauffman_bracket(five_two)) == \
        "-A^-24 + A^-20 - A^-16 + 2*A^-12 - A^-8 + A^-4"


def test_polynomial_product():
    # (1 + A^2)(1 - A^-2): the constant terms cancel
    a = BracketPolynomial.from_dict({0: 1, 2: 1})
    b = BracketPolynomial.from_dict({0: 1, -2: -1})
    assert (a * b).as_dict() == {-2: -1, 2: 1}


# ---------------------------------------------------------------------------
# the 2^c state sum as the reference for the contraction
# ---------------------------------------------------------------------------

def _laurent_add(p: Laurent, q: Laurent) -> Laurent:
    out = dict(p)
    for e, k in q.items():
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k != 0}


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


def reference_state_sum(diagram: GaussCode) -> BracketPolynomial:
    """The writhe-normalized bracket summed over all 2^c states."""
    c = diagram.crossings
    if c == 0:
        return BracketPolynomial.from_dict({0: 1})

    n = 2 * c
    positions: dict[int, list[int]] = {}
    for pos, label in enumerate(diagram.labels):
        positions.setdefault(label, []).append(pos)
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


def _assert_matches_the_state_sum(d: GaussCode) -> None:
    assert kauffman_bracket(d, cap=d.crossings) == reference_state_sum(d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contraction_matches_the_state_sum_on_random_codes(seed):
    # random codes are mostly virtual: no planar diagram is assumed
    for code in random_codes(300, 10, seed):
        _assert_matches_the_state_sum(from_gauss(code))


def test_contraction_matches_the_state_sum_on_table_diagrams(table):
    for entry in table:
        for d in entry.minimal_diagrams + entry.extra_diagrams:
            _assert_matches_the_state_sum(d)


def test_contraction_matches_the_state_sum_on_the_twist_families():
    diagrams = [twist_minimal(n) for n in range(1, 13)]
    diagrams += [ozawa_twist(n) for n in range(1, 7)]
    for d in diagrams:
        for variant in (d, mirror(d), reverse(d)):
            _assert_matches_the_state_sum(variant)


@pytest.mark.parametrize("text", [
    "O1+U1+", "O1-U1-", "O1+U1+O2-U2-", "O1+O2+U2+U1+",
])
def test_contraction_matches_the_state_sum_on_kinks(text):
    # an arc that starts and ends at the same crossing
    _assert_matches_the_state_sum(diagram(text))


def test_division_by_delta_refuses_a_remainder():
    with pytest.raises(InternalInconsistency, match="leaves 1$"):
        _divide_by_delta({0: 1})
    with pytest.raises(InternalInconsistency, match="leaves 1$"):
        _divide_by_delta({2: -1, 0: 1, -2: -1})  # delta + 1


def test_division_by_delta_divides_an_exact_multiple():
    quotient = {3: 2, 1: -5, -7: 1}
    assert _divide_by_delta(_laurent_mul(quotient, DELTA)) == quotient


# ---------------------------------------------------------------------------
# the O(c^2) greedy rule as the reference for the running-score order: the
# order moves only the cost, never the polynomial, so the state-sum tests
# above cannot see it
# ---------------------------------------------------------------------------

def reference_contraction_order(
    labels: tuple[int, ...], crossings: list[list[int]]
) -> list[int]:
    """Next, the first not-done crossing with the most done neighbours."""
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


def _assert_same_order(d: GaussCode) -> None:
    positions: list[list[int]] = [[] for _ in range(d.crossings + 1)]
    for pos, label in enumerate(d.labels):
        positions[label].append(pos)
    crossings = positions[1:]
    assert _contraction_order(list(_corners(d))) == \
        reference_contraction_order(d.labels, crossings)


def _table_and_family_diagrams(table) -> list[GaussCode]:
    diagrams = [d for entry in table
                for d in entry.minimal_diagrams + entry.extra_diagrams]
    diagrams += [twist_minimal(n) for n in range(1, 13)]
    diagrams += [ozawa_twist(n) for n in range(1, 7)]
    return diagrams


def test_contraction_order_matches_the_reference_on_table_and_families(table):
    for d in _table_and_family_diagrams(table):
        _assert_same_order(d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contraction_order_matches_the_reference_on_random_codes(seed):
    for code in random_codes(300, 12, seed):
        _assert_same_order(from_gauss(code))


def _assert_each_end_on_one_corner(d: GaussCode) -> None:
    corners = list(_corners(d))
    ends = sorted(end for quad in corners for end in quad)
    assert ends == list(range(4 * d.crossings)), serialize(d)
    # tuple i is label i + 1: its two out ends 2v leave the visits v of that label
    for label, quad in enumerate(corners, 1):
        assert {d.labels[end // 2] for end in quad if end % 2 == 0} == {label}


def test_each_arc_end_lies_on_one_corner_on_table_and_families(table):
    for d in _table_and_family_diagrams(table):
        _assert_each_end_on_one_corner(d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_arc_end_lies_on_one_corner_on_random_codes(seed):
    # mostly virtual codes: the corner list needs no planar diagram
    for code in random_codes(300, 12, seed):
        _assert_each_end_on_one_corner(from_gauss(code))


def test_large_twist_families_stay_fast():
    # constant frontier width: the cost does not grow as 2^c
    start = time.perf_counter()
    for n in range(1, 41):
        assert determinant(twist_minimal(n)) == 2 * n + 1
    for n in range(1, 21):
        assert determinant(ozawa_twist(n)) == 2 * n + 1
        assert kauffman_bracket(twist_minimal(n), cap=n + 2) == \
            kauffman_bracket(ozawa_twist(n), cap=2 * n + 1)
    assert time.perf_counter() - start < 2.0
    # the coloring-matrix determinant is polynomial: c = 200 and c = 201
    for d, want in ((twist_minimal(198), 397), (ozawa_twist(100), 201)):
        start = time.perf_counter()
        assert determinant(d) == want
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the bracket at the 8th root of unity as the reference for the determinant
# ---------------------------------------------------------------------------

def reference_determinant(diagram: GaussCode, cap: int = BRACKET_CAP) -> int:
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


def test_determinant_matches_the_bracket_on_table_diagrams(table):
    for entry in table:
        for d in entry.minimal_diagrams + entry.extra_diagrams:
            assert determinant(d) == reference_determinant(d), entry.name


def test_determinant_matches_the_bracket_on_the_twist_families():
    diagrams = [twist_minimal(n) for n in range(1, 13)]
    diagrams += [ozawa_twist(n) for n in range(1, 7)]
    for d in diagrams:
        for variant in (d, mirror(d), reverse(d)):
            assert determinant(variant) == reference_determinant(variant)


def test_determinant_matches_the_bracket_on_classical_random_codes():
    classical = integral_virtual = 0
    for code in random_codes(3000, 10, 7):
        try:
            want = reference_determinant(code)
        except NotClassical:
            want = None
        if is_classical(code):
            classical += 1
            assert determinant(code) == want, serialize(code)
        else:
            # the bracket at the 8th root is no planarity test: it is an
            # integer on many virtual codes, and the determinant refuses all
            integral_virtual += want is not None
            with pytest.raises(NotClassical):
                determinant(code)
    assert (classical, integral_virtual) == (714, 748)


def test_a_singular_matrix_has_determinant_zero():
    # never reached on a knot, whose determinant is odd
    assert _bareiss([[1, 2], [2, 4]]) == 0


def test_determinant_needs_every_sign():
    with pytest.raises(UnknownSigns):
        determinant(from_gauss(dt_to_gauss(parse_dt("4 6 2"))))


# ---------------------------------------------------------------------------
# planarity: F = c + 2 faces exactly on classical codes
# ---------------------------------------------------------------------------

def test_table_and_family_diagrams_are_classical(table):
    diagrams = [d for entry in table
                for d in entry.minimal_diagrams + entry.extra_diagrams]
    assert len(diagrams) == 46
    # the family builders read their codes off a planar port graph and run
    # no planarity check of their own: every public case, 74 in all
    diagrams += [twist_minimal(n) for n in range(1, 14)]
    diagrams += [ozawa_twist(n) for n in range(1, 14)]
    diagrams += [rational_pq(p, q) for p in range(1, 9) for q in range(1, 9)
                 if p * q % 2 == 0]  # pq odd closes to a link
    assert len(diagrams) == 46 + 74
    for d in diagrams:
        for variant in (d, reverse(d), mirror(d), rotate(d, 3)):
            assert is_classical(variant), serialize(variant)


def test_the_virtual_trefoil_is_not_classical():
    # two crossings, two faces: its Carter surface is a torus
    assert not is_classical(diagram("O1+O2+U1+U2+"))


@pytest.mark.parametrize("text", [
    "O1+O2+U1+U2+",
    # Reidemeister I kinks of either sign, met over or under first
    "O1+O3+U3+O2+U1+U2+", "O1+O3-U3-O2+U1+U2+",
    "O1+U3+O3+O2+U1+U2+", "O1+U3-O3-O2+U1+U2+",
    "O1+O2+O3+O4-U1+U2+U3+U4-",  # a Reidemeister II pair
])
def test_the_virtual_trefoil_has_a_bracket_that_the_moves_keep(text):
    # the bracket is the state sum, which needs no planar diagram; the
    # determinant refuses the same codes
    assert str(kauffman_bracket(diagram(text))) == "-A^-10 + A^-6 + A^-4"
    with pytest.raises(NotClassical):
        determinant(diagram(text))


def test_classical_codes_among_random_codes_are_pinned():
    codes = random_codes(2000, 10, 3)
    assert sum(is_classical(code) for code in codes) == 468


def test_planarity_runs_no_collector_pass():
    # with its corners held as a list of c tuples, each tracked by the cyclic
    # collector until a pass untracked it, this call ran 14 passes
    d = twist_minimal(10_000)
    passes = []

    def counted(phase, info):
        passes.append(phase)

    gc.collect()
    gc.callbacks.append(counted)
    try:
        assert is_classical(d)
    finally:
        gc.callbacks.remove(counted)
    assert passes == []


def test_planarity_needs_every_sign():
    with pytest.raises(UnknownSigns):
        is_classical(from_gauss(dt_to_gauss(parse_dt("4 6 2"))))
