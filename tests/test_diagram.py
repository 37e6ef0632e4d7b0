"""Symmetry operations on oriented diagrams and their profile identities."""

from __future__ import annotations

import pytest

from warpdeg import bracket, codes, oracle
from warpdeg.codes import (
    UNSIGNED,
    GaussCode,
    _build_gauss,
    canonical,
    dt_to_gauss,
    parse_dt,
    parse_gauss,
    parse_pd,
)
from warpdeg.diagram import (
    change_crossing,
    from_gauss,
    mirror,
    reverse,
    rotate,
)
from warpdeg.errors import UnknownCrossing
from warpdeg.bracket import kauffman_bracket, pd_to_gauss
from warpdeg.families import ozawa_twist, rational_pq, twist_minimal
from warpdeg.oracle import random_codes
from warpdeg.warping import profile

from test_codes import reference_canonical, visits_of

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"


def diagram(text: str) -> GaussCode:
    return from_gauss(parse_gauss(text))


def test_a_diagram_is_its_gauss_code():
    code = parse_gauss("U1O2U3O1U2O3")
    assert from_gauss(code) is code


def test_sign_lookup():
    d = diagram(FIGURE8)
    assert d.sign_of(1) == 1
    assert d.sign_of(2) == -1
    assert d.has_all_signs()
    with pytest.raises(UnknownCrossing):
        d.sign_of(5)


def test_zero_crossing_diagram():
    d = diagram("")
    assert d.crossings == 0
    assert d.has_all_signs()  # vacuously
    assert reverse(d) == mirror(d) == rotate(d, 3) == d


# ---------------------------------------------------------------------------
# reverse / mirror / rotate
# ---------------------------------------------------------------------------

def test_reverse_is_an_involution():
    d = diagram(FIGURE8)
    assert reverse(reverse(d)) == d


def test_mirror_is_an_involution():
    d = diagram(FIGURE8)
    assert mirror(mirror(d)) == d


def test_mirror_swaps_strands_and_negates_signs():
    d = mirror(diagram(TREFOIL))
    assert list(d.overs) == [False, True] * 3
    assert all(sign == -1 for sign in d.signs)


def test_rotate_moves_the_anchor_forward():
    d = diagram(TREFOIL)
    r = rotate(d, 2)
    # position 0 of the rotation is old position 2, relabelled
    assert list(r.overs) == list(d.overs[2:] + d.overs[:2])
    assert rotate(r, len(d.overs) - 2) == d


def test_rotate_accepts_any_integer():
    d = diagram(FIGURE8)
    assert rotate(d, 8) == d
    assert rotate(d, -3) == rotate(d, 5)


# Walking backwards meets each crossing pair in the opposite order, so a
# crossing is under-first in one direction exactly when it is over-first
# in the other: the profiles complement pointwise, with the index flip
# that re-anchoring at the same physical edge introduces.

def test_reverse_profile_is_the_pointwise_complement():
    d = diagram(FIGURE8)
    p, pr = profile(d), profile(reverse(d))
    n, c = len(p), d.crossings
    assert all(pr[i] == c - p[(n - i) % n] for i in range(n))


def test_mirror_profile_is_the_pointwise_complement_at_the_same_base():
    d = diagram(FIGURE8)
    p, pm = profile(d), profile(mirror(d))
    assert all(pm[i] == d.crossings - p[i] for i in range(len(p)))


def test_rotate_rotates_the_profile():
    d = diagram(TREFOIL)
    p = profile(d)
    for k in range(len(p)):
        assert profile(rotate(d, k)) == p[k:] + p[:k]


# ---------------------------------------------------------------------------
# crossing changes
# ---------------------------------------------------------------------------

def test_change_crossing_swaps_roles_and_negates_the_sign():
    d = diagram(TREFOIL)
    ch = change_crossing(d, 2)
    assert [over for label, over in zip(ch.labels, ch.overs)
            if label == 2] == [True, False]
    assert ch.sign_of(2) == -1
    assert ch.sign_of(1) == 1


def test_change_crossing_is_an_involution():
    d = diagram(FIGURE8)
    assert change_crossing(change_crossing(d, 3), 3) == d


def test_change_crossing_keeps_unsigned_crossings_unsigned():
    d = diagram("O1U2O3U1O2U3")
    assert change_crossing(d, 1).sign_of(1) == UNSIGNED


@pytest.mark.parametrize("label", [0, 4, -1])
def test_change_crossing_rejects_unknown_labels(label):
    with pytest.raises(UnknownCrossing):
        change_crossing(diagram(TREFOIL), label)


def test_changing_any_trefoil_crossing_yields_the_trivial_knot():
    # the trefoil has unknotting number one, realized at every crossing
    d = diagram(TREFOIL)
    for label in (1, 2, 3):
        ch = change_crossing(d, label)
        assert kauffman_bracket(ch).as_dict() == {0: 1}
        assert min(profile(ch)) == 0


# ---------------------------------------------------------------------------
# moves relabel without re-validating
# ---------------------------------------------------------------------------

def _validated(visits) -> GaussCode:
    """A move's result sent through full validation and normalization."""
    return _build_gauss(list(visits))


def _assert_moves_match_the_validating_path(d: GaussCode) -> None:
    visits = visits_of(d)
    assert reverse(d) == _validated(visits[::-1])
    assert mirror(d) == _validated(
        (label, not over, -sign) for label, over, sign in visits
    )
    for k in range(len(visits)):
        assert rotate(d, k) == _validated(visits[k:] + visits[:k])
    for at in range(1, d.crossings + 1):
        assert change_crossing(d, at) == _validated(
            (label, not over, -sign) if label == at else (label, over, sign)
            for label, over, sign in visits
        )
    assert canonical(d) == reference_canonical(d)
    for moved in (reverse(d), mirror(d), rotate(d, 1), canonical(d)):
        assert all(type(column) is tuple
                   for column in (moved.labels, moved.overs, moved.signs))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moves_on_random_codes_match_the_validating_path(seed):
    for code in random_codes(300, 12, seed):
        _assert_moves_match_the_validating_path(from_gauss(code))


def test_moves_on_table_and_twist_diagrams_match_the_validating_path(table):
    diagrams = [d for entry in table
                for d in entry.minimal_diagrams + entry.extra_diagrams]
    diagrams += [twist_minimal(n) for n in range(1, 9)]
    for d in diagrams:
        _assert_moves_match_the_validating_path(d)


def test_only_codes_from_outside_data_are_validated(monkeypatch):
    calls = []

    def spy(raw, *limit):
        calls.append(1)
        return _build_gauss(raw, *limit)

    monkeypatch.setattr(codes, "_build_gauss", spy)
    monkeypatch.setattr(bracket, "_build_gauss", spy)
    monkeypatch.setattr(oracle, "_build_gauss", spy)
    d = from_gauss(parse_gauss(FIGURE8))
    dt_to_gauss(parse_dt("4 6 2"))
    pd_to_gauss(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"))
    random_codes(2, 5, 0)
    assert len(calls) == 5
    for moved in (d, reverse(d), mirror(d), rotate(d, 3), change_crossing(d, 2)):
        canonical(moved)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# the normalization every constructor keeps
# ---------------------------------------------------------------------------

def _first_appearances(labels) -> list[int]:
    order: list[int] = []
    for label in labels:
        if label not in order:
            order.append(label)
    return order


def test_every_constructor_numbers_labels_by_first_appearance():
    # warping.profile finds first visits by this invariant alone
    made = [
        parse_gauss("U7+ O3- U5+ O7+ U3- O5+"),
        parse_gauss(""),
        dt_to_gauss(parse_dt("-8 6 -10 2 -4")),
        pd_to_gauss(parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")),
        *random_codes(40, 9, 4),
        *(twist_minimal(n) for n in range(1, 5)),
        *(rational_pq(p, q) for p, q in ((1, 2), (2, 1), (2, 3), (4, 3))),
        *(ozawa_twist(n) for n in range(1, 5)),
    ]
    for d in list(made):
        made += [reverse(d), mirror(d), canonical(d)]
        made += [rotate(d, k) for k in (1, 5, -3)]
        made += [change_crossing(d, at) for at in range(1, d.crossings + 1)]
    for d in made:
        order = _first_appearances(d.labels)
        assert order == list(range(1, d.crossings + 1))
        assert len(d.labels) == 2 * len(order)
