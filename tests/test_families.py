"""Planar family builders: twist diagrams, two-bridge closures, and the
(2n+1)-crossing presentations whose warping sum is 2 both ways."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from warpdeg.bracket import determinant, kauffman_bracket
from warpdeg.codes import pd_to_gauss, serialize
from warpdeg.diagram import from_gauss
from warpdeg.errors import InvalidParam, NotAKnot
from warpdeg.families import family_pd, ozawa_twist, rational_pq, twist_minimal
from warpdeg.warping import summary


# ---------------------------------------------------------------------------
# minimal twist diagrams
# ---------------------------------------------------------------------------

def test_twist_minimal_crossings_sum_and_span():
    for n in range(1, 13):
        s = summary(twist_minimal(n))
        assert s.crossings == n + 2
        assert s.warping_sum == n + 1
        assert s.span == 1


def test_twist_minimal_degree_pair_follows_the_parity_formula():
    for n in range(1, 13):
        s = summary(twist_minimal(n))
        pair = (s.d_forward, s.d_reverse)
        if n % 2:
            assert pair == ((n + 1) // 2, (n + 1) // 2)
        else:
            assert set(pair) == {n // 2, (n + 2) // 2}


def test_twist_minimal_rejects_nonpositive_parameters():
    for n in (0, -1):
        with pytest.raises(InvalidParam):
            twist_minimal(n)


# ---------------------------------------------------------------------------
# two-bridge closures
# ---------------------------------------------------------------------------

def test_rational_determinant_is_the_fraction_numerator():
    for p in range(1, 5):
        for q in range(1, 5):
            if (p * q) % 2:
                continue
            assert determinant(rational_pq(p, q)) == p * q + 1


def test_rational_diagrams_are_alternating_with_span_one():
    for p, q in ((2, 1), (2, 5), (4, 3), (3, 4), (4, 4)):
        s = summary(rational_pq(p, q))
        assert s.crossings == p + q
        assert s.span == 1
        assert s.warping_sum == s.crossings - 1


def test_rational_rejects_two_component_closures():
    for p, q in ((1, 1), (3, 1), (1, 3), (3, 3)):
        with pytest.raises(NotAKnot):
            rational_pq(p, q)


def test_rational_rejects_nonpositive_parameters():
    with pytest.raises(InvalidParam):
        rational_pq(0, 2)
    with pytest.raises(InvalidParam):
        rational_pq(2, -1)


# ---------------------------------------------------------------------------
# sum-2 presentations
# ---------------------------------------------------------------------------

def test_ozawa_has_degree_one_for_both_orientations():
    for n in range(1, 13):
        s = summary(ozawa_twist(n))
        assert s.crossings == 2 * n + 1
        assert (s.d_forward, s.d_reverse) == (1, 1)
        assert s.warping_sum == 2


def test_ozawa_is_the_same_knot_as_the_minimal_twist_diagram():
    for n in range(1, 7):
        assert kauffman_bracket(ozawa_twist(n)) == \
            kauffman_bracket(twist_minimal(n))


def test_ozawa_rejects_nonpositive_parameters():
    for n in (0, -2):
        with pytest.raises(InvalidParam):
            ozawa_twist(n)


# ---------------------------------------------------------------------------
# planar (PD) output
# ---------------------------------------------------------------------------

def test_family_pd_matches_the_gauss_builders():
    cases = (
        ("twist", SimpleNamespace(n=4, p=None, q=None), twist_minimal(4)),
        ("rational", SimpleNamespace(n=None, p=3, q=2), rational_pq(3, 2)),
        ("ozawa", SimpleNamespace(n=3, p=None, q=None), ozawa_twist(3)),
    )
    for family, params, built in cases:
        via_pd = from_gauss(pd_to_gauss(family_pd(family, params)))
        assert serialize(via_pd) == serialize(built)


def test_family_pd_rejects_unknown_families_and_bad_parameters():
    with pytest.raises(InvalidParam):
        family_pd("torus", SimpleNamespace(n=3, p=None, q=None))
    with pytest.raises(InvalidParam):
        family_pd("twist", SimpleNamespace(n=0, p=None, q=None))
    with pytest.raises(InvalidParam):
        family_pd("rational", SimpleNamespace(n=None, p=2, q=0))
    with pytest.raises(InvalidParam):
        family_pd("ozawa", SimpleNamespace(n=-1, p=None, q=None))
