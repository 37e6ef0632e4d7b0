"""Warping profile, degree, sum, span and polynomial on known diagrams."""

from __future__ import annotations

import pytest

from warpdeg import warping
from warpdeg.codes import GaussCode, parse_gauss
from warpdeg.diagram import from_gauss
from warpdeg.errors import InternalInconsistency
from warpdeg.warping import (
    is_monotone,
    profile,
    summary,
    warping_degree,
    warping_polynomial,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"

# two seven-crossing diagrams of the same knot related by a flype: the
# warping sum is 6 for both, but only the second splits the orientations
SEVEN_SIX_A = "O1+U2-O3-U1+O4+U5-O6-U3-O2-U7-O5-U6-O7-U4+"
SEVEN_SIX_B = "O1+U2-O3-U4+O5-U6-O4+U7-O2-U3-O7-U1+O6-U5-"

# same story at eight crossings: {3, 4} against {2, 5}
EIGHT_TWELVE_A = "O1+U2+O3+U4-O5-U6-O7-U3+O2+U7-O6-U1+O8+U5-O4-U8+"
EIGHT_TWELVE_B = "O1+U2-O3+U4-O5-U3+O6-U1+O7+U6-O8+U5-O4-U8+O2-U7+"


def diagram(text: str) -> GaussCode:
    return from_gauss(parse_gauss(text))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_trefoil_profile():
    assert profile(diagram(TREFOIL)) == (1, 2, 1, 2, 1, 2)


def test_figure_eight_profile():
    assert profile(diagram(FIGURE8)) == (1, 2, 1, 2, 1, 2, 1, 2)


def test_kink_profiles():
    assert profile(diagram("O1U1")) == (0, 1)
    assert profile(diagram("U1O1")) == (1, 0)


def test_zero_crossing_profile():
    p = profile(diagram(""))
    assert p == (0,)
    assert (min(p), max(p), len(p)) == (0, 0, 1)


def test_profile_extremes():
    p = profile(diagram(TREFOIL))
    assert min(p) == 1
    assert max(p) == 2
    assert len(p) == 6


def test_adjacent_profile_entries_differ_by_one():
    # moving the base past one visit changes the degree by exactly 1
    for text in (TREFOIL, FIGURE8, SEVEN_SIX_A, EIGHT_TWELVE_B):
        p = profile(diagram(text))
        n = len(p)
        assert all(abs(p[i] - p[(i + 1) % n]) == 1 for i in range(n))


def test_descending_code_has_degree_zero():
    d = diagram("O1O2O3U1U2U3")
    assert warping_degree(d) == 0
    assert is_monotone(d)


def test_ascending_code_has_full_degree_somewhere():
    d = diagram("U1U2U3O1O2O3")
    assert profile(d)[0] == 3
    assert warping_degree(d) == 0  # monotone: some other base descends


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_trefoil_summary():
    s = summary(diagram(TREFOIL))
    assert (s.crossings, s.d_forward, s.d_reverse) == (3, 1, 1)
    assert (s.warping_sum, s.span) == (2, 1)
    assert s.polynomial == (0, 3, 3, 0)


def test_figure_eight_summary():
    s = summary(diagram(FIGURE8))
    assert (s.d_forward, s.d_reverse, s.warping_sum, s.span) == (1, 2, 3, 1)


def test_zero_crossing_summary():
    s = summary(diagram(""))
    assert (s.crossings, s.d_forward, s.d_reverse) == (0, 0, 0)
    assert (s.warping_sum, s.span) == (0, 0)
    assert s.polynomial == (1,)


def test_kink_summary():
    s = summary(diagram("O1U1"))
    assert (s.d_forward, s.d_reverse, s.warping_sum, s.span) == (0, 0, 0, 1)
    assert s.polynomial == (1, 1)


def test_sum_and_span_satisfy_the_crossing_identity():
    # d(D) + d(-D) = c - (max - min) on every diagram
    for text in (TREFOIL, FIGURE8, SEVEN_SIX_A, SEVEN_SIX_B, "O1U1"):
        s = summary(diagram(text))
        assert s.warping_sum == s.crossings - s.span


def test_alternating_diagrams_have_span_one():
    for text in (TREFOIL, FIGURE8, SEVEN_SIX_A, SEVEN_SIX_B,
                  EIGHT_TWELVE_A, EIGHT_TWELVE_B):
        assert summary(diagram(text)).span == 1


def test_summary_checks_its_reverse_degree_against_the_profile(monkeypatch):
    # a "reverse" that hands back the diagram itself: its degree is
    # d(D) = 4, while the forward profile's maximum says d(-D) = 7 - 5 = 2
    monkeypatch.setattr(warping, "reverse", lambda d: d)
    with pytest.raises(InternalInconsistency) as info:
        summary(diagram(SEVEN_SIX_B))
    assert str(info.value) == "reverse degree 4 != c - max(profile) = 2"


def test_summary_reverses_once_and_builds_one_profile(monkeypatch):
    # the traced benchmark run requires both entry points to fire per
    # diagram; dropping either from summary needs a benchmark revision
    calls = []

    def spy(name):
        real = getattr(warping, name)

        def counted(d):
            calls.append(name)
            return real(d)

        monkeypatch.setattr(warping, name, counted)

    spy("reverse")
    spy("profile")
    s = summary(diagram(SEVEN_SIX_B))
    assert sorted(calls) == ["profile", "reverse"]
    assert (s.d_forward, s.d_reverse) == (4, 2)


# ---------------------------------------------------------------------------
# orientation splits: same knot, same sum, different degree pairs
# ---------------------------------------------------------------------------

def test_seven_crossing_flype_pair():
    a = summary(diagram(SEVEN_SIX_A))
    b = summary(diagram(SEVEN_SIX_B))
    assert {a.d_forward, a.d_reverse} == {3}
    assert {b.d_forward, b.d_reverse} == {2, 4}
    assert a.warping_sum == b.warping_sum == 6


def test_eight_crossing_flype_pair():
    a = summary(diagram(EIGHT_TWELVE_A))
    b = summary(diagram(EIGHT_TWELVE_B))
    assert {a.d_forward, a.d_reverse} == {3, 4}
    assert {b.d_forward, b.d_reverse} == {2, 5}
    assert a.warping_sum == b.warping_sum == 7


# ---------------------------------------------------------------------------
# the degree-count polynomial
# ---------------------------------------------------------------------------

def test_polynomial_counts_bases_by_degree():
    assert warping_polynomial(diagram(TREFOIL)) == (0, 3, 3, 0)
    assert warping_polynomial(diagram("")) == (1,)


def test_polynomial_coefficients_sum_to_the_base_count():
    for text in (TREFOIL, FIGURE8, SEVEN_SIX_B, "O1U1"):
        d = diagram(text)
        assert sum(warping_polynomial(d)) == max(2 * d.crossings, 1)


@pytest.mark.parametrize("text", [
    "", "O1U1", TREFOIL, FIGURE8, SEVEN_SIX_A, EIGHT_TWELVE_B,
])
def test_summary_carries_the_profile_and_its_polynomial(text):
    d = diagram(text)
    s = summary(d)
    assert s.profile == profile(d)
    assert s.polynomial == warping_polynomial(d)

