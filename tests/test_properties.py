"""Property tests on randomly generated abstract Gauss codes.

A random code pairs the 2c visit slots by a uniform perfect matching and
assigns strand roles and signs freely.  Such codes need not be planar,
but every quantity tested here is defined combinatorially, so the
properties must hold regardless.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from warpdeg.codes import (
    MINUS,
    PLUS,
    canonical,
    dt_to_gauss,
    gauss_to_dt,
    parse_dt,
    parse_gauss,
    serialize,
)
from warpdeg.bracket import kauffman_bracket
from warpdeg.diagram import (
    change_crossing,
    from_gauss,
    mirror,
    reverse,
    rotate,
)
from warpdeg.oracle import min_changes_to_monotone, profile_bruteforce
from warpdeg.warping import profile, summary, warping_polynomial


@st.composite
def gauss_codes(draw, max_crossings: int = 6, signed: bool = False):
    c = draw(st.integers(min_value=1, max_value=max_crossings))
    slots = draw(st.permutations(list(range(2 * c))))
    over_first = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    if signed:
        signs = draw(st.lists(st.sampled_from([PLUS, MINUS]),
                              min_size=c, max_size=c))
    else:
        signs = draw(st.lists(st.sampled_from([PLUS, MINUS, 0]),
                              min_size=c, max_size=c))
    visits = [None] * (2 * c)
    for label in range(1, c + 1):
        p, q = slots[2 * label - 2], slots[2 * label - 1]
        visits[p] = (label, over_first[label - 1], signs[label - 1])
        visits[q] = (label, not over_first[label - 1], signs[label - 1])
    text = "".join(
        f"{'O' if over else 'U'}{label}{ {1: '+', -1: '-', 0: ''}[sign] }"
        for label, over, sign in visits
    ).replace(" ", "")
    return parse_gauss(text)


@given(gauss_codes())
def test_profile_agrees_with_the_full_walk_oracle(code):
    d = from_gauss(code)
    p, brute = profile(d), profile_bruteforce(d)
    assert type(p) is tuple and type(brute) is tuple
    assert p == brute == summary(d).profile


@given(gauss_codes())
def test_adjacent_profile_entries_differ_by_exactly_one(code):
    p = profile(from_gauss(code))
    n = len(p)
    assert all(abs(p[i] - p[(i + 1) % n]) == 1 for i in range(n))


@given(gauss_codes())
def test_degrees_stay_between_zero_and_the_crossing_count(code):
    d = from_gauss(code)
    p = profile(d)
    assert 0 <= min(p) <= max(p) <= d.crossings


@given(gauss_codes())
def test_sum_equals_crossings_minus_span(code):
    s = summary(from_gauss(code))
    assert s.warping_sum == s.crossings - s.span
    assert s.span >= 1


@given(gauss_codes())
def test_sum_and_span_ignore_direction_mirror_and_anchor(code):
    d = from_gauss(code)
    s = summary(d)
    for other in (reverse(d), mirror(d), rotate(d, 3)):
        t = summary(other)
        assert (t.warping_sum, t.span) == (s.warping_sum, s.span)


@given(gauss_codes(), st.integers(min_value=0, max_value=11))
def test_rotation_rotates_the_profile(code, k):
    d = from_gauss(code)
    p = profile(d)
    shift = k % len(p)
    assert profile(rotate(d, k)) == p[shift:] + p[:shift]


@given(gauss_codes())
def test_mirror_complements_the_profile(code):
    d = from_gauss(code)
    p = profile(d)
    pm = profile(mirror(d))
    assert all(pm[i] == d.crossings - p[i] for i in range(len(p)))


@given(gauss_codes())
def test_reverse_complements_the_profile_against_the_flipped_base(code):
    d = from_gauss(code)
    p = profile(d)
    pr = profile(reverse(d))
    n = len(p)
    assert all(pr[i] == d.crossings - p[(n - i) % n] for i in range(n))


@given(gauss_codes(max_crossings=10))
def test_summary_reads_one_profile(code):
    d = from_gauss(code)
    s = summary(d)
    assert s.profile == profile(d)
    assert s.polynomial == warping_polynomial(d)
    assert (s.d_forward, s.span) == (min(s.profile), max(s.profile) - min(s.profile))


@given(gauss_codes(max_crossings=5))
@settings(deadline=None)
def test_smallest_change_set_size_is_the_warping_degree(code):
    d = from_gauss(code)
    assert min_changes_to_monotone(d).changes == min(profile(d))


@given(gauss_codes(), st.integers(min_value=1, max_value=6))
def test_changing_a_crossing_twice_is_the_identity(code, label):
    d = from_gauss(code)
    label = (label - 1) % d.crossings + 1
    assert change_crossing(change_crossing(d, label), label) == d


@given(gauss_codes())
def test_canonical_form_is_rotation_invariant_and_idempotent(code):
    want = serialize(code)
    assert serialize(canonical(code)) == want
    d = from_gauss(code)
    for k in range(len(code.labels)):
        assert serialize(rotate(d, k)) == want


@given(gauss_codes(max_crossings=5, signed=True))
@settings(deadline=None)
def test_bracket_ignores_anchor_and_direction(code):
    d = from_gauss(code)
    want = kauffman_bracket(d).as_dict()
    assert kauffman_bracket(rotate(d, 5)).as_dict() == want
    assert kauffman_bracket(reverse(d)).as_dict() == want


@given(gauss_codes(max_crossings=5, signed=True))
@settings(deadline=None)
def test_mirror_bracket_negates_exponents(code):
    d = from_gauss(code)
    poly = kauffman_bracket(d).as_dict()
    assert kauffman_bracket(mirror(d)).as_dict() == \
        {-e: k for e, k in poly.items()}


@st.composite
def dt_codes(draw, max_crossings: int = 7):
    c = draw(st.integers(min_value=1, max_value=max_crossings))
    evens = draw(st.permutations(list(range(2, 2 * c + 1, 2))))
    flips = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    return parse_dt(" ".join(
        str(-v if flip else v) for v, flip in zip(evens, flips)
    ))


@given(dt_codes())
def test_dt_round_trips_through_gauss(dt):
    assert gauss_to_dt(dt_to_gauss(dt)) == dt
