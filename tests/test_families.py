"""Planar family builders: twist diagrams, two-bridge closures, and the
(2n+1)-crossing presentations whose warping sum is 2 both ways."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from warpdeg.bracket import (determinant, gauss_to_pd, is_classical,
                             kauffman_bracket, pd_to_gauss)
from warpdeg.cli import main
from warpdeg.codes import (UNSIGNED, GaussCode, canonical, dt_to_gauss,
                           gauss_to_dt, parse_gauss, parse_pd, serialize)
from warpdeg.diagram import rotate
from warpdeg.errors import (InvalidParam, NotAKnot, NotClassical,
                            StructureError, UnknownSigns)
from warpdeg.families import (
    _continued_fraction,
    ozawa_twist,
    rational_pq,
    twist_minimal,
)
from warpdeg.oracle import random_codes
from warpdeg.table import is_alternating_diagram
from warpdeg.warping import summary

TREFOIL = "O1+U2+O3+U1+O2+U3+"

# every public family case: (builder, parameters) for twist and ozawa
# 1..13 and each knot rational_pq(p, q) with p, q <= 8
FAMILY_CASES = [(twist_minimal, (n,)) for n in range(1, 14)]
FAMILY_CASES += [(ozawa_twist, (n,)) for n in range(1, 14)]
FAMILY_CASES += [(rational_pq, (p, q))
                 for p, q in itertools.product(range(1, 9), repeat=2)
                 if p * q % 2 == 0]  # pq odd closes to a link


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


def test_continued_fraction_closure_realizes_its_numerator():
    # [a1, ..., ak] realizes ak + 1/(... + 1/a1); every vector with
    # entries 1..3 and length 1..4
    vectors = [list(v) for k in range(1, 5)
               for v in itertools.product(range(1, 4), repeat=k)]
    assert len(vectors) == 120
    lines = []
    for v in vectors:
        num, den = v[0], 1
        for a in v[1:]:
            num, den = a * num + den, num
        if num % 2 == 0:
            with pytest.raises(NotAKnot) as info:
                _continued_fraction(v)
            lines.append(f"{v} NotAKnot: {info.value}")
            continue
        diagram = _continued_fraction(v)
        lines.append(f"{v} {serialize(gauss_to_pd(diagram))}")
        assert diagram.crossings == sum(v), v
        assert is_alternating_diagram(diagram), v
        assert determinant(diagram) == num, v
    # SHA-256 of the PD text of every vector, as first built by a tangle
    # object that checked its own wiring
    assert lines[:2] == ["[1] X(2,1,1,2)",
                         "[2] NotAKnot: closure has more than one component"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "3b57c96f71ded778beed30803ddf984eb84bb9378f53e2265041c0e8d7c45475"


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
# the one anchor
# ---------------------------------------------------------------------------

def test_every_family_diagram_starts_at_an_overpass():
    for build, params in FAMILY_CASES:
        assert build(*params).overs[0], (build.__name__, params)


def test_alternating_family_diagrams_have_all_positive_dt_codes():
    alternating = [(build, params) for build, params in FAMILY_CASES
                   if build is not ozawa_twist]
    assert len(alternating) == 61
    for build, params in alternating:
        assert all(e > 0 for e in gauss_to_dt(build(*params)).evens), params


def test_family_dt_codes_read_back_as_the_unsigned_diagram():
    for build, params in FAMILY_CASES:
        code = build(*params)
        unsigned = GaussCode(code.labels, code.overs,
                             (UNSIGNED,) * len(code.labels))
        assert canonical(dt_to_gauss(gauss_to_dt(code))) == \
            canonical(unsigned), params


def test_generate_dt_starts_the_twist_family_at_an_overpass(capsys):
    for n, want in ((1, "4 6 2\n"), (2, "4 6 8 2\n")):
        assert main(["generate", "twist", "--n", str(n), "--format", "dt"]) == 0
        assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# planar (PD) output
# ---------------------------------------------------------------------------

def test_generate_pd_matches_the_gauss_builders(capsys):
    cases = (
        (("twist", "--n", "4"), twist_minimal(4)),
        (("rational", "--p", "3", "--q", "2"), rational_pq(3, 2)),
        (("ozawa", "--n", "3"), ozawa_twist(3)),
    )
    for argv, built in cases:
        assert main(["generate", *argv, "--format", "pd"]) == 0
        via_pd = pd_to_gauss(parse_pd(capsys.readouterr().out))
        assert serialize(via_pd) == serialize(built)


def test_family_pd_text_is_pinned():
    # SHA-256 of every family's PD text, and of the message of each
    # two-component closure, as first built by per-family curve walks
    def pd_text(build, *params):
        return serialize(gauss_to_pd(build(*params)))

    lines = [f"twist {n} {pd_text(twist_minimal, n)}" for n in range(1, 14)]
    lines += [f"ozawa {n} {pd_text(ozawa_twist, n)}" for n in range(1, 14)]
    for p, q in itertools.product(range(1, 9), repeat=2):
        try:
            lines.append(f"rational {p} {q} {pd_text(rational_pq, p, q)}")
        except NotAKnot as exc:
            lines.append(f"rational {p} {q} NotAKnot: {exc}")
    assert lines[0] == "twist 1 X(2,6,3,5) X(4,2,5,1) X(6,4,1,3)"
    assert lines[26] == "rational 1 1 NotAKnot: closure has more than one component"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "6c84bee7d2a8e49d949b5bf5c534f9a9819903b9f1ec75f9ed921250cb62665a"


def test_family_pd_text_reads_back_as_the_gauss_builders_code():
    assert len(FAMILY_CASES) == 74
    # PD text is written from the builder's own anchor, and pd_to_gauss
    # starts at the first under-visit
    for build, params in FAMILY_CASES:
        code = build(*params)
        assert pd_to_gauss(gauss_to_pd(code)) == first_under(code), params


# ---------------------------------------------------------------------------
# the Gauss-to-PD writer
# ---------------------------------------------------------------------------

def first_under(code):
    """Where ``pd_to_gauss`` of the writer's PD code starts its trace."""
    return rotate(code, code.overs.index(False))


def test_the_writer_numbers_each_edge_by_the_visit_it_enters():
    # edge v + 1 enters visit v; crossing 2 is under at visit 1 and over
    # at visit 4, positive: (in 1, out 4, out 1, in 4)
    assert serialize(gauss_to_pd(parse_gauss(TREFOIL))) == \
        "X(2,6,3,5) X(4,2,5,1) X(6,4,1,3)"
    # the mirror swaps the roles and negates every sign
    assert serialize(gauss_to_pd(parse_gauss("O1-U2-O3-U1-O2-U3-"))) == \
        "X(2,5,3,6) X(4,1,5,2) X(6,3,1,4)"


def test_the_writer_round_trips_table_diagrams(table):
    diagrams = [d for entry in table
                for d in entry.minimal_diagrams + entry.extra_diagrams
                if d.crossings]
    assert len(diagrams) == 45
    for d in diagrams:
        assert pd_to_gauss(gauss_to_pd(d)) == first_under(d), serialize(d)


def test_the_writer_round_trips_classical_random_codes():
    classical = [code for code in random_codes(20000, 9, 5)
                 if is_classical(code)]
    assert len(classical) == 5059
    for code in classical:
        assert pd_to_gauss(gauss_to_pd(code)) == first_under(code), \
            serialize(code)


def test_convert_to_pd_reparses_to_the_same_code(capsys):
    assert main(["convert", TREFOIL, "--to", "pd"]) == 0
    out = capsys.readouterr().out
    assert out == "X(2,6,3,5) X(4,2,5,1) X(6,4,1,3)\n"
    assert serialize(pd_to_gauss(parse_pd(out))) == serialize(parse_gauss(TREFOIL))


@pytest.mark.parametrize("text, error, message", [
    ("O1U2O3U1O2U3", UnknownSigns, "PD output needs a sign at every crossing"),
    ("O1+O2+U1+U2+", NotClassical,
     "not a classical knot diagram: its faces do not make a sphere"),
    ("", StructureError, "the zero-crossing diagram has no PD code"),
], ids=("unsigned", "virtual", "empty"))
def test_the_writer_refuses_what_pd_text_cannot_hold(capsys, text, error,
                                                     message):
    with pytest.raises(error, match=f"^{message}$"):
        gauss_to_pd(parse_gauss(text))
    assert main(["convert", text, "--format", "gauss", "--to", "pd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
