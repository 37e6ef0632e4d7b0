"""Grammar, normalization and conversions of the three diagram notations."""

from __future__ import annotations

import json
import re
import time
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from warpdeg.codes import (
    _build_gauss,
    _split_words,
    DTCode,
    GaussCode,
    GaussToken,
    MINUS,
    PLUS,
    UNSIGNED,
    PDCode,
    canonical,
    detect_notation,
    dt_to_gauss,
    gauss_to_dt,
    parse_dt,
    parse_gauss,
    parse_pd,
    pd_to_gauss,
    serialize,
)
from warpdeg.errors import CodeSyntaxError, StructureError
from warpdeg.families import ozawa_twist, rational_pq, twist_minimal
from warpdeg.oracle import random_codes

TREFOIL = "O1+U2+O3+U1+O2+U3+"
MIRROR_TREFOIL = "O1-U2-O3-U1-O2-U3-"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"
TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


# ---------------------------------------------------------------------------
# Gauss grammar
# ---------------------------------------------------------------------------

def test_gauss_packed_and_spaced_forms_agree():
    spaced = parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+")
    commas = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
    packed = parse_gauss(TREFOIL)
    assert spaced == commas == packed


def test_gauss_is_case_insensitive():
    assert parse_gauss("o1+u2+o3+u1+o2+u3+") == parse_gauss(TREFOIL)


def test_gauss_comments_run_to_end_of_line():
    text = "# a trefoil\nO1+U2+O3+ # first half\nU1+O2+U3+"
    assert parse_gauss(text) == parse_gauss(TREFOIL)


def test_gauss_labels_renumbered_by_first_appearance():
    code = parse_gauss("O7 U9 O8 U7 O9 U8")
    assert [t.label for t in code.tokens] == [1, 2, 3, 1, 2, 3]


def test_gauss_sign_given_once_spreads_to_both_visits():
    code = parse_gauss("O1+U2O3U1O2U3")
    assert code.tokens[0].sign == PLUS
    assert code.tokens[3].sign == PLUS  # the other visit of crossing 1
    assert code.tokens[1].sign == UNSIGNED
    later = parse_gauss("O1U2O3U1-O2U3")  # given at the second visit only
    assert later.tokens[0].sign == later.tokens[3].sign == MINUS


def test_gauss_empty_input_is_the_zero_crossing_diagram():
    code = parse_gauss("")
    assert code.crossings == 0
    assert code.tokens == ()
    assert serialize(code) == ""


def test_gauss_token_render_round_trips():
    assert GaussToken(12, True, MINUS).render() == "O12-"
    assert GaussToken(3, False, UNSIGNED).render() == "U3"


@pytest.mark.parametrize("bad", ["Q1", "O1-x", "O", "1+", "O1+U2+%"])
def test_gauss_rejects_malformed_tokens(bad):
    with pytest.raises(CodeSyntaxError):
        parse_gauss(bad)


def test_gauss_rejects_label_seen_once():
    with pytest.raises(StructureError):
        parse_gauss("O1 U2 U1")


def test_gauss_rejects_label_seen_three_times():
    with pytest.raises(StructureError):
        parse_gauss("O1 U1 O1 U2 O2")


def test_gauss_rejects_same_role_at_both_visits():
    with pytest.raises(StructureError):
        parse_gauss("O1 O1")
    with pytest.raises(StructureError):
        parse_gauss("U1 U1")


def test_gauss_rejects_contradictory_signs():
    with pytest.raises(StructureError):
        parse_gauss("O1+U1-")


def test_gauss_single_kink_is_valid():
    code = parse_gauss("O1U1")
    assert code.crossings == 1


@pytest.mark.parametrize("text, message", [
    # faults are reported for the first faulty label in first-appearance
    # order; on one label the count comes first, then roles, then signs
    ("O5O5U5O7O7", "crossing 5 appears 3 time(s), expected 2"),
    ("O7O7O5", "crossing 7 is over at both visits"),
    ("U3+U3-", "crossing 3 is under at both visits"),
    ("O2+U2-O4", "crossing 2 has contradictory signs"),
    ("O4O2+U2-", "crossing 4 appears 1 time(s), expected 2"),
    ("O2+U2-O2+", "crossing 2 appears 3 time(s), expected 2"),
    ("O1+U1O2-U2+U9U9", "crossing 2 has contradictory signs"),
])
def test_gauss_reports_the_first_fault(text, message):
    with pytest.raises(StructureError) as info:
        parse_gauss(text)
    assert str(info.value) == message


_GAUSS_WORD = re.compile(r"[OoUu]\d+[+-]?")


def reference_parse_gauss(text: str) -> GaussCode:
    """Gauss parsing word by word, one regex match per token."""
    raw = []
    for word in _split_words(text):
        # words may pack several tokens: O1+U2+O3+...
        pos = 0
        while pos < len(word):
            match = _GAUSS_WORD.match(word, pos)
            if match is None:
                raise CodeSyntaxError(f"bad Gauss token at {word[pos:]!r}")
            tok = match.group(0)
            over = tok[0] in "Oo"
            if tok[-1] in "+-":
                sign = PLUS if tok[-1] == "+" else MINUS
                label = int(tok[1:-1])
            else:
                sign = UNSIGNED
                label = int(tok[1:])
            raw.append((label, over, sign))
            pos = match.end()
    return _build_gauss(raw)


def _outcome(parse, text: str):
    """The parsed tokens, or the type and message of the error raised."""
    try:
        return parse(text).tokens
    except (CodeSyntaxError, StructureError) as exc:
        return type(exc), str(exc)


_gauss_tokens = st.builds(
    "{}{}{}".format,
    st.sampled_from("OoUu"),
    st.sampled_from(["1", "2", "3", "12", "٣", "१", "0"]),
    st.sampled_from(["", "+", "-"]),
)
_gauss_noise = st.sampled_from([
    " ", ",", "\t", "\n", "\r\n", "\r", "\u00a0", "  ,\n",
    "# note\n", "#O1 x\n", "#",
    "+", "-", "x", "Q", "é", "²", "٣", "7", "O", "U",
])


@given(st.lists(st.one_of(_gauss_tokens, _gauss_noise), max_size=12).map("".join))
def test_gauss_parse_matches_the_per_word_reference(text):
    assert _outcome(parse_gauss, text) == _outcome(reference_parse_gauss, text)


@pytest.mark.parametrize("text, message", [
    ("O1 2", "bad Gauss token at '2'"),
    ("O1+-U2", "bad Gauss token at '-U2'"),
    ("O1U1 x", "bad Gauss token at 'x'"),
    ("O1U1 xO2,U2", "bad Gauss token at 'xO2'"),
    ("O1,,U1", None),
    ("O1U1 ,", None),
    (" O1U1,\n", None),
    ("O1U1,\t # tail", None),
])
def test_gauss_syntax_errors_name_the_rest_of_the_word(text, message):
    outcome = _outcome(parse_gauss, text)
    assert outcome == _outcome(reference_parse_gauss, text)
    if message is None:
        assert outcome == parse_gauss("O1U1").tokens
    else:
        assert outcome == (CodeSyntaxError, message)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_is_invariant_under_rotation():
    base = parse_gauss(TREFOIL)
    for shift in range(len(base.tokens)):
        rotated = base.tokens[shift:] + base.tokens[:shift]
        text = "".join(t.render() for t in rotated)
        assert serialize(parse_gauss(text)) == TREFOIL


def test_canonical_is_idempotent():
    code = parse_gauss("U3-O1+U2-O3-U1+O2-")
    once = canonical(code)
    assert canonical(once) == once


def test_serialize_then_parse_is_canonical():
    code = parse_gauss("U1O2U3O1U2O3")
    assert parse_gauss(serialize(code)) == canonical(code)


def test_canonical_prefers_over_visits_first():
    # any rotation starting at an O token beats one starting at U
    assert serialize(parse_gauss("U1O2U3O1U2O3")).startswith("O")


_SIGN_RANK = {PLUS: 0, MINUS: 1, UNSIGNED: 2}


def _anchored_key(tokens, shift: int) -> tuple:
    """Comparison key of the rotation starting at ``shift``, relabelled.

    The least key over all shifts was the canonical anchor before the
    symbol word; it is kept as the reference for the classes.
    """
    n = len(tokens)
    relabel: dict[int, int] = {}
    key = []
    for i in range(n):
        tok = tokens[(shift + i) % n]
        if tok.label not in relabel:
            relabel[tok.label] = len(relabel) + 1
        # token order: O before U, then label, then sign (+ before - before none)
        key.append((0 if tok.over else 1, relabel[tok.label],
                    _SIGN_RANK[tok.sign]))
    return tuple(key)


def anchored_form(code: GaussCode) -> tuple:
    """The least relabelled rotation: one value per class of codes."""
    return min((_anchored_key(code.tokens, s) for s in range(len(code.tokens))),
               default=())


def symbol_word(tokens) -> list[tuple[int, int, int]]:
    """(role, forward distance to the partner visit, sign rank) per visit."""
    n = len(tokens)
    visits: dict[int, list[int]] = {}
    for p, tok in enumerate(tokens):
        visits.setdefault(tok.label, []).append(p)
    word = []
    for p, tok in enumerate(tokens):
        first, second = visits[tok.label]
        partner = second if p == first else first
        word.append((0 if tok.over else 1, (partner - p) % n,
                     _SIGN_RANK[tok.sign]))
    return word


def reference_canonical(code: GaussCode) -> GaussCode:
    """The least rotation of the symbol word, found by comparing all 2c."""
    n = len(code.tokens)
    if n == 0:
        return code
    word = symbol_word(code.tokens)
    best = min(range(n), key=lambda s: word[s:] + word[:s])
    rotated = code.tokens[best:] + code.tokens[:best]
    return parse_gauss("".join(t.render() for t in rotated))


@st.composite
def codes(draw, signs):
    c = draw(st.integers(min_value=0, max_value=10))
    slots = draw(st.permutations(range(2 * c)))
    visits: list = [None] * (2 * c)
    for label in range(1, c + 1):
        over = draw(st.booleans())
        sign = draw(st.sampled_from(signs))
        visits[slots[2 * label - 2]] = GaussToken(label, over, sign)
        visits[slots[2 * label - 1]] = GaussToken(label, not over, sign)
    return parse_gauss("".join(t.render() for t in visits))


ANY_CODE = st.one_of(codes((PLUS, MINUS)), codes((UNSIGNED,)),
                     codes((PLUS, MINUS, UNSIGNED)))


@given(ANY_CODE)
def test_canonical_is_the_least_rotation_of_the_symbol_word(code):
    assert canonical(code) == reference_canonical(code)


@st.composite
def code_pairs(draw):
    """A code and a rotation of it, perhaps with one crossing's roles or
    sign changed, so that equal and unequal classes are both drawn often."""
    code = draw(ANY_CODE)
    tokens = code.tokens
    shift = draw(st.integers(min_value=0, max_value=max(len(tokens) - 1, 0)))
    other = tokens[shift:] + tokens[:shift]
    if other and draw(st.booleans()):
        label = draw(st.integers(min_value=1, max_value=code.crossings))
        swap = draw(st.booleans())
        sign = draw(st.sampled_from((PLUS, MINUS, UNSIGNED)))
        other = tuple(GaussToken(label, t.over != swap, sign)
                      if t.label == label else t for t in other)
    return code, parse_gauss("".join(t.render() for t in other))


@given(code_pairs())
def test_canonical_classes_are_the_anchored_key_classes(pair):
    a, b = pair
    assert (canonical(a) == canonical(b)) == (anchored_form(a) == anchored_form(b))


def _strip_signs(code: GaussCode, keep) -> GaussCode:
    return parse_gauss("".join(
        GaussToken(t.label, t.over, t.sign if keep(t.label) else UNSIGNED).render()
        for t in code.tokens
    ))


def test_canonical_splits_fixed_codes_into_the_anchored_key_classes():
    signed = random_codes(1000, 7, 11)
    pool = signed + [_strip_signs(code, lambda label: False) for code in signed]
    pool += [_strip_signs(code, lambda label: label % 2) for code in signed]
    pool += [parse_gauss(text) for text in _table_gauss_codes()]
    pool += [twist_minimal(n) for n in range(1, 30)]
    pool += [ozawa_twist(n) for n in range(1, 10)]
    pairs = {(serialize(code), anchored_form(code)) for code in pool}
    assert len({new for new, _ in pairs}) == len(pairs)
    assert len({old for _, old in pairs}) == len(pairs)
    assert len(pairs) < len(pool)  # the pool does hold equal classes


def _rotations(code: GaussCode) -> list[GaussCode]:
    tokens = code.tokens
    return [
        parse_gauss("".join(t.render() for t in tokens[s:] + tokens[:s]))
        for s in range(len(tokens))
    ]


def _torus_code(c: int) -> GaussCode:
    """The (2, c) torus diagram: visits 1..c twice, alternating O and U."""
    return parse_gauss("".join(
        f"{'O' if i % 2 == 0 else 'U'}{i % c + 1}+" for i in range(2 * c)
    ))


def _connected_sum(*texts: str) -> GaussCode:
    """The Gauss codes one after another, each with its own labels."""
    tokens: list[GaussToken] = []
    for text in texts:
        base = len(tokens) // 2
        tokens += [t._replace(label=t.label + base)
                   for t in parse_gauss(text).tokens]
    return parse_gauss("".join(t.render() for t in tokens))


@pytest.mark.parametrize("code", [
    *(pytest.param(twist_minimal(n), id=f"twist{n}")
      for n in range(1, 12)),
    *(pytest.param(ozawa_twist(n), id=f"ozawa{n}")
      for n in range(2, 7)),
    pytest.param(_torus_code(31), id="torus31"),
    # equal summands make rotations that agree on more than half the word
    pytest.param(_connected_sum(FIGURE8, FIGURE8, FIGURE8, MIRROR_TREFOIL),
                 id="3x4_1#3_1"),
    pytest.param(_connected_sum(*[TREFOIL] * 5, FIGURE8), id="5x3_1#4_1"),
])
def test_canonical_of_every_rotation_matches_the_reference(code):
    want = reference_canonical(code)
    assert want.tokens[0].over
    for rotated in _rotations(code):
        assert canonical(rotated) == want
    assert canonical(want) == want


@pytest.mark.parametrize("code", [
    pytest.param(twist_minimal(4000), id="twist4000"),
    pytest.param(ozawa_twist(2000), id="ozawa2000"),
    pytest.param(rational_pq(2, 2000), id="rational2-2000"),
])
def test_serialize_is_linear_on_long_twist_regions(code):
    # each took 0.5-1.9 s with a quadratic anchor search; about 20 ms now
    start = time.perf_counter()
    serialize(code)
    assert time.perf_counter() - start < 0.5


def _table_gauss_codes() -> list[str]:
    text = resources.files("warpdeg").joinpath("data/knots.tbl").read_text(
        encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()
               if line.strip() and not line.startswith("#")]
    return [code for record in records[1:]
            for code in record["minimal"] + record.get("extra", [])]


def test_the_table_holds_46_gauss_codes():
    assert len(_table_gauss_codes()) == 46


@pytest.mark.parametrize("text", _table_gauss_codes())
def test_table_codes_are_canonical_fixed_points(text):
    assert serialize(parse_gauss(text)) == text


# ---------------------------------------------------------------------------
# DT codes
# ---------------------------------------------------------------------------

def test_dt_parses_signed_entries():
    code = parse_dt("4 -6, 2")
    assert code == DTCode((4, -6, 2))
    assert code.crossings == 3


def test_dt_empty_input_is_the_zero_crossing_diagram():
    assert parse_dt("").crossings == 0


@pytest.mark.parametrize("bad", ["4 6 3", "0", "x", "4.5", "4 6 2 -"])
def test_dt_rejects_non_even_entries(bad):
    with pytest.raises(CodeSyntaxError):
        parse_dt(bad)


@pytest.mark.parametrize("bad", ["4 6", "4 4 2", "2 4 8"])
def test_dt_rejects_non_permutations(bad):
    with pytest.raises(StructureError):
        parse_dt(bad)


def test_dt_expansion_has_no_signs():
    code = dt_to_gauss(parse_dt("4 6 2"))
    assert serialize(code) == "O1U2O3U1O2U3"
    assert all(t.sign == UNSIGNED for t in code.tokens)


def test_dt_abbreviation_of_the_trefoil():
    assert gauss_to_dt(parse_gauss(TREFOIL)) == DTCode((4, 6, 2))


def test_dt_negative_entries_put_the_overpass_on_the_even_visit():
    code = dt_to_gauss(parse_dt("-4 -6 -2"))
    assert serialize(code).startswith("O")  # canonical anchor, same shadow
    assert gauss_to_dt(code) == DTCode((-4, -6, -2))


@pytest.mark.parametrize("text", ["4 6 2", "-6 -8 -2 -4", "4 8 -10 2 -6"])
def test_dt_round_trips_through_gauss(text):
    dt = parse_dt(text)
    assert gauss_to_dt(dt_to_gauss(dt)) == dt


def test_dt_cannot_express_equal_parity_visits():
    # both visits of each crossing at odd distance: fine for Gauss, not DT
    with pytest.raises(StructureError):
        gauss_to_dt(parse_gauss("O1U2U1O2"))


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

def test_pd_x_form_and_bracket_form_agree():
    assert parse_pd(TREFOIL_PD) == parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")


def test_pd_is_whitespace_and_case_tolerant():
    assert parse_pd("x( 1 ,4,2,5)  X(3,6,4,1)\nX(5,2,6,3)") == parse_pd(TREFOIL_PD)


def test_pd_quads_are_stored_sorted():
    shuffled = parse_pd("X(5,2,6,3) X(1,4,2,5) X(3,6,4,1)")
    assert shuffled == parse_pd(TREFOIL_PD)
    assert serialize(shuffled) == TREFOIL_PD


@pytest.mark.parametrize("bad", ["", "   ", "# only a comment"])
def test_pd_rejects_empty_input(bad):
    with pytest.raises(StructureError):
        parse_pd(bad)


@pytest.mark.parametrize("bad", ["X(1,2,3)", "hello", "X(1,4,2,5) junk"])
def test_pd_rejects_unparsable_text(bad):
    with pytest.raises(CodeSyntaxError):
        parse_pd(bad)


def test_pd_rejects_bad_edge_multiset():
    with pytest.raises(StructureError):
        parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,4)")


def test_pd_trace_of_the_trefoil():
    code = pd_to_gauss(parse_pd(TREFOIL_PD))
    assert serialize(code) == "O1-U2-O3-U1-O2-U3-"


def test_pd_trace_of_the_figure_eight():
    code = pd_to_gauss(parse_pd(FIGURE8_PD))
    assert serialize(code) == "O1+U2-O3-U1+O4+U3-O2-U4+"


def test_pd_trace_recovers_every_sign():
    code = pd_to_gauss(parse_pd(TREFOIL_PD))
    assert all(t.sign == MINUS for t in code.tokens)


def test_pd_single_kink_traces_to_a_one_crossing_code():
    assert pd_to_gauss(parse_pd("X(1,2,2,1)")).crossings == 1


def test_pd_rejects_a_two_component_link():
    with pytest.raises(StructureError):
        pd_to_gauss(parse_pd("X(1,4,2,3) X(3,2,4,1)"))


def test_pd_rejects_inconsistent_strand_orientations():
    # last quad rotated by two: its under-strand runs backwards
    with pytest.raises(StructureError):
        pd_to_gauss(parse_pd("X(1,4,2,5) X(3,6,4,1) X(6,3,5,2)"))


# ---------------------------------------------------------------------------
# serialization and detection
# ---------------------------------------------------------------------------

def test_serialize_dt():
    assert serialize(DTCode((4, -6, 2))) == "4 -6 2"


def test_serialize_rejects_other_types():
    with pytest.raises(TypeError):
        serialize("O1U1")  # type: ignore[arg-type]


def test_serialized_forms_reparse_to_equal_values():
    for text, parser in [
        (TREFOIL, parse_gauss),
        ("4 6 -2 8", parse_dt),
        (TREFOIL_PD, parse_pd),
    ]:
        code = parser(text)
        assert parser(serialize(code)) == code


@pytest.mark.parametrize("text,kind", [
    ("", "gauss"),
    ("O1+U2+O3+U1+O2+U3+", "gauss"),
    ("u3 o1 u1 o3", "gauss"),
    (TREFOIL_PD, "pd"),
    ("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]", "pd"),
    ("4 6 2", "dt"),
    ("-4, -6, -2", "dt"),
])
def test_detect_notation(text, kind):
    assert detect_notation(text) == kind


@pytest.mark.parametrize("bad", ["?", "notation", "t^2 - t + 1"])
def test_detect_notation_rejects_unknown_text(bad):
    with pytest.raises(CodeSyntaxError):
        detect_notation(bad)


def test_crossing_counts():
    assert parse_gauss(TREFOIL).crossings == 3
    assert parse_dt("4 6 8 2").crossings == 4
    assert parse_pd(TREFOIL_PD).crossings == 3


def test_codes_are_immutable_values_equal_only_to_their_own_class():
    import copy
    import pickle

    code, same = parse_gauss(TREFOIL), parse_gauss(TREFOIL)
    assert code == same and hash(code) == hash(same) and code is not same
    assert code != parse_gauss(FIGURE8)
    assert DTCode((4, 6, 2)) == DTCode(evens=(4, 6, 2))
    assert DTCode((4, 6, 2)) != (4, 6, 2) and code != code.tokens
    assert repr(DTCode((4, 6, 2))) == "DTCode(evens=(4, 6, 2))"
    for mutate in (lambda: setattr(code, "tokens", ()),
                   lambda: delattr(code, "tokens"),
                   lambda: setattr(code, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert code.tokens == same.tokens
    assert pickle.loads(pickle.dumps(code)) == code == copy.deepcopy(code)
