"""Grammar, normalization and conversions of the three diagram notations."""

from __future__ import annotations

import importlib
import json
import pkgutil
import random
import re
import sys
import time
import tracemalloc
import typing
from importlib import resources

import pytest
from hypothesis import given, strategies as st

import warpdeg
from warpdeg import codes as codes_module
from warpdeg.codes import (
    _build_gauss,
    DTCode,
    GaussCode,
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
    serialize,
)
from warpdeg.bracket import pd_to_gauss
from warpdeg.diagram import reverse
from warpdeg.errors import CodeSyntaxError, NotClassical, StructureError
from warpdeg.warping import (
    is_monotone,
    profile,
    summary,
    warping_degree,
    warping_polynomial,
)
from warpdeg.families import ozawa_twist, rational_pq, twist_minimal
from warpdeg.oracle import random_codes

TREFOIL = "O1+U2+O3+U1+O2+U3+"
MIRROR_TREFOIL = "O1-U2-O3-U1-O2-U3-"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"
TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
MARK = {PLUS: "+", MINUS: "-", UNSIGNED: ""}


def visits_of(code: GaussCode) -> list[tuple[int, bool, int]]:
    """The (label, over, sign) visits of a code, in travel order."""
    return list(zip(code.labels, code.overs, code.signs))


def gauss_text(visits) -> str:
    """Packed Gauss text of (label, over, sign) visits, e.g. ``O12-U3``."""
    return "".join(f"{'O' if over else 'U'}{label}{MARK[sign]}"
                   for label, over, sign in visits)


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
    assert list(code.labels) == [1, 2, 3, 1, 2, 3]


def test_gauss_sign_given_once_spreads_to_both_visits():
    code = parse_gauss("O1+U2O3U1O2U3")
    assert code.signs[0] == PLUS
    assert code.signs[3] == PLUS  # the other visit of crossing 1
    assert code.signs[1] == UNSIGNED
    later = parse_gauss("O1U2O3U1-O2U3")  # given at the second visit only
    assert later.signs[0] == later.signs[3] == MINUS


def test_gauss_empty_input_is_the_zero_crossing_diagram():
    code = parse_gauss("")
    assert code.crossings == 0
    assert code.labels == code.overs == code.signs == ()
    assert serialize(code) == ""


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


def _seeded_text(crossings: int = 10_000) -> str:
    """Packed text of a seeded random signed code, 10⁴ crossings by default."""
    rng = random.Random(16)
    slots = list(range(2 * crossings))
    rng.shuffle(slots)
    visits: list = [None] * (2 * crossings)
    for label in range(1, crossings + 1):
        over, sign = rng.random() < 0.5, rng.choice((PLUS, MINUS))
        visits[slots[2 * label - 2]] = (label, over, sign)
        visits[slots[2 * label - 1]] = (label, not over, sign)
    return gauss_text(visits)


def test_a_parsed_code_holds_no_object_per_visit():
    # three columns of 2c entries; one object per visit held 1.87 MB here
    text = _seeded_text()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = parse_gauss(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code.crossings == 10_000
    assert held < 1_000_000


def test_parsing_builds_no_column_of_all_visits_on_the_way():
    # the visits reach _build_gauss a chunk at a time: the peak read
    # 2.36 MB here, and listing all visits before _build_gauss read 3.86 MB
    text = _seeded_text()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = parse_gauss(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code.crossings == 10_000
    assert peak < 2_600_000


def _peak_of(make, arg) -> int:
    """The tracemalloc peak of ``make(arg)`` above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        make(arg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reverse_and_canonical_renumber_through_no_dict_of_all_labels():
    # with a dict from old to new label the peaks read 1.10 MB for
    # reverse and 1.53 MB for canonical; a list of c + 1 slots, 0.88 and 1.31
    code = parse_gauss(_seeded_text())
    assert _peak_of(reverse, code) < 950_000
    assert _peak_of(canonical, code) < 1_400_000


def test_type_hints_resolve():
    # a hint naming a type the module does not import fails only here, and
    # code moved between modules is checked in its new home
    for info in pkgutil.iter_modules(warpdeg.__path__):
        module = importlib.import_module(f"warpdeg.{info.name}")
        names = [*getattr(module, "__all__", ())]
        names += ["read_lines"] if info.name == "errors" else []
        for name in names:
            value = getattr(module, name)
            if callable(value):
                typing.get_type_hints(value)
                if isinstance(value, type):
                    typing.get_type_hints(value.__init__)


def test_parsing_frees_its_scratch_before_building_the_columns():
    # at c = 5·10⁴ the peak read 11.5 MB while the per-label scratch and
    # every list stayed alive until the end; freed early, 9.3 MB
    text = _seeded_text(50_000)
    assert _peak_of(parse_gauss, text) < 10_000_000


def test_parsing_numbers_crossings_through_a_list_indexed_by_label():
    # through a dict of raw labels the peaks read 9.26 MB at c = 5·10⁴ and
    # 2.19 MB at c = 10⁴; through a list indexed by label, 5.85 and 1.83 MB
    assert _peak_of(parse_gauss, _seeded_text(50_000)) < 7_000_000
    assert _peak_of(parse_gauss, _seeded_text()) < 2_000_000
    # no table is sized by a label beyond what the text's length bounds
    assert _peak_of(parse_gauss, "O99999999999U99999999999") < 100_000
    assert _peak_of(parse_gauss, "O99999U99999") < 100_000


def test_summary_holds_one_profile_at_a_time():
    # with the reverse profile built as a tuple next to the forward one
    # and the reversed diagram, the peak read 2.57 MB; streamed, 0.97 MB,
    # as for profile alone
    code = parse_gauss(_seeded_text())
    assert _peak_of(summary, code) < 1_100_000


@pytest.mark.parametrize("walk, limit", [
    (warping_degree, 50_000), (is_monotone, 50_000), (warping_polynomial, 250_000),
], ids=["warping_degree", "is_monotone", "warping_polynomial"])
def test_the_degree_readers_hold_no_profile(walk, limit):
    # read from the whole profile tuple, each peaked at 0.93 MB here;
    # streamed, warping_degree held nothing and warping_polynomial 0.15 MB,
    # its list of coefficients
    code = parse_gauss(_seeded_text())
    assert _peak_of(walk, code) < limit


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
    body = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    for word in filter(None, re.split(r"[\s,]+", body)):
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
    return reference_build_gauss(raw)


def reference_build_gauss(raw) -> GaussCode:
    """Normalization through a dict of raw labels, checked label by label.

    Labels equal as dict keys are one crossing, named by the first of
    them; faults are reported for the first faulty label in
    first-appearance order, count before roles before signs.
    """
    raw = list(raw)
    where: dict = {}  # label -> positions of its visits
    for p, (label, _, _) in enumerate(raw):
        where.setdefault(label, []).append(p)
    for label, ps in where.items():
        if len(ps) != 2:
            raise StructureError(
                f"crossing {label} appears {len(ps)} time(s), expected 2")
        (_, over, s), (_, again, t) = raw[ps[0]], raw[ps[1]]
        if over == again:
            way = "over" if over else "under"
            raise StructureError(f"crossing {label} is {way} at both visits")
        if s and t and s != t:
            raise StructureError(f"crossing {label} has contradictory signs")
    number = {label: k for k, label in enumerate(where, 1)}
    sign = {label: raw[ps[0]][2] or raw[ps[1]][2] for label, ps in where.items()}
    return GaussCode._of(tuple(number[label] for label, _, _ in raw),
                         tuple(over for _, over, _ in raw),
                         tuple(sign[label] for label, _, _ in raw))


def _outcome(parse, text: str):
    """The parsed visits, or the type and message of the error raised."""
    try:
        return visits_of(parse(text))
    except (CodeSyntaxError, StructureError) as exc:
        return type(exc), str(exc)


_gauss_tokens = st.builds(
    "{}{}{}".format,
    st.sampled_from("OoUu"),
    st.sampled_from(["1", "2", "3", "12", "٣", "१", "0"]),
    st.sampled_from(["", "+", "-"]),
)
_gauss_noise = st.sampled_from([
    " ", ",", "\t", "\n", "\r\n", "\r", "\v", "\x85", "\u2028", "\x1c",
    "\u00a0", "  ,\n",
    "# note\n", "#O1 x\n", "#",
    "+", "-", "x", "Q", "é", "²", "٣", "7", "O", "U",
])


_gauss_texts = st.lists(st.one_of(_gauss_tokens, _gauss_noise), max_size=12).map("".join)


@given(_gauss_texts)
def test_gauss_parse_matches_the_per_word_reference(text):
    assert _outcome(parse_gauss, text) == _outcome(reference_parse_gauss, text)


# every character at which str.splitlines ends a line
LINE_BREAKS = "".join(c for c in map(chr, range(0x110000))
                      if len(f"a{c}b".splitlines()) == 2)


def test_the_parsers_line_breaks_are_those_of_splitlines():
    assert set(codes_module._LINE_BREAKS) == set(LINE_BREAKS)


@given(st.text(alphabet="OU0123456789+-, #" + LINE_BREAKS, max_size=40))
def test_strip_comments_is_the_full_pass_and_keeps_clean_text(text):
    stripped = codes_module._strip_comments(text)
    expected = ""
    for line in text.splitlines(keepends=True):
        body = line.splitlines()[0]  # the line without its line end
        expected += body.split("#", 1)[0] + line[len(body):]
    assert stripped == expected
    if "#" not in text:
        assert stripped is text


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@given(text=_gauss_texts)
def test_gauss_parse_is_the_same_in_small_chunks(chunk, text):
    # a chunk ends just before an O or U, wherever it falls in a word
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes_module, "_CHUNK", chunk)
        assert _outcome(parse_gauss, text) == _outcome(reference_parse_gauss, text)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 15])
@pytest.mark.parametrize("text, message", [
    # the word is named whole, wherever a chunk ends within it
    ("O1U1xO2U2", "bad Gauss token at 'xO2U2'"),
    # a syntax error wins over a structural fault that comes before it
    ("O5O5U5 O1U1 x", "bad Gauss token at 'x'"),
])
def test_gauss_syntax_errors_do_not_depend_on_chunks(monkeypatch, chunk, text,
                                                      message):
    monkeypatch.setattr(codes_module, "_CHUNK", chunk)
    with pytest.raises(CodeSyntaxError) as info:
        parse_gauss(text)
    assert str(info.value) == message


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
        assert outcome == visits_of(parse_gauss("O1U1"))
    else:
        assert outcome == (CodeSyntaxError, message)


def _built(build, *args):
    """The normalized visits, or the type and message of the error raised."""
    try:
        return visits_of(build(*args))
    except StructureError as exc:
        return type(exc), str(exc)


@st.composite
def _visit_lists(draw, labels):
    """Visits of a few crossings, valid or with faults of every kind.

    A label drawn twice is two crossings that merge into one of four
    visits.  Each fault drops, repeats, flips the role or flips the
    sign of one visit.
    """
    visits = []
    for label in draw(st.lists(labels, max_size=6)):
        over = draw(st.booleans())
        s = draw(st.sampled_from((PLUS, MINUS, UNSIGNED)))
        visits += [(label, over, s),
                   (label, not over, draw(st.sampled_from((s, UNSIGNED))))]
    visits = draw(st.permutations(visits))
    for fault in draw(st.lists(st.sampled_from("drop again role sign"), max_size=2)):
        if not visits:
            break
        i = draw(st.integers(0, len(visits) - 1))
        label, over, s = visits[i]
        if fault == "drop":
            del visits[i]
        elif fault == "again":
            visits.insert(draw(st.integers(0, len(visits))), visits[i])
        elif fault == "role":
            visits[i] = (label, not over, s)
        else:
            visits[i] = (label, over, -s if s else PLUS)
    return visits


# dense labels, label 0, labels past the first 64 slots, and huge ones
_int_labels = st.one_of(st.integers(0, 9), st.integers(60, 200),
                        st.sampled_from([10**11, 10**11 + 1, 2**64]))
_OTHER_DIGITS = [str.maketrans("0123456789", digits)
                 for digits in ("٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")]


@st.composite
def _labelled_texts(draw):
    """Gauss text of such visits: labels spelled with leading zeros or in
    other scripts' digits, maybe one noise item, maybe trailing blanks
    (which raise the bound on the labels the parser's list may hold)."""
    words = []
    for label, over, s in draw(_visit_lists(_int_labels)):
        digits = str(label)
        spelling = draw(st.integers(0, 1 + len(_OTHER_DIGITS)))
        if spelling == 1:
            digits = "00" + digits
        elif spelling > 1:
            digits = digits.translate(_OTHER_DIGITS[spelling - 2])
        role = draw(st.sampled_from("Oo" if over else "Uu"))
        words += [role, digits, MARK[s], draw(st.sampled_from(["", " ", ","]))]
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(_gauss_noise))
    return "".join(words) + " " * draw(st.sampled_from([0, 300, 1200]))


@given(_labelled_texts())
def test_gauss_parse_numbers_labels_as_the_dict_reference(text):
    assert _outcome(parse_gauss, text) == _outcome(reference_parse_gauss, text)


def _watched(visits, lists):
    """The visits, noting before each and at the end the length of the
    list, if any, that ``_build_gauss`` iterating them numbers crossings
    through (-1 while it uses a dict)."""
    for visit in visits:
        lists.append(_list_length(sys._getframe(1).f_locals["index"]))
        yield visit
    lists.append(_list_length(sys._getframe(1).f_locals["index"]))


def _list_length(table) -> int:
    return len(table) if isinstance(table, list) else -1


@given(_visit_lists(_int_labels), st.integers(-1, 400))
def test_build_gauss_numbers_labels_as_the_dict_reference(visits, limit):
    lengths = []
    outcome = _built(_build_gauss, _watched(visits, lengths), limit)
    assert outcome == _built(reference_build_gauss, visits)
    # no list the labels are numbered through outgrows limit + 1 slots
    assert max(lengths) <= limit + 1


class _Column:
    """A column of a known length whose items come from an iterator."""

    def __init__(self, items, length):
        self.items, self.length = items, length

    def __len__(self):
        return self.length

    def __iter__(self):
        return self.items


# labels the constructor takes as any dict would: True, 1 and 1.0 are one
_EQUAL_KEYS = {1: (1, True, 1.0), 0: (0, False, 0.0)}
_any_labels = st.sampled_from([-3, -1, 0, 1, 2, 70, -(10**12), "a", "1", "01"])


@given(_visit_lists(_any_labels), st.data())
def test_the_constructor_numbers_labels_as_the_dict_reference(visits, data):
    visits = [(data.draw(st.sampled_from(_EQUAL_KEYS.get(label, (label,)))), over, s)
              for label, over, s in visits]
    columns = [list(column) for column in zip(*visits)] or [[], [], []]
    assert _built(GaussCode, *columns) == _built(reference_build_gauss, visits)
    # no constructor label, negative ones included, ever indexes a list
    lengths = []
    _built(GaussCode, _Column(_watched(columns[0], lengths), len(columns[0])),
           *columns[1:])
    assert set(lengths) <= {-1}


def test_the_constructor_keeps_the_first_of_equal_labels_in_messages():
    assert _built(GaussCode, (True, 1, 1.0), (True, False, True), (0, 0, 0)) == \
        (StructureError, "crossing True appears 3 time(s), expected 2")
    assert _built(GaussCode, (-1, "x", -1, "x"), (True, True, False, True),
                  (0, 0, 0, 0)) == (StructureError, "crossing x is over at both visits")
    assert GaussCode((-5, 1.0, -5, True), (True, False, False, True),
                     (PLUS, 0, 0, MINUS)) == parse_gauss("O1+U2U1O2-")


def test_the_constructor_normalizes_as_the_parser_does():
    code = GaussCode((2, 1, 2, 1), (False, False, True, True), (0, 0, 0, 0))
    assert code == parse_gauss("U2U1O2O1")
    assert profile(code) == (2, 1, 0, 1)
    renumbered = GaussCode((5, 9, 5, 9), (True, True, False, False),
                           (PLUS, UNSIGNED, UNSIGNED, MINUS))
    assert renumbered == parse_gauss("O5+O9U5U9-")
    assert renumbered.labels == (1, 2, 1, 2)
    assert renumbered.signs == (PLUS, MINUS, PLUS, MINUS)


def test_the_constructor_stores_list_columns_as_tuples():
    code = GaussCode([1, 1], [True, False], [PLUS, UNSIGNED])
    assert (code.labels, code.overs, code.signs) == ((1, 1), (True, False),
                                                     (PLUS, PLUS))
    assert code == parse_gauss("O1+U1")


@pytest.mark.parametrize("text, message", [
    ("O7O7O5", "crossing 7 is over at both visits"),
    ("O1O1", "crossing 1 is over at both visits"),
    ("O5O5U5O7O7", "crossing 5 appears 3 time(s), expected 2"),
    ("O1+U2+O3+U1+O2-U3+", "crossing 2 has contradictory signs"),
])
def test_the_constructor_raises_what_the_parser_raises(text, message):
    visits = [(int(m[2]), m[1] == "O", {"+": PLUS, "-": MINUS, "": UNSIGNED}[m[3]])
              for m in re.finditer(r"([OU])(\d+)([+-]?)", text)]
    with pytest.raises(StructureError) as parsed:
        parse_gauss(text)
    with pytest.raises(StructureError) as built:
        GaussCode(*zip(*visits))
    assert str(built.value) == str(parsed.value) == message


@pytest.mark.parametrize("columns, message", [
    (((1, 1), (True,), (0, 0)),
     "columns of 2 labels, 1 roles and 2 signs; expected one length"),
    (((1, 1), (True, False), (0, 2)), "sign 2 is not PLUS, MINUS or UNSIGNED"),
    # past the constructor, such a role would surface in profile or
    # summary as an IndexError or TypeError, not as a WarpingError
    (((1, 1), (2, 0), (1, 1)), "role 2 is not True or False"),
    (((1, 1), ("O", ""), (1, 1)), "role 'O' is not True or False"),
    (((1, 1), (True, None), (1, 1)), "role None is not True or False"),
    # equal to a bool or an int is not enough: each would surface later
    # as a TypeError, in profile for a float role, in serialize for a
    # float sign; an int role is refused as well
    (((1, 2, 3, 1, 2, 3), (1.0, 0.0) * 3, (1,) * 6),
     "role 1.0 is not True or False"),
    (((1, 1), (1, 0), (1, 1)), "role 1 is not True or False"),
    (((1, 1), (True, False), (1.0, 1)), "sign 1.0 is not PLUS, MINUS or UNSIGNED"),
    (((1, 1), (True, False), (True, True)),
     "sign True is not PLUS, MINUS or UNSIGNED"),
])
def test_the_constructor_rejects_columns_no_parser_could_give(columns, message):
    with pytest.raises(StructureError) as info:
        GaussCode(*columns)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_is_invariant_under_rotation():
    base = visits_of(parse_gauss(TREFOIL))
    for shift in range(len(base)):
        rotated = base[shift:] + base[:shift]
        text = gauss_text(rotated)
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


def _anchored_key(visits, shift: int) -> tuple:
    """Comparison key of the rotation starting at ``shift``, relabelled.

    The least key over all shifts was the canonical anchor before the
    symbol word; it is kept as the reference for the classes.
    """
    n = len(visits)
    relabel: dict[int, int] = {}
    key = []
    for i in range(n):
        label, over, sign = visits[(shift + i) % n]
        if label not in relabel:
            relabel[label] = len(relabel) + 1
        # visit order: O before U, then label, then sign (+ before - before none)
        key.append((0 if over else 1, relabel[label], _SIGN_RANK[sign]))
    return tuple(key)


def anchored_form(code: GaussCode) -> tuple:
    """The least relabelled rotation: one value per class of codes."""
    visits = visits_of(code)
    return min((_anchored_key(visits, s) for s in range(len(visits))),
               default=())


def symbol_word(visits) -> list[tuple[int, int, int]]:
    """(role, forward distance to the partner visit, sign rank) per visit."""
    n = len(visits)
    positions: dict[int, list[int]] = {}
    for p, (label, _, _) in enumerate(visits):
        positions.setdefault(label, []).append(p)
    word = []
    for p, (label, over, sign) in enumerate(visits):
        first, second = positions[label]
        partner = second if p == first else first
        word.append((0 if over else 1, (partner - p) % n, _SIGN_RANK[sign]))
    return word


def reference_canonical(code: GaussCode) -> GaussCode:
    """The least rotation of the symbol word, found by comparing all 2c."""
    visits = visits_of(code)
    n = len(visits)
    if n == 0:
        return code
    word = symbol_word(visits)
    best = min(range(n), key=lambda s: word[s:] + word[:s])
    return parse_gauss(gauss_text(visits[best:] + visits[:best]))


@st.composite
def codes(draw, signs):
    c = draw(st.integers(min_value=0, max_value=10))
    slots = draw(st.permutations(range(2 * c)))
    visits: list = [None] * (2 * c)
    for label in range(1, c + 1):
        over = draw(st.booleans())
        sign = draw(st.sampled_from(signs))
        visits[slots[2 * label - 2]] = (label, over, sign)
        visits[slots[2 * label - 1]] = (label, not over, sign)
    return parse_gauss(gauss_text(visits))


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
    visits = visits_of(code)
    shift = draw(st.integers(min_value=0, max_value=max(len(visits) - 1, 0)))
    other = visits[shift:] + visits[:shift]
    if other and draw(st.booleans()):
        label = draw(st.integers(min_value=1, max_value=code.crossings))
        swap = draw(st.booleans())
        sign = draw(st.sampled_from((PLUS, MINUS, UNSIGNED)))
        other = [(label, over != swap, sign) if at == label else (at, over, s)
                 for at, over, s in other]
    return code, parse_gauss(gauss_text(other))


@given(code_pairs())
def test_canonical_classes_are_the_anchored_key_classes(pair):
    a, b = pair
    assert (canonical(a) == canonical(b)) == (anchored_form(a) == anchored_form(b))


def _strip_signs(code: GaussCode, keep) -> GaussCode:
    return parse_gauss(gauss_text(
        (label, over, sign if keep(label) else UNSIGNED)
        for label, over, sign in visits_of(code)
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
    visits = visits_of(code)
    return [
        parse_gauss(gauss_text(visits[s:] + visits[:s]))
        for s in range(len(visits))
    ]


def _torus_code(c: int) -> GaussCode:
    """The (2, c) torus diagram: visits 1..c twice, alternating O and U."""
    return parse_gauss("".join(
        f"{'O' if i % 2 == 0 else 'U'}{i % c + 1}+" for i in range(2 * c)
    ))


def _connected_sum(*texts: str) -> GaussCode:
    """The Gauss codes one after another, each with its own labels."""
    visits: list[tuple[int, bool, int]] = []
    for text in texts:
        base = len(visits) // 2
        visits += [(label + base, over, sign)
                   for label, over, sign in visits_of(parse_gauss(text))]
    return parse_gauss(gauss_text(visits))


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
    assert want.overs[0]
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
    assert all(sign == UNSIGNED for sign in code.signs)


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



@pytest.mark.parametrize("text, fault", [
    ("O1+O2+U1+U2+", "crossing 1 is visited at positions 1 and 3"),
    # crossings 2 and 3 both fault; the first by label is named
    ("O1U2O3O2U3U1", "crossing 2 is visited at positions 2 and 4"),
])
def test_dt_names_the_first_crossing_of_equal_parity(text, fault):
    with pytest.raises(StructureError) as info:
        gauss_to_dt(parse_gauss(text))
    assert str(info.value) == (f"{fault}; equal parity cannot be written "
                               "in DT notation")


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


@pytest.mark.parametrize("bad", ["", "   ", "# only a comment",
                                 "  ", "[ ]", ",", "# c"])
def test_pd_rejects_empty_input(bad):
    with pytest.raises(StructureError) as info:
        parse_pd(bad)
    assert str(info.value) == "empty PD code"


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
    assert all(sign == MINUS for sign in code.signs)


def test_pd_single_kink_traces_to_a_one_crossing_code():
    assert pd_to_gauss(parse_pd("X(1,2,2,1)")).crossings == 1


def test_pd_rejects_a_two_component_link():
    # the curve through the first quadruple closes up before it has met
    # every crossing twice
    for text in ("X(1,4,2,3) X(3,2,4,1)", "X(1,2,1,2)"):
        with pytest.raises(StructureError) as info:
            pd_to_gauss(parse_pd(text))
        assert str(info.value) == "PD code describes more than one component"


def test_pd_rejects_a_code_whose_faces_do_not_make_a_sphere():
    # one closed curve with consistent strands, but the virtual O1+O2+U1+U2+
    with pytest.raises(NotClassical) as info:
        pd_to_gauss(parse_pd("X(2,1,3,4) X(3,2,4,1)"))
    assert str(info.value) == "PD code is not planar: its faces do not make a sphere"


def test_pd_rejects_inconsistent_strand_orientations():
    # last quad rotated by two: its under-strand runs backwards, and the
    # curve enters it along edge 5, its outgoing under-strand
    with pytest.raises(StructureError) as info:
        pd_to_gauss(parse_pd("X(1,4,2,5) X(3,6,4,1) X(6,3,5,2)"))
    assert str(info.value) == "edge 5 runs against the under-strand orientation"


# ---------------------------------------------------------------------------
# DT and PD values check their own invariant
# ---------------------------------------------------------------------------

DT_FAULT = "DT entries are not a permutation of 2,4,...,2c"
PD_FAULT = "PD edge labels must be 1..2c, each used twice"


@pytest.mark.parametrize("convert, build, message", [
    (pd_to_gauss, lambda: PDCode(((1, 2, 3, 5),)), PD_FAULT),
    (dt_to_gauss, lambda: DTCode((4,)), DT_FAULT),
    (dt_to_gauss, lambda: DTCode((2, 2)), DT_FAULT),
    (dt_to_gauss, lambda: DTCode((0,)), DT_FAULT),
    (pd_to_gauss, lambda: PDCode(((1, 1, 2, 2), (3, 3, 4))),
     "PD quadruple (3, 3, 4) does not hold four edge labels"),
    (pd_to_gauss, lambda: PDCode(((1, 1, 2, 2), (3, 3, 5, 5))), PD_FAULT),
    # a float or a bool equal to a valid entry: dt_to_gauss would raise
    # TypeError, and serialize would write X(1.0,2,1,2), which parse_pd
    # refuses
    (dt_to_gauss, lambda: DTCode((2.0,)), "DT entry 2.0 is not an int"),
    (dt_to_gauss, lambda: DTCode((4, 2, True)), "DT entry True is not an int"),
    (pd_to_gauss, lambda: PDCode(((1.0, 2, 1, 2),)), "PD label 1.0 is not an int"),
    (pd_to_gauss, lambda: PDCode(((1, 2, 2, 1), (3, 4, True, 4))),
     "PD label True is not an int"),
], ids=["pd-label-5", "dt-4", "dt-2-2", "dt-0", "pd-three-labels", "pd-gap",
        "dt-float", "dt-bool", "pd-float", "pd-bool"])
def test_hand_built_codes_are_refused_before_any_conversion(convert, build,
                                                            message):
    with pytest.raises(StructureError) as info:
        convert(build())
    assert str(info.value) == message


def test_the_zero_crossing_dt_and_pd_codes_are_valid():
    assert DTCode(()).crossings == PDCode(()).crossings == 0
    assert dt_to_gauss(DTCode(())) == pd_to_gauss(PDCode(())) == parse_gauss("")


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


# the excerpt quotes the text as written, without its comments
@pytest.mark.parametrize("parse, text, message", [
    (detect_notation, "foo\nbar", "cannot detect notation of 'foo\\nbar'"),
    (detect_notation, "foo # a note", "cannot detect notation of 'foo'"),
    (detect_notation, "foo # a note\u2028bar",
     "cannot detect notation of 'foo \\u2028bar'"),
    (parse_pd, "X(1,4,2,5) foo\r\nbar", "unrecognized PD text near 'foo\\r\\nbar'"),
    (parse_pd, "X(1,4,2,5) foo # a note", "unrecognized PD text near 'foo'"),
    (parse_pd, "X(1,4,2,5) foo # a note\x85bar",
     "unrecognized PD text near 'foo \\x85bar'"),
], ids=["detect-break", "detect-comment", "detect-both", "pd-break",
        "pd-comment", "pd-both"])
def test_an_excerpt_keeps_line_breaks_and_drops_comments(parse, text, message):
    with pytest.raises(CodeSyntaxError) as info:
        parse(text)
    assert str(info.value) == message


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
    assert DTCode((4, 6, 2)) != (4, 6, 2)
    assert code != (code.labels, code.overs, code.signs)
    assert repr(DTCode((4, 6, 2))) == "DTCode(evens=(4, 6, 2))"
    for mutate in (lambda: setattr(code, "labels", ()),
                   lambda: delattr(code, "overs"),
                   lambda: setattr(code, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert visits_of(code) == visits_of(same)
    assert pickle.loads(pickle.dumps(code)) == code == copy.deepcopy(code)
    for moved in (reverse(code), canonical(code)):
        assert pickle.loads(pickle.dumps(moved)) == moved == copy.deepcopy(moved)


# ---------------------------------------------------------------------------
# the value constructor
# ---------------------------------------------------------------------------

class FieldlessDT(DTCode):
    __slots__ = ()


class FieldlessGauss(GaussCode):
    __slots__ = ()


@pytest.mark.parametrize("value, other, shown", [
    (FieldlessDT((4, 6, 2)), FieldlessDT((2,)), "FieldlessDT(evens=(4, 6, 2))"),
    (FieldlessGauss((1, 1), (True, False), (PLUS, PLUS)),
     FieldlessGauss((), (), ()),
     "FieldlessGauss(labels=(1, 1), overs=(True, False), signs=(1, 1))"),
])
def test_a_fieldless_subclass_keeps_its_parents_fields(value, other, shown):
    import copy
    import pickle

    assert value != other and hash(value) != hash(other)
    assert repr(value) == shown
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value


class NotedDT(DTCode):
    __slots__ = "note"  # one name


class ListedDT(DTCode):
    __slots__ = ["note"]


class WeakDT(DTCode):
    __slots__ = ("__weakref__",)  # not a field


@pytest.mark.parametrize("value, other, shown", [
    (NotedDT((2,), "a"), NotedDT((2,), "b"), "NotedDT(evens=(2,), note='a')"),
    (ListedDT((2,), note="a"), ListedDT((4, 2), "a"),
     "ListedDT(evens=(2,), note='a')"),
    (WeakDT((2,)), WeakDT(evens=(4, 2)), "WeakDT(evens=(2,))"),
], ids=["str", "list", "weakref"])
def test_every_legal_slots_form_makes_a_value_type(value, other, shown):
    import copy
    import pickle
    import weakref

    assert value == type(value)(*value._values()) and value != other
    assert hash(value) == hash(copy.copy(value))
    assert repr(value) == shown
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
    if isinstance(value, WeakDT):
        assert weakref.ref(value)() is value


@pytest.mark.parametrize("slots", [("__note",), "__note", ["note", "__note"]])
def test_a_private_slot_is_refused_by_name(slots):
    # Python stores the slot as _T__note, so no field could be set by its name
    with pytest.raises(TypeError) as info:
        type("T", (DTCode,), {"__slots__": slots})
    assert str(info.value) == ("T: private slot '__note' cannot be a field "
                               "(Python stores it name-mangled)")


def test_only_the_code_types_write_their_own_constructor():
    import gc
    import importlib
    import pkgutil

    import warpdeg
    from warpdeg.values import _Value

    for module in pkgutil.iter_modules(warpdeg.__path__):
        importlib.import_module(f"warpdeg.{module.name}")
    gc.collect()  # frees the classes that a test refused while being made
    classes, todo = [], [_Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    assert {"DTCode", "KnotEntry", "WarpingSummary"} <= {c.__name__ for c in classes}
    # each checks its invariant; every other value type binds its fields only
    assert {c for c in classes if "__init__" in vars(c)} == {GaussCode, DTCode,
                                                              PDCode}
    # each class sets its slots through its own descriptors, in field order
    for cls in [_Value, *classes]:
        assert [setter.__self__ for setter in cls._setters] == \
            [getattr(cls, name) for name in cls._fields]
    for value in (DTCode((4, 6, 2)), parse_gauss(TREFOIL),
                  summary(parse_gauss(TREFOIL))):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


@pytest.mark.parametrize("make, message", [
    (lambda: DTCode((2,), (4,)), "DTCode() got 2 values for fields ('evens',)"),
    (lambda: DTCode(odds=(2,)), "DTCode() got an unexpected keyword argument 'odds'"),
    (lambda: DTCode((2,), evens=(2,)),
     "DTCode() got multiple values for argument 'evens'"),
    (lambda: DTCode(), "DTCode() missing argument 'evens'"),
    (lambda: PDCode(), "PDCode() missing argument 'quads'"),
])
def test_the_value_constructor_binds_as_a_call_does(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_the_value_constructor_fills_in_defaults():
    from warpdeg.table import CheckRow, ExpectedValues, KnotEntry

    assert ExpectedValues(2, unknotting=1) == \
        ExpectedValues(e=2, md=None, e_hat=None, ascending=None, unknotting=1)
    entry = KnotEntry("3_1", 3, True, True, 1, (parse_gauss(TREFOIL),), True)
    assert (entry.extra_diagrams, entry.expected) == ((), ExpectedValues())
    assert CheckRow("c", "3_1", True) == CheckRow("c", "3_1", True, "")
    # a field with no default is still required when a later one has one
    with pytest.raises(TypeError, match="missing argument 'scope'"):
        CheckRow("c", passed=True)


def test_positional_and_keyword_values_are_equal():
    from warpdeg.oracle import OracleResult

    assert OracleResult(1, (2,), 3) == OracleResult(nodes_searched=3, changes=1,
                                                    witness=(2,))
    assert PDCode(((1, 2, 2, 1),)) == PDCode(quads=((1, 2, 2, 1),))
    summed = summary(parse_gauss(TREFOIL))
    assert type(summed)(*summed._values()) == summed == type(summed)(
        **{name: getattr(summed, name) for name in summed._fields})
