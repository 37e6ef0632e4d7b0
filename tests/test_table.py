"""Bundled knot table: loading, aggregate invariants, verification."""

from __future__ import annotations

import copy
import json
import pickle
import re
from pathlib import Path

import pytest

from warpdeg.bracket import BracketPolynomial
from warpdeg.codes import parse_gauss
from warpdeg.errors import DataError, InternalInconsistency
from warpdeg.table import (
    CheckRow,
    ExpectedValues,
    KnotEntry,
    KnotTable,
    VerificationReport,
    _EntryStats,
    _stats,
    default_table_path,
    e_hat_bounds,
    knot_e,
    knot_md,
    load_table,
    validate_entry,
    verify_paper,
)
from warpdeg.warping import WarpingSummary

HEADER = '{"format": "knots-table", "version": 1}'

TREFOIL_RECORD = json.dumps({
    "name": "3_1", "crossings": 3, "prime": True, "alternating": True,
    "twist": 1, "minimal": ["O1+U2+O3+U1+O2+U3+"], "minimal_complete": True,
})


def write_table(tmp_path: Path, *lines: str) -> Path:
    path = tmp_path / "table.tbl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def mutated_copy(tmp_path: Path, name: str, mutate) -> Path:
    """The bundled table with one record rewritten by ``mutate(obj)``."""
    out = []
    with open(default_table_path(), encoding="utf-8") as table:
        lines = table.read().splitlines()
    for line in lines:
        if line.startswith("{") and f'"name": "{name}"' in line:
            obj = json.loads(line)
            mutate(obj)
            line = json.dumps(obj)
        out.append(line)
    return write_table(tmp_path, *out)


# ---------------------------------------------------------------------------
# the bundled file
# ---------------------------------------------------------------------------

def test_bundled_table_covers_knots_through_eight_crossings(table):
    names = [entry.name for entry in table]
    assert len(names) == 37 == len(set(names))
    expected = (
        ["0_1", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"]
        + [f"7_{i}" for i in range(1, 8)]
        + [f"8_{i}" for i in range(1, 22)]
        + ["granny"]
    )
    assert names == expected


def test_bundled_entry_fields(table):
    assert table["3_1"].twist == 1
    assert table["8_1"].twist == 6
    assert table["7_1"].twist is None
    assert not table["granny"].prime
    assert not table["0_1"].prime
    assert not table["8_19"].alternating
    assert table["granny"].alternating
    assert len(table["7_6"].minimal_diagrams) == 2
    assert len(table["8_12"].minimal_diagrams) == 2
    assert table["6_3"].extra_diagrams and table["4_1"].extra_diagrams


def test_minimal_diagram_crossings_match_their_entries(table):
    for entry in table:
        for diagram in entry.minimal_diagrams:
            assert diagram.crossings == entry.crossings


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def test_knot_e_reports_exactness(table):
    assert knot_e(table["3_1"]) == (2, True)
    assert knot_e(table["0_1"]) == (0, True)
    assert knot_e(table["8_12"]) == (7, False)
    assert knot_e(table["8_20"]) == (5, False)
    assert knot_e(table["granny"]) == (4, False)


def test_knot_md_promotes_degree_two_to_exact(table):
    assert knot_md(table["3_1"]) == (1, True)
    assert knot_md(table["4_1"]) == (1, True)
    assert knot_md(table["8_18"]) == (2, True)  # incomplete set, value 2
    assert knot_md(table["granny"]) == (2, True)
    assert knot_md(table["7_4"]) == (3, False)  # value 3 stays a bound


def test_e_hat_bounds_from_classification_and_diagrams(table):
    assert e_hat_bounds(table["0_1"]) == (0, 0)
    assert e_hat_bounds(table["3_1"]) == (2, 2)
    assert e_hat_bounds(table["4_1"]) == (2, 2)  # via the 5-crossing extra
    assert e_hat_bounds(table["5_1"]) == (4, 4)
    assert e_hat_bounds(table["6_3"]) == (4, 4)  # via the 7-crossing extra
    assert e_hat_bounds(table["7_3"]) == (4, 6)
    assert e_hat_bounds(table["8_20"]) == (4, 5)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_verification_passes_on_the_bundled_table(table):
    report = verify_paper(table)
    assert report.passed
    assert not report.failures
    assert len(report.rows) == 335
    assert report.render_text().endswith("ALL CHECKS PASSED (335 checks)")


def test_wrong_reference_sum_fails_exactly_one_check(tmp_path):
    path = mutated_copy(
        tmp_path, "3_1", lambda obj: obj["expected"].update(e=3)
    )
    report = verify_paper(load_table(path))
    assert not report.passed
    assert [(row.check, row.scope) for row in report.failures] == \
        [("expected-e", "3_1")]


def test_wrong_composite_sum_fails_exactly_one_check(tmp_path):
    path = mutated_copy(
        tmp_path, "granny", lambda obj: obj["expected"].update(e=3)
    )
    report = verify_paper(load_table(path))
    assert [(row.check, row.scope) for row in report.failures] == \
        [("expected-e", "granny")]


def test_reaching_the_bound_without_prime_alternating_is_flagged(tmp_path):
    # claiming e(granny) = 5 = c - 1 breaks the only-if direction too
    path = mutated_copy(
        tmp_path, "granny", lambda obj: obj["expected"].update(e=5)
    )
    report = verify_paper(load_table(path))
    assert {(row.check, row.scope) for row in report.failures} == \
        {("expected-e", "granny"), ("e-only-if", "granny")}


FIGURE8_EXTRA = "O1+O2-U3-O4-O5+U1+U4-O3-U2-U5+"  # 4_1's sum-2 diagram
EIGHT_TWENTY = "O1+O2-U3-O4-O5-U6-U2-O3-U4-U7+O8+U1+O6-U5-O7+U8+"

# (check, entry, mutation of its record, every (check, scope) that fails,
# the details of the named check's failing row)
TABLE_FAULTS = [
    ("expected-e", "3_1", lambda o: o["expected"].update(e=3),
     {("expected-e", "3_1")}, "computed 2, expected 3"),
    ("expected-md", "3_1", lambda o: o["expected"].update(md=2),
     {("expected-md", "3_1")}, "computed 1, expected 2"),
    ("e-prime-alternating", "8_19", lambda o: o.update(alternating=True),
     {("e-prime-alternating", "8_19")}, "e=6, want 7"),
    ("e-only-if", "3_1", lambda o: o.update(prime=False),
     {("e-only-if", "3_1")}, "e=2 reaches c-1 without prime alternating"),
    ("e-classification", "4_1",
     lambda o: o.update(minimal=["O1+U2+O3+U1+O2+U3+U4+O4+"]),
     {("e-classification", "4_1"), ("e-prime-alternating", "4_1"),
      ("expected-e", "4_1"), ("twist-formula", "4_1")},
     "e=2 is reserved for 3_1"),
    ("md-from-e", "7_4", lambda o: o["expected"].update(e=5),
     {("md-from-e", "7_4"), ("expected-e", "7_4")},
     "e=5 forces md=2, computed 3"),
    ("five-crossing-values", "5_1",
     lambda o: o.update(minimal=[FIGURE8_EXTRA]),
     {("five-crossing-values", "5_1"), ("e-classification", "5_1"),
      ("e-hat-window", "5_1"), ("e-prime-alternating", "5_1"),
      ("expected-e", "5_1"), ("expected-md", "5_1"), ("md-from-e", "5_1"),
      ("ordering", "5_1")}, "e=2, want 4"),
    ("orientation-splits", "7_6", lambda o: o["minimal"].pop(0),
     {("orientation-splits", "7_6")}, "d-pairs [[2, 4]]"),
    ("nonalternating-four", "8_21", lambda o: o.update(minimal=[EIGHT_TWENTY]),
     {("nonalternating-four", "8_21"), ("expected-e", "8_21")}, "e=5, want 4"),
    ("twist-formula", "5_2", lambda o: o["minimal"].append(o["minimal"][0]),
     {("twist-formula", "5_2")}, "n=3, d-pairs [(2, 2), (2, 2)], md=2, e=4"),
    ("e-hat-window", "3_1", lambda o: o["expected"].update(e_hat=3),
     {("e-hat-window", "3_1")}, "expected e_hat 3 outside [2, 2]"),
    ("e-hat-twist", "5_2", lambda o: o.pop("extra"),
     {("e-hat-twist", "5_2")}, "bounds (2, 4), want (2, 2)"),
    ("e-hat-six-three", "6_3", lambda o: o.update(extra=o["minimal"]),
     {("e-hat-six-three", "6_3")}, "bounds (4, 5)"),
    ("ordering", "7_4", lambda o: o["expected"].update(unknotting=4),
     {("ordering", "7_4")}, "unknotting 4 exceeds md 3"),
]

# e(D) <= c(D) - 1 and span 1 on alternating diagrams hold for every
# diagram, so no table fails these two; a faulty engine does.
ENGINE_FAULTS = [
    ("e-upper-bound", "8_20", {"warping_sum": 8}, "e=8 exceeds c-1=7"),
    ("alternating-span", "3_1", {"span": 2},
     "alternating diagram with span != 1 (c=[3])"),
]


@pytest.mark.parametrize(
    "check, name, mutate, failing, details", TABLE_FAULTS,
    ids=[case[0] for case in TABLE_FAULTS],
)
def test_each_check_fails_on_a_mutated_table(tmp_path, check, name, mutate,
                                             failing, details):
    report = verify_paper(load_table(mutated_copy(tmp_path, name, mutate)))
    assert {(row.check, row.scope) for row in report.failures} == failing
    assert [row.details for row in report.failures
            if row.check == check] == [details]


@pytest.mark.parametrize(
    "check, name, fault, details", ENGINE_FAULTS,
    ids=[case[0] for case in ENGINE_FAULTS],
)
def test_theorem_checks_fail_on_a_faulty_engine(monkeypatch, table, check,
                                                name, fault, details):
    from warpdeg import table as table_module

    honest = table_module.summary
    target = table[name].minimal_diagrams[0]

    def faulty(d):
        s = honest(d)
        if d != target:
            return s
        return WarpingSummary(**{field: fault.get(field, getattr(s, field))
                                 for field in WarpingSummary.__slots__})

    monkeypatch.setattr(table_module, "summary", faulty)
    report = verify_paper(table)
    assert {(row.check, row.scope) for row in report.failures} == {(check, name)}
    assert [row.details for row in report.failures
            if row.check == check] == [details]


def test_every_check_has_a_failing_case(table):
    checks = {row.check for row in verify_paper(table).rows}
    covered = {case[0] for case in TABLE_FAULTS + ENGINE_FAULTS}
    assert covered == checks - {"entry-valid"}


def test_broken_entries_opt_out_instead_of_crashing_the_run(table):
    # validation rejects such records at load time; feed one straight in
    good = table["3_1"]
    broken = KnotEntry(
        name=good.name, crossings=good.crossings, prime=good.prime,
        alternating=good.alternating, twist=3,
        minimal_diagrams=good.minimal_diagrams,
        minimal_complete=good.minimal_complete,
        extra_diagrams=good.extra_diagrams, expected=good.expected,
    )
    report = verify_paper([broken])
    assert [(row.check, row.passed) for row in report.rows] == \
        [("entry-valid", False)]
    assert verify_paper([table["3_1"]]).passed


def test_every_check_is_a_group_of_rules_of_one_shape():
    from warpdeg.table import CHECKS

    assert all(isinstance(group, tuple) and group
               and all(isinstance(rule, tuple) and len(rule) == 3 for rule in group)
               for group in CHECKS)
    names = [check for group in CHECKS for check, _, _ in group]
    assert len(names) == len(set(names)) == 16


def test_a_check_is_data_alone(monkeypatch, table):
    from warpdeg import table as table_module

    before = verify_paper(table).rows
    rule = ("made-up", lambda s: s.entry.twist is not None,
            lambda s: (s.e_value == 3, f"e={s.e_value}"))
    monkeypatch.setattr(table_module, "CHECKS", table_module.CHECKS + ((rule,),))
    rows = verify_paper(table).rows
    assert rows[:len(before)] == before
    added = [CheckRow("made-up", entry.name, knot_e(entry)[0] == 3,
                      f"e={knot_e(entry)[0]}")
             for entry in table if entry.twist is not None]
    assert list(rows[len(before):]) == added
    assert {row.passed for row in added} == {True, False}


@pytest.mark.parametrize("name, scope", [(None, "None"), (["x"], "['x']"), (3, "3")],
                         ids=["none", "list", "int"])
def test_every_verify_row_scope_is_a_string(table, name, scope):
    (row,) = verify_paper([with_fields(table["3_1"], name=name)]).rows
    assert (row.check, row.scope, row.passed) == ("entry-valid", scope, False)
    assert hash(row) == hash(CheckRow(row.check, scope, False, row.details))


def test_the_documented_check_order_is_the_report_order(table):
    docs = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
    section = docs.read_text(encoding="utf-8").split("## Records output")[1]
    listed = re.findall(r"^\d+\. `([a-z-]+)`", section.split("\n## ")[0], re.M)
    rows = verify_paper(table).rows
    assert listed == list(dict.fromkeys(row.check for row in rows))
    # expected-e and expected-md interleave, entry by entry
    expected = [(row.scope, row.check) for row in rows
                if row.check in ("expected-e", "expected-md")]
    order = [entry.name for entry in table]
    assert expected == sorted(expected, key=lambda r: (order.index(r[0]), r[1]))
    assert expected != sorted(expected, key=lambda r: r[1])


def with_fields(entry: KnotEntry, **changes) -> KnotEntry:
    return KnotEntry(**{**dict(zip(entry._fields, entry._values())), **changes})


@pytest.mark.parametrize("changes, problems", [
    ({"name": ""}, ["empty name"]),
    ({"crossings": -1}, ["negative crossing number",
                         "minimal diagram has 3 crossings, entry says -1",
                         "twist parameter inconsistent with crossing number"]),
    ({"minimal_diagrams": ()}, ["no minimal diagrams"]),
    ({"minimal_diagrams": (parse_gauss("O1+U2-O3-U1+O4+U3-O2-U4+"),)},
     ["minimal diagram has 4 crossings, entry says 3"]),
    ({"twist": 0}, ["twist parameter below 1"]),
], ids=["name", "crossings", "no-minimal", "crossing-mismatch", "twist"])
def test_validate_entry_names_each_structural_problem(table, changes, problems):
    assert validate_entry(table["3_1"]) == []
    assert validate_entry(with_fields(table["3_1"], **changes)) == problems


@pytest.mark.parametrize("changes, problem", [
    ({"crossings": "3"}, "crossings must be an integer, got '3'"),
    ({"twist": "1"}, "twist must be an integer, got '1'"),
    ({"expected": ExpectedValues(e="2")}, "expected.e must be an integer, got '2'"),
    ({"minimal_diagrams": ("O1+U2+O3+U1+O2+U3+",)},
     "minimal_diagrams must be a tuple of Gauss codes, got ('O1+U2+O3+U1+O2+U3+',)"),
    ({"minimal_diagrams": ()}, "no minimal diagrams"),
    ({"name": 3}, "name must be a string, got 3"),
    ({"prime": 1}, "prime must be true or false, got 1"),
    ({"alternating": "yes"}, "alternating must be true or false, got 'yes'"),
    ({"minimal_complete": None}, "minimal_complete must be true or false, got None"),
    ({"expected": None}, "expected must be an ExpectedValues, got None"),
    ({"expected": {"e": 2}}, "expected must be an ExpectedValues, got {'e': 2}"),
], ids=["crossings", "twist", "expected", "diagram-text", "no-minimal", "name",
        "prime", "alternating", "minimal-complete", "expected-none",
        "expected-dict"])
def test_an_entry_built_in_code_is_checked_before_it_is_computed(
        table, changes, problem):
    # verify_paper reports a bad entry as data; the helpers raise DataError
    entry = with_fields(table["3_1"], **changes)
    assert validate_entry(entry) == [problem]
    scope = "3" if "name" in changes else "3_1"  # a name that is not a string: its repr
    assert verify_paper([entry]).rows == \
        (CheckRow("entry-valid", scope, False, problem),)
    for helper in (knot_e, knot_md, e_hat_bounds):
        with pytest.raises(DataError, match=re.escape(problem)):
            helper(entry)


def test_a_diagram_that_fails_to_summarize_fails_its_entry_valid_row(
        monkeypatch, table):
    from warpdeg import table as table_module

    honest = table_module.summary
    target = table["4_1"].minimal_diagrams[0]

    def faulty(d):
        if d == target:
            raise InternalInconsistency("d(-D)=2 but c - max(profile)=1")
        return honest(d)

    monkeypatch.setattr(table_module, "summary", faulty)
    report = verify_paper([table["3_1"], table["4_1"]])
    assert report.failures == (CheckRow("entry-valid", "4_1", False,
                                        "d(-D)=2 but c - max(profile)=1"),)
    assert {row.scope for row in report.rows if row.check != "entry-valid"} == {"3_1"}


@pytest.mark.parametrize("name, crossings, code, details", [
    ("2_x", 2, "O1+U1+O2-U2-", "warping sum 1 is impossible"),
    # a 5-crossing diagram of sum 4 filed under 3_1, whose sum is 2
    ("3_1", 5, "O1+U2+O3+U4+O5+U1+O2+U3+O4+U5+", "e=4, want 2"),
], ids=["sum-one", "want"])
def test_classification_names_its_fault(name, crossings, code, details):
    entry = KnotEntry(name, crossings, True, True, None, (parse_gauss(code),), True)
    rows = [row for row in verify_paper([entry]).rows
            if row.check == "e-classification"]
    assert rows == [CheckRow("e-classification", name, False, details)]


def test_six_three_without_its_extra_diagram_passes_as_a_gap(table):
    entry = with_fields(table["6_3"], extra_diagrams=())
    rows = [row for row in verify_paper([entry]).rows
            if row.check == "e-hat-six-three"]
    assert rows == [CheckRow("e-hat-six-three", "6_3", True,
                             "gap: bounds (4, 5); no sum-4 diagram bundled")]


def test_true_e_comes_from_a_complete_minimal_set(table):
    # 7_4's bundled minimal set is not known to be complete; its e is a
    # reference value
    entry = table["7_4"]
    assert (entry.minimal_complete, _stats(entry).true_e) == (False, 6)
    unknown = with_fields(entry, expected=ExpectedValues())
    assert _stats(unknown).true_e is None
    assert _stats(with_fields(unknown, minimal_complete=True)).true_e == 6


# Per value type: a value, an equal one built apart, and a different one.
VALUES = {
    ExpectedValues: lambda t: (ExpectedValues(e=2, md=1), ExpectedValues(2, 1),
                               ExpectedValues(e=3)),
    KnotEntry: lambda t: (t["3_1"], load_table()["3_1"], t["4_1"]),
    KnotTable: lambda t: (KnotTable((t["3_1"],)), KnotTable((t["3_1"],)),
                          KnotTable(())),
    _EntryStats: lambda t: (_stats(t["3_1"]), _stats(t["3_1"]), _stats(t["4_1"])),
    CheckRow: lambda t: (CheckRow("c", "3_1", True),
                         CheckRow(check="c", scope="3_1", passed=True, details=""),
                         CheckRow("c", "3_1", False, "why")),
    VerificationReport: lambda t: (verify_paper([t["3_1"]]),
                                   verify_paper([t["3_1"]]),
                                   verify_paper([t["4_1"]])),
    BracketPolynomial: lambda t: (BracketPolynomial.from_dict({-4: 1, 0: 0}),
                                  BracketPolynomial(((-4, 1),)),
                                  BracketPolynomial(())),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_table_and_bracket_types_are_immutable_values_equal_only_to_their_own_class(
        table, cls):
    value, same, other = VALUES[cls](table)
    assert type(value) is cls
    assert value == same and hash(value) == hash(same) and value is not same
    assert value != other
    fields = tuple(getattr(value, name) for name in cls.__slots__)

    class Twin(cls):
        __slots__ = ()

    assert value != fields and value != Twin(*fields) and Twin(*fields) != value
    assert repr(value).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    for mutate in (lambda: setattr(value, cls.__slots__[0], None),
                   lambda: delattr(value, cls.__slots__[0]),
                   lambda: setattr(value, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert value == same
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)


def test_value_reprs_read_like_their_constructor_calls():
    assert repr(ExpectedValues(e=2)) == (
        "ExpectedValues(e=2, md=None, e_hat=None, ascending=None, unknotting=None)"
    )
    assert repr(CheckRow("c", "3_1", True)) == \
        "CheckRow(check='c', scope='3_1', passed=True, details='')"
    assert repr(VerificationReport(())) == "VerificationReport(rows=())"
    assert repr(KnotTable(())) == "KnotTable(entries=())"
    assert repr(BracketPolynomial(((-4, 1),))) == \
        "BracketPolynomial(coefficients=((-4, 1),))"


def test_values_take_keywords_and_default_their_trailing_fields(table):
    good = table["3_1"]
    entry = KnotEntry(name="3_1", crossings=3, prime=True, alternating=True,
                      twist=1, minimal_diagrams=good.minimal_diagrams,
                      minimal_complete=True)
    assert entry.extra_diagrams == () and entry.expected == ExpectedValues()
    assert entry == KnotEntry("3_1", 3, True, True, 1, good.minimal_diagrams,
                              True, extra_diagrams=(), expected=ExpectedValues())
    assert ExpectedValues() == ExpectedValues(None, None, None, None, None)
    assert CheckRow(check="c", scope="3_1", passed=True).details == ""
    assert VerificationReport(rows=()).passed


def test_table_lookup_finds_the_first_entry_of_a_name(table):
    first, second = table["3_1"], table["4_1"]
    twins = KnotTable((first, KnotEntry(**{
        name: getattr(second, name) for name in KnotEntry.__slots__
    } | {"name": "3_1"})))
    assert twins["3_1"] is first and "3_1" in twins
    assert "4_1" not in twins
    with pytest.raises(KeyError):
        twins["4_1"]


def test_header_only_table_is_empty_and_passes(tmp_path):
    table = load_table(write_table(tmp_path, HEADER))
    assert len(table) == 0
    report = verify_paper(table)
    assert report.passed
    assert report.render_text() == "ALL CHECKS PASSED (0 checks)"


# ---------------------------------------------------------------------------
# loader errors
# ---------------------------------------------------------------------------

def test_loader_accepts_comments_and_blank_lines(tmp_path):
    table = load_table(write_table(
        tmp_path, "# leading comment", "", HEADER, "", TREFOIL_RECORD,
        "  # indented comment",
    ))
    assert [entry.name for entry in table] == ["3_1"]


def test_loader_rejects_missing_or_foreign_headers(tmp_path):
    with pytest.raises(DataError, match="missing table header"):
        load_table(write_table(tmp_path, "# nothing else"))
    with pytest.raises(DataError, match="not a knots-table"):
        load_table(write_table(tmp_path, '{"format": "something"}'))
    with pytest.raises(DataError, match="table header: unknown key 'verison'"):
        load_table(write_table(
            tmp_path, '{"format": "knots-table", "version": 1, "verison": 2}'))


def test_loader_rejects_a_header_that_is_not_json(tmp_path):
    path = write_table(tmp_path, "{broken")
    with pytest.raises(DataError) as info:
        load_table(path)
    assert str(info.value) == (f"{path}: bad header line: Expecting property "
                               "name enclosed in double quotes: line 1 column 2 "
                               "(char 1)")


def test_loader_rejects_unsupported_versions(tmp_path):
    # true and 1.0 compare equal to 1 but are not the integer 1
    for version, shown in (("99", "99"), ("true", "True"), ("1.0", "1.0")):
        path = write_table(
            tmp_path, f'{{"format": "knots-table", "version": {version}}}'
        )
        with pytest.raises(DataError) as info:
            load_table(path)
        assert str(info.value) == f"{path}: unsupported version {shown}"


def test_loader_rejects_broken_records(tmp_path):
    with pytest.raises(DataError, match="bad record line"):
        load_table(write_table(tmp_path, HEADER, "{broken"))
    with pytest.raises(DataError, match="malformed table record"):
        load_table(write_table(tmp_path, HEADER, '{"name": "3_1"}'))
    with pytest.raises(DataError, match="bad diagram code"):
        load_table(write_table(
            tmp_path, HEADER,
            TREFOIL_RECORD.replace("O1+U2+O3+U1+O2+U3+", "O1+U2+"),
        ))


def test_loader_rejects_duplicates_and_invalid_entries(tmp_path):
    with pytest.raises(DataError, match="duplicate entry"):
        load_table(write_table(tmp_path, HEADER, TREFOIL_RECORD,
                               TREFOIL_RECORD))
    with pytest.raises(DataError, match="twist parameter inconsistent"):
        load_table(write_table(
            tmp_path, HEADER, TREFOIL_RECORD.replace('"twist": 1', '"twist": 4')
        ))
    with pytest.raises(DataError) as info:
        load_table(tmp_path / "absent.tbl")
    assert str(info.value) == (f"cannot read {tmp_path / 'absent.tbl'}: "
                               "No such file or directory")
    # a read fault names the path once, with the OS's reason
    with pytest.raises(DataError) as info:
        load_table(tmp_path)
    assert str(info.value) == f"cannot read {tmp_path}: Is a directory"


@pytest.mark.parametrize("field, value", [
    ("name", 3),
    ("crossings", "3"),
    ("crossings", True),
    ("crossings", 3.0),
    ("prime", 1),
    ("alternating", "yes"),
    ("minimal_complete", None),
    ("minimal", [3]),
    ("minimal", "O1+U2+O3+U1+O2+U3+"),
    ("extra", [None]),
    ("twist", "1"),
    ("twist", True),
    ("expected", [1]),
    ("expected", None),
    ("expected", {"e": "2"}),
    ("expected", {"md": 1.0}),
])
def test_loader_rejects_wrongly_typed_fields(tmp_path, field, value):
    obj = json.loads(TREFOIL_RECORD)
    obj[field] = value
    want = f"table entry {obj['name']!r}: {field} must be "
    with pytest.raises(DataError, match=re.escape(want)):
        load_table(write_table(tmp_path, HEADER, json.dumps(obj)))


@pytest.mark.parametrize("expected, problem", [
    ({"md": -1}, "negative expected md"),
    ({"unknotting": 2, "ascending": 1},
     "expected unknotting exceeds expected ascending"),
    ({"ascending": 2, "md": 1}, "expected ascending exceeds expected md"),
])
def test_loader_checks_expected_values_field_by_field(tmp_path, expected, problem):
    obj = json.loads(TREFOIL_RECORD)
    obj["expected"] = {"unknotting": 1, "md": 1, "e_hat": 2, "e": 2}
    assert load_table(write_table(tmp_path, HEADER, json.dumps(obj)))["3_1"] \
        .expected == ExpectedValues(e=2, md=1, e_hat=2, unknotting=1)
    obj["expected"] = expected
    with pytest.raises(DataError, match=f": 3_1: {problem}$"):
        load_table(write_table(tmp_path, HEADER, json.dumps(obj)))


@pytest.mark.parametrize("key, value, unknown", [
    ("extras", ["O1+U2+O3+U1+O2+U3+"], "'extras'"),
    ("expected", {"e": 2, "unknoting": 7}, "'expected.unknoting'"),
])
def test_loader_rejects_unknown_keys(tmp_path, key, value, unknown):
    # a misspelt key would otherwise drop its value without a word
    obj = json.loads(TREFOIL_RECORD)
    obj[key] = value
    path = write_table(tmp_path, HEADER, json.dumps(obj))
    with pytest.raises(DataError) as info:
        load_table(path)
    assert str(info.value) == f"{path}: table entry '3_1': unknown key {unknown}"


def test_loader_rejects_records_that_are_not_objects(tmp_path):
    with pytest.raises(DataError, match="not an object"):
        load_table(write_table(tmp_path, HEADER, "[1]"))


def test_loader_rejects_a_table_that_is_not_utf8(tmp_path):
    path = tmp_path / "binary.tbl"
    path.write_bytes(b"\xff\xfe" + HEADER.encode())
    with pytest.raises(DataError) as info:
        load_table(path)
    assert str(info.value) == (f"{path} is not UTF-8 text "
                               "(invalid start byte at byte 0)")
