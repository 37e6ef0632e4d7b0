"""Bundled knot table: loading, aggregate invariants, verification."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from warpdeg.errors import DataError
from warpdeg.table import (
    default_table_path,
    e_hat_bounds,
    knot_e,
    knot_md,
    load_table,
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
    for line in default_table_path().read_text(encoding="utf-8").splitlines():
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

# (check, entry, mutation of its record, every (check, scope) that fails)
TABLE_FAULTS = [
    ("expected-e", "3_1", lambda o: o["expected"].update(e=3),
     {("expected-e", "3_1")}),
    ("expected-md", "3_1", lambda o: o["expected"].update(md=2),
     {("expected-md", "3_1")}),
    ("e-prime-alternating", "8_19", lambda o: o.update(alternating=True),
     {("e-prime-alternating", "8_19")}),
    ("e-only-if", "3_1", lambda o: o.update(prime=False),
     {("e-only-if", "3_1")}),
    ("e-classification", "4_1",
     lambda o: o.update(minimal=["O1+U2+O3+U1+O2+U3+U4+O4+"]),
     {("e-classification", "4_1"), ("e-prime-alternating", "4_1"),
      ("expected-e", "4_1"), ("twist-formula", "4_1")}),
    ("md-from-e", "7_4", lambda o: o["expected"].update(e=5),
     {("md-from-e", "7_4"), ("expected-e", "7_4")}),
    ("five-crossing-values", "5_1",
     lambda o: o.update(minimal=[FIGURE8_EXTRA]),
     {("five-crossing-values", "5_1"), ("e-classification", "5_1"),
      ("e-hat-window", "5_1"), ("e-prime-alternating", "5_1"),
      ("expected-e", "5_1"), ("expected-md", "5_1"), ("md-from-e", "5_1"),
      ("ordering", "5_1")}),
    ("orientation-splits", "7_6", lambda o: o["minimal"].pop(0),
     {("orientation-splits", "7_6")}),
    ("nonalternating-four", "8_21", lambda o: o.update(minimal=[EIGHT_TWENTY]),
     {("nonalternating-four", "8_21"), ("expected-e", "8_21")}),
    ("twist-formula", "5_2", lambda o: o["minimal"].append(o["minimal"][0]),
     {("twist-formula", "5_2")}),
    ("e-hat-window", "3_1", lambda o: o["expected"].update(e_hat=3),
     {("e-hat-window", "3_1")}),
    ("e-hat-twist", "5_2", lambda o: o.pop("extra"),
     {("e-hat-twist", "5_2")}),
    ("e-hat-six-three", "6_3", lambda o: o.update(extra=o["minimal"]),
     {("e-hat-six-three", "6_3")}),
    ("ordering", "7_4", lambda o: o["expected"].update(unknotting=4),
     {("ordering", "7_4")}),
]

# e(D) <= c(D) - 1 and span 1 on alternating diagrams hold for every
# diagram, so no table fails these two; a faulty engine does.
ENGINE_FAULTS = [
    ("e-upper-bound", "8_20", {"warping_sum": 8}),
    ("alternating-span", "3_1", {"span": 2}),
]


@pytest.mark.parametrize(
    "check, name, mutate, failing", TABLE_FAULTS,
    ids=[case[0] for case in TABLE_FAULTS],
)
def test_each_check_fails_on_a_mutated_table(tmp_path, check, name, mutate,
                                             failing):
    report = verify_paper(load_table(mutated_copy(tmp_path, name, mutate)))
    assert {(row.check, row.scope) for row in report.failures} == failing


@pytest.mark.parametrize(
    "check, name, fault", ENGINE_FAULTS, ids=[case[0] for case in ENGINE_FAULTS],
)
def test_theorem_checks_fail_on_a_faulty_engine(monkeypatch, table, check,
                                                name, fault):
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


def test_every_check_has_a_failing_case(table):
    checks = {row.check for row in verify_paper(table).rows}
    covered = {case[0] for case in TABLE_FAULTS + ENGINE_FAULTS}
    assert covered == checks - {"entry-valid"}


def test_broken_entries_opt_out_instead_of_crashing_the_run(table):
    # validation rejects such records at load time; feed one straight in
    from dataclasses import replace

    report = verify_paper([replace(table["3_1"], twist=3)])
    assert [(row.check, row.passed) for row in report.rows] == \
        [("entry-valid", False)]
    assert verify_paper([table["3_1"]]).passed


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


def test_loader_rejects_unsupported_versions(tmp_path):
    with pytest.raises(DataError, match="unsupported version"):
        load_table(write_table(
            tmp_path, '{"format": "knots-table", "version": 99}'
        ))


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
