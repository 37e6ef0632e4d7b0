"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import io
import json
import os
import random
import shlex
import shutil
import socket
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from warpdeg import cli, codes
from warpdeg.cli import main
from warpdeg.codes import gauss_to_dt, parse_gauss, serialize
from warpdeg.errors import read_lines
from warpdeg.families import twist_minimal
from warpdeg.warping import summary

from test_codes import LINE_BREAKS, _seeded_text

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_text_output(capsys):
    code, out, err = run(capsys, "analyze", TREFOIL)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "crossings: 3",
        "d(D)=1 d(-D)=1 e=2 spn=1",
        "profile: 1 2 1 2 1 2",
        "polynomial: 3*t^1 + 3*t^2",
        "monotone: no",
    ]


def test_analyze_text_notes_a_signed_code_that_is_not_classical(capsys):
    virtual = "O1+O2+U1+U2+"  # its faces do not make a sphere
    code, out, err = run(capsys, "analyze", virtual)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["classical: no", "monotone: yes"]
    # unsigned, the code cannot tell; records, --quiet and batch are as before
    assert "classical" not in run(capsys, "analyze", "O1O2U1U2")[1]
    assert "classical" not in run(capsys, "analyze", virtual, "--quiet")[1]
    code, out, _ = run(capsys, "analyze", virtual, "--output", "records")
    assert (code, "classical" in out) == (0, False)


def test_analyze_quiet_keeps_only_the_summary_line(capsys):
    code, out, _ = run(capsys, "analyze", TREFOIL, "--quiet")
    assert code == 0
    assert out.splitlines() == ["d(D)=1 d(-D)=1 e=2 spn=1"]


def test_analyze_records_output(capsys):
    code, out, _ = run(capsys, "analyze", FIGURE8, "--output", "records")
    assert code == 0
    record = json.loads(out)
    assert record["crossings"] == 4
    assert record["e"] == 3
    assert record["spn"] == 1
    assert record["monotone"] is False
    assert record["canonical"] == serialize(parse_gauss(FIGURE8))


def test_analyze_reads_codes_from_files(capsys, tmp_path):
    path = tmp_path / "diagram.txt"
    path.write_text("# a trefoil\n" + TREFOIL + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path), "--quiet")
    assert code == 0
    assert out.splitlines() == ["d(D)=1 d(-D)=1 e=2 spn=1"]


def test_analyze_respects_the_format_flag(capsys):
    code, out, _ = run(capsys, "analyze", "4 6 2", "--format", "dt",
                       "--quiet")
    assert code == 0
    assert "e=2" in out


def test_analyze_rejects_garbage_with_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "O1+U2+")  # open strand
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("fmt", ["pd", "auto"])
def test_analyze_refuses_a_pd_code_that_is_not_planar(capsys, fmt):
    # the virtual code O1+O2+U1+U2+ written as PD
    code, out, err = run(capsys, "analyze", "X(2,1,3,4) X(3,2,4,1)",
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: PD code is not planar: its faces do not make a sphere\n"


def test_analyze_treats_an_overlong_argument_as_a_code(capsys):
    diagram = twist_minimal(60)
    text = serialize(diagram)
    assert len(text.encode()) > 255  # longer than any file name may be
    code, out, err = run(capsys, "analyze", text, "--quiet")
    assert (code, err) == (0, "")
    s = summary(diagram)
    assert out == f"d(D)={s.d_forward} d(-D)={s.d_reverse} e={s.warping_sum} spn={s.span}\n"


@pytest.mark.parametrize("head, offset", [(b"", 24), (b"\xef\xbb\xbf", 27)],
                         ids=["plain", "marked"])
@pytest.mark.parametrize("command", ["analyze", "batch", "verify --table"])
def test_non_utf8_files_are_input_errors(capsys, tmp_path, command, head,
                                         offset):
    # the offset is the bad byte's in the file, byte-order mark included
    path = tmp_path / "latin1.txt"
    path.write_bytes(head + TREFOIL.encode() + b" # caf\xe9\n")
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path} is not UTF-8 text "
                   f"(invalid continuation byte at byte {offset})\n")


@pytest.mark.parametrize("argv, err", [
    (("analyze", "./latin1.txt"), "./latin1.txt is not UTF-8 text "
     "(invalid continuation byte at byte 3)"),
    (("batch", "./latin1.txt"), "./latin1.txt is not UTF-8 text "
     "(invalid continuation byte at byte 3)"),
    (("batch", ".//absent.txt"),
     "cannot read .//absent.txt: No such file or directory"),
    (("verify", "--table", "./x"), "cannot read ./x: No such file or directory"),
    (("verify", "--table", "./latin1.txt"), "./latin1.txt is not UTF-8 text "
     "(invalid continuation byte at byte 3)"),
    (("verify", "--table", "./bad.tbl"), "./bad.tbl: table entry '3_1': "
     "crossings must be an integer, got '3'"),
], ids=["analyze", "batch", "batch-absent", "verify-absent", "verify",
        "verify-entry"])
def test_a_file_is_named_in_errors_as_it_was_typed(capsys, tmp_path,
                                                  monkeypatch, argv, err):
    # deliberately not normalized: "./latin1.txt" is not shortened to
    # "latin1.txt", nor ".//absent.txt" to "absent.txt"
    (tmp_path / "latin1.txt").write_bytes(b"caf\xe9\n")
    (tmp_path / "bad.tbl").write_text(
        '{"format": "knots-table", "version": 1}\n'
        + json.dumps({"name": "3_1", "crossings": "3"}) + "\n",
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("name, reason", [
    ("./absent.txt", "No such file or directory"),
    ("adir", "Is a directory"),
    ("adir/", "Is a directory"),
    ("adir/absent # w/ comment", "No such file or directory"),
    ("sock", "No such device or address"),
], ids=["absent", "directory", "directory-slash", "absent-in-directory",
        "socket"])
@pytest.mark.parametrize("command", ["analyze", "oracle", "convert --to dt"])
def test_an_unreadable_file_argument_is_named_as_such(capsys, tmp_path,
                                                      monkeypatch, command,
                                                      name, reason):
    # a name that exists, whatever its kind, or holds a "/" outside
    # comments is a file's, as it is for batch: no code holds a "/"
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind("sock")  # relative: a socket path may be 108 bytes at most
        subcommand, *options = command.split()
        assert run(capsys, subcommand, name, *options) == \
            (2, "", f"error: cannot read {name}: {reason}\n")


def test_a_slash_in_a_comment_leaves_an_argument_a_code(capsys):
    code, out, err = run(capsys, "analyze", "--quiet",
                         f"{TREFOIL} # 3_1 w/ signs")
    assert (code, out, err) == (0, "d(D)=1 d(-D)=1 e=2 spn=1\n", "")


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize("command", ["batch", "verify --table"])
def test_a_name_with_a_line_break_is_named_on_one_line(capsys, tmp_path,
                                                       monkeypatch, command,
                                                       brk):
    monkeypatch.chdir(tmp_path)
    name = f"a{brk}b/c"
    assert run(capsys, *command.split(), name) == (2, "", (
        f"error: cannot read a{ascii(brk)[1:-1]}b/c: No such file or directory\n"))


def test_a_table_entry_name_with_a_line_break_is_named_on_one_line(
        capsys, tmp_path):
    record = {"name": "a\nb", "crossings": 3, "prime": True,
              "alternating": True, "minimal": ["O1+U2+"],
              "minimal_complete": True}
    path = tmp_path / "bad.tbl"
    path.write_text('{"format": "knots-table", "version": 1}\n'
                    + json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: a\\nb: bad diagram code 'O1+U2+'")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize("text", [
    f"# a comment{{brk}}{TREFOIL}",  # analyzed: the comment ends first
    f"{TREFOIL} # x{{brk}}{FIGURE8}",  # refused: crossing 1 four times
], ids=["code-after", "two-codes"])
def test_an_argument_and_a_code_file_end_a_comment_alike(capsys, tmp_path,
                                                         text, brk):
    text = text.format(brk=brk)
    path = tmp_path / "code.txt"
    path.write_text(text, encoding="utf-8", newline="")
    by_argument = run(capsys, "analyze", "--quiet", text)
    assert by_argument == run(capsys, "analyze", "--quiet", str(path))
    assert by_argument[0] == (0 if text.startswith("#") else 2)


@pytest.mark.parametrize("argv", [
    ("analyze", "{file}"), ("analyze", "{file}", "--output", "records"),
    ("batch", "{file}"), ("batch", "{file}", "--output", "records"),
    ("verify", "--quiet", "--table", "{file}"),
], ids=" ".join)
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, argv):
    from warpdeg.table import default_table_path

    if argv[0] == "verify":
        with open(default_table_path(), "rb") as table:
            text = table.read()
    elif argv[0] == "analyze":
        text = f"# a figure eight\n{FIGURE8}\n".encode()
    else:  # a comment line, a failing line, and Gauss, DT and PD lines
        text = (f"# codes\n{TREFOIL}\nO1+U2+\n4 6 2\n"
                "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n").encode()
    outcomes = []
    for name, head in (("plain.txt", b""), ("marked.txt", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(head + text)
        outcomes.append(run(capsys, *(a.format(file=path) for a in argv)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == ""


@pytest.mark.parametrize("end", ["\u2028", "\x85", "\v"],
                         ids=["U+2028", "NEL", "VT"])
def test_a_code_file_is_cut_into_the_lines_that_batch_numbers(capsys, tmp_path,
                                                              end):
    # the comment ends where batch's line 1 ends, so line 2's code is read
    path = tmp_path / "codes.txt"
    path.write_bytes(f"# a trefoil{end}{TREFOIL}\n".encode())
    assert run(capsys, "batch", str(path)) == (
        0, "line 2: d(D)=1 d(-D)=1 e=2 spn=1\nbatch: 0 failed line(s)\n", "")
    assert run(capsys, "analyze", str(path), "--quiet") == (
        0, "d(D)=1 d(-D)=1 e=2 spn=1\n", "")
    assert (run(capsys, "convert", str(path), "--to", "dt")
            == run(capsys, "convert", TREFOIL, "--to", "dt"))
    # the lines of one file make one code: a second code is not a comment
    path.write_bytes(f"{TREFOIL} # a trefoil{end}{FIGURE8}\n".encode())
    assert run(capsys, "analyze", str(path)) == (
        2, "", "error: crossing 1 appears 4 time(s), expected 2\n")


def test_batch_cuts_each_comment_once_and_nothing_else(capsys, tmp_path,
                                                     monkeypatch):
    # batch's own cut leaves no "#" for the detector and parsers to cut again
    lines = ["# codes", "#", TREFOIL, f"{TREFOIL} # a trefoil", "4 6 2",
             "4 6 2#dt", "", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) # pd", FIGURE8,
             "O1+U2+ # refused"]
    path = tmp_path / "codes.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    comment, cut = codes._COMMENT, []

    class Counting:
        def sub(self, repl, text):
            cut.append(text)
            return comment.sub(repl, text)

    monkeypatch.setattr(codes, "_COMMENT", Counting())
    assert main(["batch", str(path)]) == 1
    assert "line 10: ERROR" in capsys.readouterr().out
    assert cut == [line for line in lines if "#" in line]


# argparse takes an argument that starts with "-" for an option unless it
# holds a space or its private _negative_number_matcher calls it a number;
# cli widens that matcher, so this pins what a private attribute provides
@pytest.mark.parametrize("argv", [
    ("analyze", "{code}", "--quiet"),
    ("oracle", "{code}", "--output", "records"),
    ("convert", "{code}", "--to", "gauss"),
], ids=lambda argv: argv[0])
def test_a_code_may_start_with_a_minus_sign(capsys, argv):
    dense = run(capsys, *(a.format(code="-4,-6,-2") for a in argv))
    assert dense[0] == 0
    assert dense == run(capsys, *(a.format(code="-4 -6 -2") for a in argv))
    # "-" and a letter still starts an option, one that no subcommand has
    code, out, err = run(capsys, *(a.format(code="-x") for a in argv))
    assert (code, out) == (2, "") and err.startswith("usage:")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_on_a_bundled_diagram(capsys):
    code, out, _ = run(capsys, "oracle", FIGURE8)
    assert code == 0
    assert out.splitlines()[-1] == "verdict: AGREE"


def test_oracle_random_batches_are_deterministic(capsys):
    argv = ("oracle", "--random", "12", "--max-crossings", "6",
            "--seed", "3", "--output", "records")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0
    records = [json.loads(line) for line in first[1].splitlines()]
    assert len(records) == 12
    assert all(record["agree"] for record in records)


def test_oracle_random_text_ends_in_one_verdict_line(capsys):
    code, out, err = run(capsys, "oracle", "--random", "12", "--max-crossings",
                         "6", "--seed", "3")
    assert (code, out, err) == (0, "verdict: 12 random codes, all agree\n", "")


def test_oracle_random_text_prints_each_disagreement(capsys, monkeypatch):
    # a faulty engine, off by one on the 4-crossing code only
    honest = cli.warping_degree
    monkeypatch.setattr(cli, "warping_degree",
                        lambda d: honest(d) + (d.crossings == 4))
    code, out, err = run(capsys, "oracle", "--random", "3", "--max-crossings",
                         "4", "--seed", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "DISAGREE O1-O2-U3-U1-O3-U4+O4+U2-: oracle=2 engine=3",
        "verdict: 3 random codes, 1 disagreement(s)",
    ]


def test_oracle_needs_a_code_or_a_random_count(capsys):
    assert run(capsys, "oracle")[0] == 2


@pytest.mark.parametrize("source", [(FIGURE8,), ("--random", "3")],
                         ids=["code", "random"])
def test_oracle_rejects_a_negative_cap(capsys, source):
    code, out, err = run(capsys, "oracle", *source, "--oracle-cap", "-1")
    assert (code, out) == (2, "")
    assert err == "error: cap must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (("--random", "-1"), "count must be >= 0, got -1"),
    (("--random", "3", "--max-crossings", "0"), "max_crossings must be >= 1, got 0"),
], ids=["count", "max-crossings"])
def test_oracle_random_names_the_bad_parameter(capsys, argv, message):
    code, out, err = run(capsys, "oracle", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--max-crossings", "17", "--seed", "3", "--output", "records"),
     "--max-crossings 17 > --oracle-cap 16; subset search is exponential"),
    (("--oracle-cap", "5"),
     "--max-crossings 8 (the default) > --oracle-cap 5; subset search is exponential"),
], ids=["default-cap", "default-bound"])
def test_oracle_random_rejects_a_bound_above_the_cap_before_any_output(
        capsys, argv, message):
    code, out, err = run(capsys, "oracle", "--random", "40", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_oracle_cap_default_and_help_are_the_oracles_own(capsys):
    # the parser holds its own copy, so that no other command imports oracle
    from warpdeg.oracle import ORACLE_CAP

    args = cli._build_parser().parse_args(["oracle", "--random", "1"])
    assert args.oracle_cap == ORACLE_CAP
    code, out, _ = run(capsys, "oracle", "--help")
    assert code == 0
    assert f"crossing cap for subset search (default {ORACLE_CAP})" in " ".join(out.split())


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_twist_matches_the_library(capsys):
    code, out, _ = run(capsys, "generate", "twist", "--n", "3")
    assert code == 0
    assert out.strip() == serialize(twist_minimal(3))


def test_generate_supports_all_notations(capsys):
    for family, params in (("twist", ("--n", "4")),
                           ("rational", ("--p", "3", "--q", "2")),
                           ("ozawa", ("--n", "2"))):
        gauss = run(capsys, "generate", family, *params)[1].strip()
        dt = run(capsys, "generate", family, *params, "--format", "dt")[1]
        pd = run(capsys, "generate", family, *params, "--format", "pd")[1]
        assert gauss and dt.strip() and pd.strip().startswith("X(")
        code, out, _ = run(capsys, "analyze", gauss, "--output", "records")
        assert code == 0


def test_generated_ozawa_has_sum_two(capsys):
    gauss = run(capsys, "generate", "ozawa", "--n", "5")[1].strip()
    code, out, _ = run(capsys, "analyze", gauss, "--quiet")
    assert code == 0
    assert "e=2" in out


@pytest.mark.parametrize("notation", ("gauss", "dt", "pd"))
@pytest.mark.parametrize("argv", (
    ("twist", "--n", "0"),
    ("ozawa", "--n", "0"),
    ("rational", "--p", "0", "--q", "2"),
    ("rational", "--p", "1", "--q", "1"),  # a two-component closure
), ids=" ".join)
def test_generate_rejects_bad_parameters_in_every_notation(capsys, argv,
                                                          notation):
    code, out, err = run(capsys, "generate", *argv, "--format", notation)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_generate_requires_family_parameters(capsys):
    assert run(capsys, "generate", "twist")[0] == 2
    assert run(capsys, "generate", "ozawa")[0] == 2
    assert run(capsys, "generate", "rational", "--p", "2")[0] == 2


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_reports_good_and_bad_lines(capsys, tmp_path):
    path = tmp_path / "codes.txt"
    path.write_text(
        "# comment only\n"
        f"{TREFOIL}\n"
        "\n"
        "O1+U2+  # does not close up\n"
        f"{FIGURE8}   # trailing comment\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "batch", str(path), "--output", "records")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["line"] for r in records] == [2, 4, 5]
    assert "error" in records[1]
    assert records[2]["e"] == 3


def test_batch_of_a_missing_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "absent.txt"
    code, out, err = run(capsys, "batch", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [("batch", "a\0b"),
                                  ("verify", "--table", "a\0b")],
                         ids=["batch", "verify"])
def test_a_nul_byte_in_a_file_name_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read ") and "null byte" in err


def test_batch_of_clean_lines_exits_zero(capsys, tmp_path):
    path = tmp_path / "codes.txt"
    path.write_text(f"{TREFOIL}\n{FIGURE8}\n", encoding="utf-8")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "batch: 0 failed line(s)"


def _mixed_batch_text(lines: int = 2000) -> str:
    """Seeded batch input, built without warpdeg: Gauss and DT codes.

    Gauss codes carry shuffled labels out of 1..99 and random separators;
    every fifth one is unsigned.  Every tenth line is a signed DT code.
    One comment line, one blank line, one trailing comment and one line
    that does not close up are mixed in.
    """
    rng = random.Random(23)
    out = []
    for i in range(lines):
        c = rng.randint(1, 12)
        if i % 10 == 9:
            evens = [rng.choice((1, -1)) * e for e in range(2, 2 * c + 1, 2)]
            rng.shuffle(evens)
            out.append(" ".join(map(str, evens)))
            continue
        names = rng.sample(range(1, 100), c)
        slots = list(range(2 * c))
        rng.shuffle(slots)
        visits = [""] * (2 * c)
        for name in names:
            over = rng.random() < 0.5
            mark = "" if i % 5 == 4 else rng.choice("+-")
            visits[slots.pop()] = f"{'O' if over else 'U'}{name}{mark}"
            visits[slots.pop()] = f"{'U' if over else 'O'}{name}{mark}"
        out.append(rng.choice(("", " ", ",")).join(visits))
    out[3] += "  # trailing comment"
    out[100:100] = ["# comment only", "", "O1+U2+"]
    return "\n".join(out) + "\n"


# The records of one seeded mixed corpus: a change to the canonical form,
# the engine or the record writer changes the digest.
BATCH_RECORDS_SHA256 = (
    "91d19e777f39c09989e48cb67e326cc0fd1eaf21928ee0a32037ccd9c2d67a9b"
)
# Its text output, footer included: the line numbers are counted by hand, so
# a blank, comment or failed line that stopped counting changes the digest.
BATCH_TEXT_SHA256 = (
    "61329b8f8fb45f08e60eaab2a89e6afd0dae5434db09bd655b26eca618bcea8d"
)


def test_batch_records_on_a_seeded_corpus_are_pinned(capsys, tmp_path):
    path = tmp_path / "codes.txt"
    path.write_text(_mixed_batch_text(), encoding="utf-8")
    code, out, _ = run(capsys, "batch", str(path), "--output", "records")
    assert code == 1
    assert len(out.splitlines()) == 2001
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        BATCH_RECORDS_SHA256


def test_batch_text_on_a_seeded_corpus_is_pinned(capsys, tmp_path):
    path = tmp_path / "codes.txt"
    path.write_text(_mixed_batch_text(), encoding="utf-8")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    assert out.splitlines()[-1] == "batch: 1 failed line(s)"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        BATCH_TEXT_SHA256


# ---------------------------------------------------------------------------
# the file reader
# ---------------------------------------------------------------------------

def test_read_lines_is_the_only_code_that_opens_a_file():
    # one reader keeps one rule for marks, line ends and fault messages;
    # os.open, an attribute call, writes no file that warpdeg reads
    inside, outside = [], []
    for path in sorted((SRC / "warpdeg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and (path.name, function.name) == ("errors.py", "read_lines")
                  for node in ast.walk(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("open", "get_data")):
                where = inside if id(node) in reader else outside
                where.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert outside == []
    assert [call.split()[1] for call in inside] == ["open", "get_data"]


_PIECES = ("a", "O1+", "#", "\u00e9", "\U0001f600", "\r", "\n", "\r\n", "\v",
           "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\ufeff")


# Files past two 8 KiB blocks, so that a piece can straddle a cut and a line
# can span several blocks; the examples put a "\r\n", a U+FEFF and a 4-byte
# character across the cut at byte 8192, and one line across three blocks.
@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=20).map("".join),
       head=st.sampled_from((b"", b"\xef\xbb\xbf")),
       copies=st.integers(1, 3000))
@example(text="a\r\n", head=b"", copies=2731)
@example(text="\ufeffa\n", head=b"", copies=4000)
@example(text="\U0001f600", head=b"\xef\xbb\xbf", copies=5000)
def test_batch_numbers_the_lines_that_splitlines_cuts(text, head, copies):
    data = head + text.encode("utf-8") * copies
    expected = data.decode("utf-8-sig").splitlines()  # all of the file at once
    with tempfile.TemporaryDirectory() as tmp:
        drawn, plain = Path(tmp, "drawn.txt"), Path(tmp, "plain.txt")
        drawn.write_bytes(data)
        # the same lines, each ended by "\n" alone; a leading mark, so that
        # a U+FEFF starting the first line is kept
        plain.write_bytes(b"\xef\xbb\xbf" + "\n".join(expected).encode("utf-8"))
        assert list(read_lines(str(drawn))) == expected
        outputs = []
        for path in (drawn, plain):
            out = io.StringIO()
            with redirect_stdout(out):
                status = main(["batch", str(path), "--output", "records"])
            outputs.append((status, out.getvalue()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("copies, tail, err", [
    (1, b"x\xe9y\n", "invalid continuation byte at byte 43"),
    (1, b"O1+U1+ \xe2\x82", "unexpected end of data at byte 49"),
    (901, b"x\xe9y\n", "invalid continuation byte at byte 17143"),
], ids=["invalid", "truncated", "third-block"])
def test_batch_reports_a_late_decode_fault_where_the_reader_meets_it(
        capsys, tmp_path, copies, tail, err):
    # the mark, the first line and the blank one take 23 bytes, each further
    # line 19; the third-block case's bad byte lies past 16 KiB
    path = tmp_path / "late.txt"
    path.write_bytes(f"\ufeff{TREFOIL}\n\n".encode()
                     + f"{TREFOIL}\n".encode() * copies + tail)
    code, out, got = run(capsys, "batch", str(path))
    assert code == 2
    assert out == "".join(f"line {n}: d(D)=1 d(-D)=1 e=2 spn=1\n"
                          for n in (1, *range(3, 3 + copies)))
    assert got == f"error: {path} is not UTF-8 text ({err})\n"


def test_batch_reads_a_pipe_as_it_reads_a_file(tmp_path):
    data = (f"\ufeff# codes\r\n{TREFOIL}\r\nO1+U2+\n4 6 2\r"
            f"{FIGURE8}\u2028X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)").encode()
    path = tmp_path / "codes.txt"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    outputs = []
    for name, given_input in ((str(path), None), ("/dev/stdin", data)):
        proc = subprocess.run(
            [sys.executable, "-m", "warpdeg.cli", "batch", name,
             "--output", "records"],
            input=given_input, capture_output=True, env=env)
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and outputs[0][1].count(b"\n") == 5


def _batch_peak(path: Path, output: str = "records") -> int:
    """The tracemalloc peak of a batch over ``path``."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            main(["batch", str(path), "--output", output])
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()


def test_batch_memory_does_not_grow_with_the_number_of_lines(tmp_path):
    # reading the whole file and its list of lines, the peaks read 0.38 MB
    # on 2k lines and 3.35 MB on 20k; in 8 KiB blocks cut at a line end,
    # 0.13 and 0.10 MB
    short, long = tmp_path / "short.txt", tmp_path / "long.txt"
    short.write_text(_mixed_batch_text(2_000), encoding="utf-8")
    long.write_text(_mixed_batch_text(20_000), encoding="utf-8")
    _batch_peak(short)  # the encoder and the pattern caches, made once
    small, large = _batch_peak(short), _batch_peak(long)
    assert large < 500_000
    assert large - small < 100_000


@pytest.mark.parametrize("output, bound", [
    ("text", 2_450_000),
    ("records", 4_700_000),
])
def test_batch_holds_one_line_and_one_diagram_at_a_time(tmp_path, output,
                                                        bound):
    # two lines of 10⁴ crossings; when the reader's list of the cut and the
    # loop's enumerate pair kept each line alive, with the cut's bytes, and
    # the last diagram and record lived on through the next parse, the peaks
    # read 2.88 MB (text) and 5.11 MB (records); with each dropped at its
    # last use, 2.02 and 4.24 MB
    text = _seeded_text()
    path = tmp_path / "two.txt"
    path.write_text(f"{text}\n{text}\n", encoding="utf-8")
    small = tmp_path / "small.txt"
    small.write_text(f"{TREFOIL}\n", encoding="utf-8")
    _batch_peak(small, output)  # the encoder and the pattern caches
    assert _batch_peak(path, output) < bound


# ---------------------------------------------------------------------------
# the cyclic collector
# ---------------------------------------------------------------------------

def _lines_file(tmp_path: Path, text: str) -> str:
    path = tmp_path / "codes.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, status", [
    (("analyze", TREFOIL), 0),
    (("batch", "{file}"), 1),
    (("analyze", "Q1"), 2),
])
def test_main_pauses_the_collector_only_while_a_command_runs(
        capsys, tmp_path, monkeypatch, argv, status):
    file = _lines_file(tmp_path, f"{TREFOIL}\nO1+U2+\n")
    during = []

    def watched(command):
        def watched_command(args):
            during.append(gc.isenabled())
            return command(args)
        return watched_command

    for name in ("_cmd_analyze", "_cmd_batch"):
        monkeypatch.setattr(cli, name, watched(getattr(cli, name)))
    assert gc.isenabled()
    assert run(capsys, *(a.format(file=file) for a in argv))[0] == status
    assert gc.isenabled()
    assert during == [False]


def test_main_leaves_a_paused_collector_paused(capsys):
    gc.disable()
    try:
        assert run(capsys, "analyze", TREFOIL)[0] == 0
        assert run(capsys, "analyze", "Q1")[0] == 2
        assert not gc.isenabled()
    finally:
        gc.enable()


def _garbage_after_batch(capsys, tmp_path: Path, copies: int) -> int:
    mixed = f"{TREFOIL}\nQ1\n4 6 2\nO1 O1\n{FIGURE8}\n4 6 3\nO1+U2+\n"
    file = _lines_file(tmp_path, mixed * copies)
    gc.disable()
    try:
        gc.collect()
        assert run(capsys, "batch", file, "--output", "records")[0] == 1
        return gc.collect()
    finally:
        gc.enable()


def test_batch_leaves_no_cyclic_garbage_that_grows_with_the_input(
        capsys, tmp_path):
    assert (_garbage_after_batch(capsys, tmp_path, 10)
            == _garbage_after_batch(capsys, tmp_path, 40))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_bundled_table_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "ALL CHECKS PASSED (335 checks)"


def test_verify_quiet_prints_one_line(capsys):
    code, out, _ = run(capsys, "verify", "--quiet")
    assert code == 0
    assert out.splitlines() == ["ALL CHECKS PASSED (335 checks)"]


# A reordered or reworded row changes the digest; a deliberate change to
# the bundled table updates it.
VERIFY_RECORDS_SHA256 = (
    "303938a00b56c8c287827468c2f3e34447b4096ca2e69a70db8bd86fc6839321"
)


def test_verify_output_on_the_bundled_table_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--output", "records")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        VERIFY_RECORDS_SHA256
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "ALL CHECKS PASSED (335 checks)"


def test_verify_records_mode_lists_every_check(capsys):
    code, out, _ = run(capsys, "verify", "--output", "records")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 335
    assert all(row["passed"] for row in rows)
    assert {"check", "scope", "passed", "details"} == set(rows[0])


def _broken_table(tmp_path: Path) -> Path:
    from warpdeg.table import default_table_path

    out = []
    with open(default_table_path(), encoding="utf-8") as table:
        lines = table.read().splitlines()
    for line in lines:
        if '"name": "granny"' in line:
            obj = json.loads(line)
            obj["expected"]["e"] = 3
            line = json.dumps(obj)
        out.append(line)
    path = tmp_path / "broken.tbl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def test_verify_honors_the_table_environment_variable(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("WARPDEG_TABLE", str(_broken_table(tmp_path)))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL expected-e" in out


def test_verify_treats_an_empty_table_variable_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("WARPDEG_TABLE", "")
    code, out, _ = run(capsys, "verify", "--quiet")
    assert code == 0
    assert out.splitlines() == ["ALL CHECKS PASSED (335 checks)"]
    # an empty flag still names no file
    code, _, err = run(capsys, "verify", "--table", "")
    assert code == 2
    assert err == "error: the table path is empty\n"


def test_verify_table_flag_beats_the_environment(capsys, tmp_path,
                                                 monkeypatch):
    from warpdeg.table import default_table_path

    monkeypatch.setenv("WARPDEG_TABLE", str(_broken_table(tmp_path)))
    code, out, _ = run(capsys, "verify", "--table", default_table_path(),
                       "--quiet")
    assert code == 0
    assert out.splitlines() == ["ALL CHECKS PASSED (335 checks)"]


@pytest.mark.parametrize("field", (
    {"crossings": "3"}, {"twist": "1"}, {"expected": [1]},
    {"expected": {"e": "2"}}, {"minimal": [3]},
), ids=json.dumps)
def test_verify_of_a_wrongly_typed_table_is_an_input_error(capsys, tmp_path,
                                                          field):
    record = {"name": "3_1", "crossings": 3, "prime": True,
              "alternating": True, "minimal": [TREFOIL],
              "minimal_complete": True, **field}
    path = tmp_path / "typed.tbl"
    path.write_text('{"format": "knots-table", "version": 1}\n'
                    + json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: table entry '3_1': ")


@pytest.mark.parametrize("record, message", [
    ("[1]", "malformed table record: not an object"),
    ('{"name": "3_1"}', "malformed table record: no 'crossings'"),
    (json.dumps({"name": "3_1", "crossings": 3, "prime": True,
                 "alternating": True, "minimal": ["O1+U2+"],
                 "minimal_complete": True}),
     "3_1: bad diagram code 'O1+U2+'"),
], ids=["not-an-object", "missing-field", "bad-code"])
def test_verify_names_the_table_file_in_record_errors(capsys, tmp_path,
                                                      record, message):
    path = tmp_path / "bad.tbl"
    path.write_text('{"format": "knots-table", "version": 1}\n' + record
                    + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--table", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: {message}")


def test_verify_missing_table_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--table",
                       str(tmp_path / "absent.tbl"))
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_between_notations(capsys):
    from warpdeg.codes import dt_to_gauss, parse_dt

    want_dt = serialize(gauss_to_dt(parse_gauss(FIGURE8)))
    code, out, _ = run(capsys, "convert", FIGURE8, "--to", "dt")
    assert code == 0 and out.strip() == want_dt
    # back to gauss: strand roles survive, signs do not (DT carries none)
    code, out, _ = run(capsys, "convert", want_dt, "--format", "dt",
                       "--to", "gauss")
    assert code == 0
    assert out.strip() == serialize(dt_to_gauss(parse_dt(want_dt)))


# ---------------------------------------------------------------------------
# options: each subcommand accepts exactly the ones it reads
# ---------------------------------------------------------------------------

ACCEPTED = {
    "analyze": {"--format", "--output", "--quiet"},
    "oracle": {"--format", "--output", "--quiet", "--budget", "--oracle-cap",
               "--random", "--seed", "--max-crossings"},
    "generate": {"--n", "--p", "--q", "--format"},
    "batch": {"--format", "--output", "--quiet"},
    "verify": {"--output", "--quiet", "--table"},
    "convert": {"--format", "--to"},
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string the parser or its subparsers accept, but -h."""
    flags = set().union(*map(_flags, _subparsers(parser).values()))
    for action in parser._actions:
        if not isinstance(action, argparse._HelpAction):
            flags.update(action.option_strings)
    return flags


def test_each_subcommand_accepts_only_the_options_it_reads():
    commands = _subparsers(cli._build_parser())
    assert {name: _flags(p) for name, p in commands.items()} == ACCEPTED
    assert sum(map(len, ACCEPTED.values())) == 23
    kinds = _subparsers(commands["generate"])
    assert {name: _flags(p) for name, p in kinds.items()} == {
        "twist": {"--n", "--format"},
        "rational": {"--p", "--q", "--format"},
        "ozawa": {"--n", "--format"},
    }


# A valid invocation of each subcommand, and a valid value for each of the
# six options that used to be shared by all of them.
BASE = {
    "analyze": ("analyze", TREFOIL),
    "oracle": ("oracle", TREFOIL),
    "generate": ("generate", "twist", "--n", "2"),
    "batch": ("batch", "{file}"),
    "verify": ("verify",),
    "convert": ("convert", TREFOIL, "--to", "dt"),
}
SHARED = {"--format": ("dt",), "--output": ("records",), "--seed": ("3",),
          "--oracle-cap": ("5",), "--table": ("t.tbl",), "--quiet": ()}
UNREAD = [
    BASE[command] + (flag, *value)
    for command in BASE for flag, value in SHARED.items()
    if flag not in ACCEPTED[command]
] + [
    ("oracle", "--random", "3", "--budget", "0"),
    ("oracle", "--random", "3", "--format", "gauss"),
    ("oracle", "--random", "3", "--quiet"),
    ("oracle", TREFOIL, "--random", "3"),
    ("oracle", TREFOIL, "--seed", "3"),
    ("oracle", TREFOIL, "--max-crossings", "6"),
    ("generate", "twist", "--n", "2", "--p", "3"),
    ("generate", "ozawa", "--n", "2", "--q", "3"),
    ("generate", "rational", "--p", "2", "--q", "3", "--n", "2"),
    ("generate", "twist", "--n", "2", "--format", "auto"),
]


@pytest.mark.parametrize("argv", UNREAD, ids=" ".join)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys,
                                                            tmp_path, argv):
    file = _lines_file(tmp_path, f"{TREFOIL}\n")
    code, out, err = run(capsys, *(a.format(file=file) for a in argv))
    assert (code, out) == (2, "")
    assert sum("error:" in line for line in err.splitlines()) == 1


def _readme_commands() -> list[list[str]]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("warpdeg ")]


def test_the_readme_command_lines_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(ACCEPTED)
    for argv in commands:
        parser = cli._build_parser()
        cli._check_args(parser, parser.parse_args(argv))


# ---------------------------------------------------------------------------
# the CLI contract on any arguments
# ---------------------------------------------------------------------------

OLD_AND_NEW_FLAGS = sorted(set().union(*ACCEPTED.values(), SHARED, ["-h"]))
TOKENS = st.one_of(
    st.sampled_from(OLD_AND_NEW_FLAGS),
    st.sampled_from(["{file}", "gauss", "dt", "pd", "auto", "text",
                     "records", "twist", "rational", "ozawa", TREFOIL,
                     FIGURE8, "4 6 2", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
                     "O1+U2+", "O1 U1", "[[1,2", ""]),
    st.integers(min_value=-3, max_value=20).map(str),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(ACCEPTED)) | st.text(max_size=6),
       tokens=st.lists(TOKENS, max_size=6), data=st.binary(max_size=40))
@example(command="batch", tokens=["a\nb/c"], data=b"")
@example(command="verify", tokens=["--table", "x\ny"], data=b"")
@example(command="analyze", tokens=["foo\nbar"], data=b"")
@example(command="analyze", tokens=["X(1,4,2,5) foo\u2028bar"], data=b"")
def test_main_keeps_the_cli_contract_on_any_arguments(command, tokens, data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input"
        file.write_bytes(data)
        argv = [command, *(str(file) if t == "{file}" else t for t in tokens)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:  # argparse's usage error, or one line of our own
        text = err.getvalue()
        assert text.startswith("usage:") or (
            text.startswith("error: ") and len(text.splitlines()) == 1
            and text.endswith("\n")), text


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_unknown_subcommands_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_records_mode_is_byte_identical_across_runs(capsys):
    argv = ("analyze", FIGURE8, "--output", "records")
    assert run(capsys, *argv) == run(capsys, *argv)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "fallback"])
def test_the_record_writer_writes_what_json_dumps_writes(
        capsys, tmp_path, monkeypatch, c_encoder):
    import _json
    import json.encoder

    if not c_encoder:  # an interpreter without the C accelerator
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_encoder", None)
    written = []
    record = cli._record
    monkeypatch.setattr(cli, "_record",
                        lambda obj: written.append(obj) or record(obj))
    file = _lines_file(tmp_path, f"{TREFOIL}\nO\u00e91\n")  # a non-ASCII error
    for argv in (("batch", file), ("analyze", TREFOIL), ("oracle", TREFOIL),
                 ("oracle", "--random", "3"), ("verify",)):
        run(capsys, *argv, "--output", "records")
    assert isinstance(cli._encoder, _json.make_encoder) is c_encoder
    assert len(written) == 2 + 1 + 1 + 3 + 335
    assert "\u00e9" in written[1]["error"]
    for obj in written:
        assert record(obj) == json.dumps(obj, sort_keys=True,
                                         separators=(",", ":"))


def test_a_stdout_closed_by_its_reader_is_exit_2_without_a_traceback():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set on this platform")
    # a one-page pipe, so the output cannot all fit before it is closed
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "warpdeg.cli", "verify", "--output", "records"],
        stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    os.close(write_end)
    with os.fdopen(read_end) as stdout:
        first = stdout.readline()
    err = proc.stderr.read()
    proc.stderr.close()
    assert json.loads(first)["check"] == "entry-valid"
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert err.splitlines() == ["error: standard output was closed"]


@pytest.mark.parametrize("argv", [
    ("generate", "twist", "--n", "100000000"),
    ("oracle", "--random", "1", "--max-crossings", "100000000",
     "--oracle-cap", "100000000"),
], ids=["generate", "oracle-random"])
def test_running_out_of_memory_is_exit_2_without_a_traceback(argv):
    resource = pytest.importorskip("resource")
    limit = 200 * 2 ** 20  # bytes of address space, in the child alone

    def limited():  # runs in the child before it starts Python; a failure
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))  # stops it

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "warpdeg.cli", *argv],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limited, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: out of memory\n")


# ---------------------------------------------------------------------------
# what a run loads
# ---------------------------------------------------------------------------

def _fresh_python(*args: str, pythonpath: str = str(SRC), cwd=None):
    """A new ``python -S`` process: no site .pth file hides or fakes an import."""
    env = {key: value for key, value in os.environ.items()
           if key != "WARPDEG_TABLE"}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": pythonpath},
                          cwd=cwd)


def test_analyze_and_batch_load_neither_the_table_nor_dataclasses(tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text(f"{TREFOIL}\nO1+O2+U1+U2+\n", encoding="utf-8")
    script = (
        "import sys\n"
        "from warpdeg import cli\n"
        "heavy = ('dataclasses', 'inspect', 'warpdeg.table', 'warpdeg.bracket',\n"
        "         'warpdeg.oracle', 'pathlib')\n"
        "def loaded():\n"
        "    print('loaded:', [name for name in heavy if name in sys.modules])\n"
        f"assert cli.main(['batch', {str(codes)!r}, '--output', 'records']) == 0\n"
        f"assert cli.main(['batch', {str(codes)!r}]) == 0\n"
        "assert cli.main(['analyze', 'O1-U1-', '--quiet']) == 0\n"
        "assert cli.main(['analyze', 'O1-U1-', '--output', 'records']) == 0\n"
        "loaded()\n"
        "assert cli.main(['analyze', 'O1-U1-']) == 0\n"
        "loaded()\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    # only a signed code's text analysis asks is_classical
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("loaded:")] == ["loaded: []",
                                               "loaded: ['warpdeg.bracket']"]


def test_verify_leaves_pathlib_unimported():
    script = (
        "import sys\n"
        "from warpdeg import cli\n"
        "from warpdeg.table import load_table\n"
        "assert len(load_table()) == 37\n"
        "assert cli.main(['verify', '--quiet']) == 0\n"
        "print('pathlib' in sys.modules)\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_certify_api_loads_none_of_dataclasses_inspect_and_typing():
    # the names perfbench/certify.py imports, each run once
    script = (
        "import sys\n"
        "from warpdeg import (determinant, kauffman_bracket, load_table,\n"
        "    min_changes_to_monotone, ozawa_twist, parse_gauss, twist_minimal,\n"
        "    verify_paper)\n"
        "assert determinant(twist_minimal(1)) == 3\n"
        "assert kauffman_bracket(ozawa_twist(2)).coefficients\n"
        "assert min_changes_to_monotone(parse_gauss('O1+U2+O3+U1+O2+U3+')).changes == 1\n"
        "assert verify_paper(load_table()).passed\n"
        "heavy = ('dataclasses', 'inspect', 'typing')\n"
        "print('loaded:', [name for name in heavy if name in sys.modules])\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"


def test_verify_reads_the_bundled_table_from_a_zip_archive(tmp_path):
    import zipfile

    archive = tmp_path / "warpdeg.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in sorted((SRC / "warpdeg").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(SRC).as_posix())
    proc = _fresh_python("-m", "warpdeg.cli", "verify", "--quiet",
                         pythonpath=str(archive), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() == "ALL CHECKS PASSED (335 checks)"


def test_verify_names_a_table_missing_from_a_zip_archive(tmp_path):
    import zipfile

    archive = tmp_path / "warpdeg.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in sorted((SRC / "warpdeg").rglob("*")):
            if (path.is_file() and "__pycache__" not in path.parts
                    and path.name != "knots.tbl"):
                bundle.write(path, path.relative_to(SRC).as_posix())
    proc = _fresh_python("-m", "warpdeg.cli", "verify",
                         pythonpath=str(archive), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: cannot read {archive}/warpdeg/data/knots.tbl: "
        "member missing from the archive"
    ]


def test_the_declared_console_script_runs_verify():
    # runs where the package is not installed, unlike the test below
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text("utf-8"))
    module, attr = pyproject["project"]["scripts"]["warpdeg"].split(":")
    script = (
        "import importlib, sys\n"
        f"main = getattr(importlib.import_module({module!r}), {attr!r})\n"
        "sys.exit(main(['verify', '--quiet']))\n"
    )
    proc = _fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip() == "ALL CHECKS PASSED (335 checks)"


@pytest.mark.skipif(shutil.which("warpdeg") is None,
                    reason="entry point not installed")
def test_installed_entry_point_runs_verify():
    proc = subprocess.run(["warpdeg", "verify", "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ALL CHECKS PASSED (335 checks)"
