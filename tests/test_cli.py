"""Command-line behavior: output shapes, exit codes, determinism."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from warpdeg import cli
from warpdeg.cli import main
from warpdeg.codes import gauss_to_dt, parse_gauss, serialize
from warpdeg.families import twist_minimal
from warpdeg.warping import summary

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


def test_analyze_treats_an_overlong_argument_as_a_code(capsys):
    diagram = twist_minimal(60)
    text = serialize(diagram)
    assert len(text.encode()) > 255  # longer than any file name may be
    code, out, err = run(capsys, "analyze", text, "--quiet")
    assert (code, err) == (0, "")
    s = summary(diagram)
    assert out == f"d(D)={s.d_forward} d(-D)={s.d_reverse} e={s.warping_sum} spn={s.span}\n"


@pytest.mark.parametrize("command", ["analyze", "batch", "verify --table"])
def test_non_utf8_files_are_input_errors(capsys, tmp_path, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(TREFOIL.encode() + b" # caf\xe9\n")
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path} is not UTF-8 text "
                   "(invalid continuation byte at byte 24)\n")


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


def test_oracle_needs_a_code_or_a_random_count(capsys):
    assert run(capsys, "oracle")[0] == 2


@pytest.mark.parametrize("source", [(FIGURE8,), ("--random", "3")],
                         ids=["code", "random"])
def test_oracle_rejects_a_negative_cap(capsys, source):
    code, out, err = run(capsys, "oracle", *source, "--oracle-cap", "-1")
    assert (code, out) == (2, "")
    assert err == "error: cap must be nonnegative, got -1\n"


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
    for line in default_table_path().read_text(encoding="utf-8").splitlines():
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


def test_verify_table_flag_beats_the_environment(capsys, tmp_path,
                                                 monkeypatch):
    from warpdeg.table import default_table_path

    monkeypatch.setenv("WARPDEG_TABLE", str(_broken_table(tmp_path)))
    code, out, _ = run(capsys, "verify", "--table",
                       str(default_table_path()), "--quiet")
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


def test_convert_to_pd_is_not_supported(capsys):
    code, _, err = run(capsys, "convert", TREFOIL, "--to", "pd")
    assert code == 2
    assert "planar embedding" in err


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
def test_main_keeps_the_cli_contract_on_any_arguments(command, tokens, data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input"
        file.write_bytes(data)
        argv = [command, *(str(file) if t == "{file}" else t for t in tokens)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert sum("error:" in line
                   for line in err.getvalue().splitlines()) == 1


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_unknown_subcommands_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_records_mode_is_byte_identical_across_runs(capsys):
    argv = ("analyze", FIGURE8, "--output", "records")
    assert run(capsys, *argv) == run(capsys, *argv)


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
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    script = (
        "import sys\n"
        "from warpdeg import cli\n"
        f"assert cli.main(['batch', {str(empty)!r}, '--output', 'records']) == 0\n"
        "assert cli.main(['analyze', 'O1-U1-']) == 0\n"
        "heavy = ('dataclasses', 'inspect', 'warpdeg.table', 'warpdeg.bracket')\n"
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


@pytest.mark.skipif(shutil.which("warpdeg") is None,
                    reason="entry point not installed")
def test_installed_entry_point_runs_verify():
    proc = subprocess.run(["warpdeg", "verify", "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ALL CHECKS PASSED (335 checks)"
