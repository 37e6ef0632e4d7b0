"""Command-line front end.

Subcommands: ``analyze`` (all warping quantities of one diagram),
``oracle`` (brute-force cross-check of the warping degree), ``generate``
(family diagrams), ``batch`` (analyze a file of codes), ``verify`` (the
theorem suite over the bundled table) and ``convert`` (notation
transcoding).

Each subcommand accepts only the options it reads; any other option is
a usage error.  Exit codes: 0 success, 1 failed checks (verify failures,
oracle disagreement, failed batch lines), 2 usage or input errors.  An
input error is one ``error:`` line on stderr: a line break in a name it
quotes is written as ``repr`` escapes it.  Running out of memory is an
error too (``error: out of memory``), and so is a standard output closed
by its reader (``warpdeg verify | head -1``), whose rest is then dropped.
Neither shows a traceback.
``analyze``, ``oracle``, ``batch`` and ``verify`` take ``--output
records``: every result is then one JSON line with sorted keys, so
identical invocations produce byte-identical output.

A module that only some commands run is imported where it is used: the
knot table by ``verify``, the families by ``generate``, the oracle by
``oracle``, ``json`` by record output.  A ``batch`` or ``analyze`` run
then starts with the parser and the warping engine alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .codes import (
    GaussCode,
    _LINE_BREAKS,
    _strip_comments,
    detect_notation,
    dt_to_gauss,
    gauss_to_dt,
    parse_dt,
    parse_gauss,
    parse_pd,
    serialize,
)
from .diagram import from_gauss
from .errors import CapExceeded, WarpingError, read_lines
from .warping import summary, warping_degree

_ENV_TABLE = "WARPDEG_TABLE"
_ORACLE_CAP = 16  # oracle.ORACLE_CAP, which only the oracle command imports
# each character that str.splitlines breaks at, to the escape repr shows for it
_BREAKS = {ord(c): repr(c)[1:-1] for c in _LINE_BREAKS}


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


_encoder = None  # _record's encoder, built on first use


def _record(obj: dict) -> str:
    """One compact JSON record, keys sorted, by one encoder per process.

    ``JSONEncoder.encode`` builds a new C encoder on every call; this one is
    built once, from the arguments that ``encode`` would pass it.
    """
    global _encoder
    if _encoder is None:
        import json.encoder as js

        options = js.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                 check_circular=False)  # records are flat
        if js.c_make_encoder is None:
            _encoder = lambda obj, _: (options.encode(obj),)
        else:
            _encoder = js.c_make_encoder(
                None, options.default, js.encode_basestring_ascii, None,
                options.key_separator, options.item_separator,
                options.sort_keys, options.skipkeys, options.allow_nan)
    return "".join(_encoder(obj, 0))


def _read_input(value: str) -> str:
    """The argument itself, or the lines of the file it names, joined: it
    names one when it exists, whatever its kind, or holds a "/" outside
    comments, as no code does; ``read_lines`` then names any fault."""
    # exists is False too for a name the OS refuses, e.g. one too long
    if os.path.exists(value) or "/" in _strip_comments(value):
        return "\n".join(read_lines(value))
    return value


def _parse_code(text: str, notation: str | None) -> GaussCode:
    kind = detect_notation(text) if notation in (None, "auto") else notation
    if kind == "gauss":
        return parse_gauss(text)
    if kind == "dt":
        return dt_to_gauss(parse_dt(text))
    from .bracket import pd_to_gauss  # here, off the batch cold start
    return pd_to_gauss(parse_pd(text))


def _summary_line(s) -> str:
    return f"d(D)={s.d_forward} d(-D)={s.d_reverse} e={s.warping_sum} spn={s.span}"


def _analysis_record(diagram: GaussCode) -> dict:
    s = summary(diagram)
    return {
        "canonical": serialize(diagram),
        "crossings": s.crossings,
        "d": s.d_forward,
        "d_rev": s.d_reverse,
        "e": s.warping_sum,
        "spn": s.span,
        "monotone": s.d_forward == 0,
        "profile": s.profile,
        "polynomial": s.polynomial,
    }


def _print_analysis(diagram: GaussCode, args) -> None:
    if args.output == "records":
        _emit(_record(_analysis_record(diagram)))
        return
    s = summary(diagram)
    if not args.quiet:
        _emit(f"crossings: {s.crossings}")
    _emit(_summary_line(s))
    if not args.quiet:
        _emit("profile: " + " ".join(str(x) for x in s.profile))
        _emit("polynomial: " + (" + ".join(
            f"{c}*t^{k}" for k, c in enumerate(s.polynomial) if c) or "0"))
        if diagram.has_all_signs():
            from .bracket import is_classical
            if not is_classical(diagram):
                _emit("classical: no")
        _emit(f"monotone: {'yes' if s.d_forward == 0 else 'no'}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    diagram = from_gauss(_parse_code(_read_input(args.code), args.format))
    _print_analysis(diagram, args)
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import min_changes_to_monotone

    if args.random is not None:
        return _oracle_random(args)
    diagram = from_gauss(_parse_code(_read_input(args.code), args.format))
    result = min_changes_to_monotone(diagram, budget=args.budget,
                                     cap=args.oracle_cap)
    degree = warping_degree(diagram)
    agree = result.changes == degree
    if args.output == "records":
        _emit(_record({
            "oracle": result.changes,
            "witness": list(result.witness),
            "nodes_searched": result.nodes_searched,
            "engine": degree,
            "agree": agree,
        }))
    else:
        if not args.quiet:
            _emit(f"oracle: min_changes={result.changes} "
                  f"witness={list(result.witness)} searched={result.nodes_searched}")
            _emit(f"engine: d(D)={degree}")
        _emit(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def _oracle_random(args) -> int:
    from .oracle import min_changes_to_monotone, random_codes

    max_crossings = 8 if args.max_crossings is None else args.max_crossings
    if 0 <= args.oracle_cap < max_crossings:
        # checked before any code is drawn, so that no record is printed
        default = " (the default)" if args.max_crossings is None else ""
        raise CapExceeded(
            f"--max-crossings {max_crossings}{default} > --oracle-cap "
            f"{args.oracle_cap}; subset search is exponential"
        )
    codes = random_codes(args.random, max_crossings, args.seed or 0)
    disagreements = 0
    for index, code in enumerate(codes):
        diagram = from_gauss(code)
        result = min_changes_to_monotone(diagram, cap=args.oracle_cap)
        degree = warping_degree(diagram)
        agree = result.changes == degree
        disagreements += not agree
        if args.output == "records":
            _emit(_record({
                "index": index,
                "code": serialize(code),
                "oracle": result.changes,
                "engine": degree,
                "agree": agree,
            }))
        elif not agree:
            _emit(
                f"DISAGREE {serialize(code)}: "
                f"oracle={result.changes} engine={degree}"
            )
    if args.output != "records":
        _emit(
            f"verdict: {args.random} random codes, "
            + ("all agree" if not disagreements
               else f"{disagreements} disagreement(s)")
        )
    return 1 if disagreements else 0


def _cmd_generate(args) -> int:
    from . import families

    build = getattr(families, args.builder)
    _write(build(*(getattr(args, name) for name in args.params)), args.format)
    return 0


def _cmd_batch(args) -> int:
    # One line and one diagram are alive at a time: each name is dropped at
    # its last use, and the lines are counted here because ``enumerate``
    # keeps its last (number, line) pair alive, for reuse, until the next.
    failures = number = 0
    for body in read_lines(args.file):
        number += 1
        body = _strip_comments(body).strip()
        if not body:
            continue
        try:
            diagram = from_gauss(_parse_code(body, args.format))
            del body
            if args.output == "records":  # _record sorts the keys
                _emit(_record({**_analysis_record(diagram), "line": number}))
            else:
                _emit(f"line {number}: {_summary_line(summary(diagram))}")
            del diagram
        except WarpingError as exc:
            failures += 1
            if args.output == "records":
                _emit(_record({"line": number, "error": str(exc)}))
            else:
                _emit(f"line {number}: ERROR {exc}")
    if args.output != "records" and not args.quiet:
        _emit(f"batch: {failures} failed line(s)")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    from .table import load_table, verify_paper

    report = verify_paper(load_table(args.table))
    if args.output == "records":
        for row in report.records():
            _emit(_record(row))
    elif args.quiet:
        _emit(report.render_text().splitlines()[-1])
    else:
        _emit(report.render_text())
    return 0 if report.passed else 1


def _cmd_convert(args) -> int:
    _write(_parse_code(_read_input(args.code), args.format), args.to)
    return 0


def _write(code: GaussCode, notation: str) -> None:
    """Print ``code`` in ``notation``: gauss, dt or pd."""
    if notation == "pd":
        from .bracket import gauss_to_pd  # here, off the batch cold start
        _emit(serialize(gauss_to_pd(code)))
    else:
        _emit(serialize(gauss_to_dt(code) if notation == "dt" else code))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # --format and --quiet default to None, so _check_args sees them given.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--format", choices=("gauss", "dt", "pd", "auto"),
                        default=None, help="input notation; default auto")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--output", choices=("text", "records"),
                         default="text", help="text, or JSON lines")
    outputs.add_argument("--quiet", action="store_true", default=None,
                         help="essential output only")

    parser = argparse.ArgumentParser(
        prog="warpdeg",
        description="Warping invariants of knot diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[inputs, outputs],
                       help="warping quantities of one diagram")
    p.add_argument("code", help="diagram code or path to a file holding one")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", parents=[inputs, outputs],
                       help="brute-force check of the warping degree")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("code", nargs="?", default=None,
                      help="diagram code or file holding one")
    mode.add_argument("--random", type=int, default=None, metavar="COUNT",
                      help="check COUNT seeded random codes instead")
    p.add_argument("--budget", type=int, default=None,
                   help="largest change-set size to try")
    p.add_argument("--oracle-cap", type=int, default=_ORACLE_CAP,
                   help=f"crossing cap for subset search (default {_ORACLE_CAP})")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --random (default 0)")
    p.add_argument("--max-crossings", type=int, default=None,
                   help="crossing bound for --random (default 8)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("generate", help="emit a family diagram")
    kinds = p.add_subparsers(dest="family", required=True)
    for family, builder, params in (("twist", "twist_minimal", "n"),
                                    ("rational", "rational_pq", "pq"),
                                    ("ozawa", "ozawa_twist", "n")):
        k = kinds.add_parser(family)
        for name in params:
            k.add_argument(f"--{name}", type=int, required=True,
                           help="half-twist count")
        k.add_argument("--format", choices=("gauss", "dt", "pd"),
                       default="gauss", help="output notation; default gauss")
        k.set_defaults(func=_cmd_generate, builder=builder, params=params)

    p = sub.add_parser("batch", parents=[inputs, outputs],
                       help="analyze every code in a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("verify", parents=[outputs],
                       help="run the theorem suite over the knot table")
    # an empty value counts as unset, as with CPython's own PYTHON* variables
    p.add_argument("--table", default=os.environ.get(_ENV_TABLE) or None,
                   help=f"table file (overrides ${_ENV_TABLE})")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", parents=[inputs],
                       help="transcode between notations")
    p.add_argument("code", help="diagram code or path to a file holding one")
    p.add_argument("--to", choices=("gauss", "dt", "pd"), required=True,
                   help="target notation")
    p.set_defaults(func=_cmd_convert)

    for name in ("analyze", "oracle", "convert"):  # argparse's private matcher:
        # a code may start with "-" and a digit (-4,-6,-2), as no option does
        sub.choices[name]._negative_number_matcher = re.compile(r"^-\d")
    return parser


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Each oracle mode reads only its own options; the other's are errors."""
    if args.command == "oracle":
        random = args.random is not None
        for dest in (("budget", "format", "quiet") if random
                     else ("seed", "max_crossings")):
            if getattr(args, dest) is not None:
                rule = "does not apply with" if random else "needs"
                parser.error(f"oracle: --{dest.replace('_', '-')} {rule} --random")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser, args)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:  # from argparse: usage errors, --help
        return int(exc.code or 0)
    except WarpingError as exc:
        sys.stderr.write(f"error: {str(exc).translate(_BREAKS)}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2
    except BrokenPipeError:
        # the reader went away: later writes, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("error: standard output was closed\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
