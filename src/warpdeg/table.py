"""Bundled knot table: named knots, diagram codes, and theorem checks.

The table file is line-delimited: a JSON header ``{"format":
"knots-table", "version": 1}`` followed by one JSON object per knot.
Blank lines and ``#`` comment lines are ignored.  Each record names a
knot, states its crossing number and classification flags, lists Gauss
codes for minimal diagrams (crossing count equal to the crossing number)
and optionally for extra non-minimal diagrams, and may carry expected
invariant values from independent sources.

Aggregation semantics: e(K) is the minimum of the warping sum e(D) over
all minimal diagrams of K, and md(K) the minimum warping degree over
minimal diagrams and both orientations.  Both are computed here over the
*bundled* minimal diagrams, so they are upper bounds in general and
exact when the bundled set provably contains every minimal diagram
(``minimal_complete``).  md carries one extra promotion: a computed
value of 2 is exact for any knot other than the trivial knot, 3_1 and
4_1, because those three are the only knots with md < 2.

The reduced warping sum ê(K) -- the minimum of e(D) over ALL diagrams --
can only be bounded by a finite table: below by the classification of
small values (0 for the trivial knot, 2 for twist knots, otherwise 4,
since no knot has ê equal to 1 or 3), above by the best bundled diagram.

``verify_paper`` runs the whole battery of theorem and example checks
over a table and reports every pass/fail as data rather than raising.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from operator import attrgetter

from .codes import GaussCode, _Value, parse_gauss, read_text
from .diagram import from_gauss
from .errors import DataError
from .warping import WarpingSummary, summary

__all__ = [
    "ExpectedValues",
    "KnotEntry",
    "KnotTable",
    "CheckRow",
    "VerificationReport",
    "load_table",
    "knot_e",
    "knot_md",
    "e_hat_bounds",
    "is_alternating_diagram",
    "verify_paper",
]

_TABLE_FORMAT = "knots-table"
_TABLE_VERSION = 1

# the only knots with warping sum at most 3, with that sum; they are also
# the only knots with minimal warping degree 0 or 1
_SMALL_E = {"0_1": 0, "3_1": 2, "4_1": 3}


class ExpectedValues(_Value):
    """Reference invariant values attached to a table entry.

    ``e``, ``md`` and ``e_hat`` are the knot's true warping sum, minimal
    warping degree and reduced warping sum; ``ascending`` and
    ``unknotting`` are the classical a(K) and u(K).  Every ``KnotEntry``
    carries one; a field is None, its default, when no source gave it.
    """

    __slots__ = ("e", "md", "e_hat", "ascending", "unknotting")
    _defaults = dict.fromkeys(__slots__)


class KnotEntry(_Value):
    """One named knot with its diagrams and expected values.

    ``twist`` is n when the knot has the two-region pattern (2, n).
    ``extra_diagrams`` defaults to ``()``, ``expected`` to all-None values.
    """

    __slots__ = ("name", "crossings", "prime", "alternating", "twist",
                 "minimal_diagrams", "minimal_complete", "extra_diagrams",
                 "expected")
    _defaults = {"extra_diagrams": (), "expected": ExpectedValues()}


class KnotTable(_Value):
    """An immutable collection of knot entries; a name finds its first entry."""

    __slots__ = ("entries",)

    def __iter__(self) -> Iterator[KnotEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return any(entry.name == name for entry in self.entries)

    def __getitem__(self, name: str) -> KnotEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _parse_diagrams(name: str, codes: Iterable[str]) -> tuple[GaussCode, ...]:
    diagrams = []
    for code in codes:
        try:
            diagrams.append(from_gauss(parse_gauss(code)))
        except Exception as exc:
            raise DataError(f"{name}: bad diagram code {code!r}: {exc}") from exc
    return tuple(diagrams)


_FLAG = (lambda v: isinstance(v, bool), "true or false")
_INT = (lambda v: type(v) is int, "an integer")
_CODES = (lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
          "a list of code strings")
# record field -> (type test, what it wants), in the order they are checked
_FIELDS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "crossings": _INT, "prime": _FLAG, "alternating": _FLAG, "twist": _INT,
    "minimal": _CODES, "minimal_complete": _FLAG, "extra": _CODES,
    "expected": (lambda v: isinstance(v, dict) and all(
        x is None or type(x) is int for x in v.values()
    ), "an object of integers or nulls"),
}
_OPTIONAL = ("twist", "extra", "expected")
# entry field -> (type test, what it wants), in the order validate_entry checks them
_NUMBER = (lambda v: v is None or type(v) is int, "an integer")
_DIAGRAMS = (lambda v: isinstance(v, tuple)
             and all(isinstance(d, GaussCode) for d in v), "a tuple of Gauss codes")
_ENTRY_FIELDS = {"name": _FIELDS["name"], "crossings": _INT, "prime": _FLAG,
                 "alternating": _FLAG, "twist": _NUMBER, "minimal_diagrams": _DIAGRAMS,
                 "minimal_complete": _FLAG, "extra_diagrams": _DIAGRAMS,
                 "expected": (lambda v: isinstance(v, ExpectedValues), "an ExpectedValues"),
                 **{f"expected.{key}": _NUMBER for key in ExpectedValues._fields}}


def _entry_from_json(obj) -> KnotEntry:
    if not isinstance(obj, dict):
        raise DataError(f"malformed table record: not an object: {obj!r}")
    for key, (test, want) in _FIELDS.items():
        if key not in obj and key not in _OPTIONAL:
            raise DataError(f"malformed table record: no {key!r}: {obj!r}")
        if key in obj and not test(obj[key]):
            raise DataError(f"table entry {obj['name']!r}: {key} must be "
                            f"{want}, got {obj[key]!r}")
    name, exp = obj["name"], obj.get("expected", {})
    unknown = [key for key in obj if key not in _FIELDS]
    unknown += [f"expected.{key}" for key in exp if key not in ExpectedValues._fields]
    if unknown:
        raise DataError(f"table entry {name!r}: unknown key {unknown[0]!r}")
    return KnotEntry(
        name=name,
        crossings=obj["crossings"],
        prime=obj["prime"],
        alternating=obj["alternating"],
        twist=obj.get("twist"),
        minimal_diagrams=_parse_diagrams(name, obj["minimal"]),
        minimal_complete=obj["minimal_complete"],
        extra_diagrams=_parse_diagrams(name, obj.get("extra", ())),
        expected=ExpectedValues(*map(exp.get, ExpectedValues._fields)),
    )


def validate_entry(entry: KnotEntry) -> list[str]:
    """Structural problems of one entry; empty list when well-formed."""
    has_expected = isinstance(entry.expected, ExpectedValues)
    problems = [f"{key} must be {want}, got {value!r}"
                for key, (test, want) in _ENTRY_FIELDS.items()
                if (has_expected or "." not in key)  # expected.<field> needs it
                and not test(value := attrgetter(key)(entry))]
    if problems:  # the checks below compare these fields
        return problems
    if not entry.name:
        problems.append("empty name")
    if entry.crossings < 0:
        problems.append("negative crossing number")
    if not entry.minimal_diagrams:
        problems.append("no minimal diagrams")
    for diagram in entry.minimal_diagrams:
        if diagram.crossings != entry.crossings:
            problems.append(
                f"minimal diagram has {diagram.crossings} crossings, "
                f"entry says {entry.crossings}"
            )
    if entry.twist is not None:
        if entry.twist < 1:
            problems.append("twist parameter below 1")
        elif entry.crossings != entry.twist + 2:
            problems.append("twist parameter inconsistent with crossing number")
    exp = entry.expected
    for field in ExpectedValues._fields:
        value = getattr(exp, field)
        if value is not None and value < 0:
            problems.append(f"negative expected {field}")
    for low, high in (("unknotting", "ascending"), ("ascending", "md")):
        a, b = getattr(exp, low), getattr(exp, high)
        if a is not None and b is not None and a > b:
            problems.append(f"expected {low} exceeds expected {high}")
    return problems


def default_table_path() -> str:
    """The bundled table file; inside a zip archive, a member of the archive."""
    return os.path.join(os.path.dirname(__file__), "data", "knots.tbl")


def load_table(path: str | os.PathLike[str] | None = None) -> KnotTable:
    """Load a table file, validating the header and every entry."""
    if path == "":
        raise DataError("the table path is empty")
    location = default_table_path() if path is None else path  # as given
    # the package's loader reads the bundled table from a zip archive too
    get_data = __loader__.get_data if path is None else None
    lines = [
        line for line in read_text(location, get_data).splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise DataError(f"{location}: missing table header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{location}: bad header line: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _TABLE_FORMAT:
        raise DataError(f"{location}: not a {_TABLE_FORMAT} file")
    version = header.get("version")
    if type(version) is not int or version != _TABLE_VERSION:  # not true, not 1.0
        raise DataError(f"{location}: unsupported version {version!r}")
    unknown = [key for key in header if key not in ("format", "version")]
    if unknown:
        raise DataError(f"{location}: table header: unknown key {unknown[0]!r}")

    entries = []
    names = set()
    for line in lines[1:]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{location}: bad record line: {exc}") from exc
        try:
            entry = _entry_from_json(obj)
        except DataError as exc:
            raise DataError(f"{location}: {exc}") from exc
        problems = validate_entry(entry)
        if problems:
            raise DataError(f"{location}: {entry.name}: " + "; ".join(problems))
        if entry.name in names:
            raise DataError(f"{location}: duplicate entry {entry.name!r}")
        names.add(entry.name)
        entries.append(entry)
    return KnotTable(tuple(entries))


# ---------------------------------------------------------------------------
# aggregated invariants
# ---------------------------------------------------------------------------

class _EntryStats(_Value):
    """Every bundled diagram of one entry summarized once.

    The aggregates, the public helpers below and every check read these
    summaries (minimal diagrams, then extras) instead of computing their own.
    """

    __slots__ = ("entry", "summaries")

    @property
    def minimal(self) -> tuple[WarpingSummary, ...]:
        return self.summaries[:len(self.entry.minimal_diagrams)]

    @property
    def e_value(self) -> int:
        return min(s.warping_sum for s in self.minimal)

    @property
    def md_value(self) -> int:
        return min(min(s.d_forward, s.d_reverse) for s in self.minimal)

    @property
    def d_pairs(self) -> list[tuple[int, int]]:
        return [(s.d_forward, s.d_reverse) for s in self.minimal]

    @property
    def true_e(self) -> int | None:
        """e(K) when known: a reference value or a complete minimal set."""
        e = self.entry.expected.e
        if e is None and self.entry.minimal_complete:
            return self.e_value
        return e

    @property
    def e_hat(self) -> tuple[int, int]:
        entry = self.entry
        lower = 0 if entry.crossings == 0 else 2 if entry.twist is not None else 4
        return lower, min(s.warping_sum for s in self.summaries)

    @property
    def bound(self) -> int:  # c(K) - 1, the paper's upper bound for e(K)
        return self.entry.crossings - 1


def _stats(entry: KnotEntry) -> _EntryStats:
    """The stats of an entry, or DataError with its ``validate_entry`` problems."""
    problems = validate_entry(entry)
    if problems:
        raise DataError("; ".join(problems))
    diagrams = entry.minimal_diagrams + entry.extra_diagrams
    return _EntryStats(entry, tuple(map(summary, diagrams)))


def knot_e(entry: KnotEntry) -> tuple[int, bool]:
    """(min of e(D) over bundled minimal diagrams, exactness flag).

    The warping sum is orientation-free, so one orientation per diagram
    suffices.  The value is e(K) itself when the bundled minimal set is
    complete, otherwise an upper bound for it.
    """
    return _stats(entry).e_value, entry.minimal_complete


def knot_md(entry: KnotEntry) -> tuple[int, bool]:
    """(min warping degree over bundled minimal diagrams and orientations,
    exactness flag).

    Exact when the minimal set is complete, and also when the value is 2
    for a knot other than the trivial knot, 3_1 and 4_1: those three are
    the only knots with md below 2, so an md of at most 2 is an md of
    exactly 2 for everything else.
    """
    value = _stats(entry).md_value
    exact = entry.minimal_complete or (value == 2 and entry.name not in _SMALL_E)
    return value, exact


def e_hat_bounds(entry: KnotEntry) -> tuple[int, int]:
    """Bounds (lower, upper) for the reduced warping sum of the knot.

    Lower bound from the small-value classification: 0 for the trivial
    knot, 2 for twist knots, otherwise 4 (no knot has a reduced sum of 1
    or 3).  Upper bound from the best diagram bundled with the entry,
    minimal or not.
    """
    return _stats(entry).e_hat


def is_alternating_diagram(diagram: GaussCode) -> bool:
    """True when the visits alternate over and under all the way round."""
    overs = diagram.overs
    return bool(overs) and all(
        a != b for a, b in zip(overs, overs[1:] + overs[:1]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class CheckRow(_Value):
    """One verified fact: check name, entry scope, outcome, details ("" by default)."""

    __slots__ = ("check", "scope", "passed", "details")
    _defaults = {"details": ""}


class VerificationReport(_Value):
    __slots__ = ("rows",)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

    def records(self) -> list[dict]:
        return [{"check": row.check, "scope": row.scope, "passed": row.passed,
                 "details": row.details} for row in self.rows]

    def render_text(self) -> str:
        by_check: dict[str, list[CheckRow]] = {}
        for row in self.rows:
            by_check.setdefault(row.check, []).append(row)
        lines = []
        for check, rows in by_check.items():
            failed = [row for row in rows if not row.passed]
            if failed:
                lines.append(f"FAIL {check}: {len(failed)} of {len(rows)}")
                lines += [f"  {row.scope}: {row.details}" for row in failed]
            else:
                lines.append(f"pass {check} ({len(rows)})")
        if self.passed:
            lines.append(f"ALL CHECKS PASSED ({len(self.rows)} checks)")
        else:
            lines.append(
                f"{len(self.failures)} CHECKS FAILED (of {len(self.rows)})"
            )
        return "\n".join(lines)


def _classification(st: _EntryStats) -> Iterator[CheckRow]:
    """Values 0, 2 and 3 pin the knot; value 1 never occurs."""
    e, name = st.e_value, st.entry.name
    owner = next((knot for knot, value in _SMALL_E.items() if value == e), name)
    details = ""
    if e == 1:
        details = "warping sum 1 is impossible"
    elif owner != name:
        details = f"e={e} is reserved for {owner}"
    elif _SMALL_E.get(name, e) != e:
        details = f"e={e}, want {_SMALL_E[name]}"
    yield CheckRow("e-classification", name, not details, details)


_SPLITS = {"7_6": [{3}, {2, 4}], "8_12": [{3, 4}, {2, 5}]}


def _orientation_splits(st: _EntryStats) -> Iterator[CheckRow]:
    """The bundled diagram pairs of 7_6 and 8_12 split e(K) as known."""
    want = _SPLITS.get(st.entry.name)
    if want is not None:
        got = [set(pair) for pair in st.d_pairs]
        ok = (len(got) == len(want) and all(pair in got for pair in want)
              and all(s.warping_sum == st.bound for s in st.minimal))
        yield CheckRow("orientation-splits", st.entry.name, ok,
                       "" if ok else f"d-pairs {sorted(map(sorted, got))}")


def _alternating_span(st: _EntryStats) -> Iterator[CheckRow]:
    """Every alternating bundled diagram has span 1."""
    diagrams = st.entry.minimal_diagrams + st.entry.extra_diagrams
    spans = [(d.crossings, s.span) for d, s in zip(diagrams, st.summaries)
             if is_alternating_diagram(d)]
    if spans:
        bad = [c for c, span in spans if span != 1]
        details = f"alternating diagram with span != 1 (c={bad})" if bad else ""
        yield CheckRow("alternating-span", st.entry.name, not bad, details)


def _e_hat_window(st: _EntryStats) -> Iterator[CheckRow]:
    """The e-hat bounds honor the classification and any expected value."""
    (lower, upper), e_hat = st.e_hat, st.entry.expected.e_hat
    details = ""
    if lower > upper:
        details = f"bounds crossed: [{lower}, {upper}]"
    elif e_hat is not None and not lower <= e_hat <= upper:
        details = f"expected e_hat {e_hat} outside [{lower}, {upper}]"
    yield CheckRow("e-hat-window", st.entry.name, not details, details)


def _e_hat_six_three(st: _EntryStats) -> Iterator[CheckRow]:
    """The non-minimal 6_3 diagram pins e-hat at 4; with no extra diagram
    bundled, the gap passes with a note."""
    if st.entry.name != "6_3":
        return
    if st.e_hat == (4, 4):
        yield CheckRow("e-hat-six-three", "6_3", True)
    elif st.e_hat == (4, 5) and not st.entry.extra_diagrams:
        yield CheckRow("e-hat-six-three", "6_3", True,
                       "gap: bounds (4, 5); no sum-4 diagram bundled")
    else:
        yield CheckRow("e-hat-six-three", "6_3", False, f"bounds {st.e_hat}")


def _ordering(st: _EntryStats) -> Iterator[CheckRow]:
    """unknotting <= ascending <= md against the computed md."""
    exp = st.entry.expected
    if exp.ascending is None and exp.unknotting is None:
        return
    details = ""
    for label, value in (("ascending", exp.ascending),
                         ("unknotting", exp.unknotting)):
        if value is not None and value > st.md_value:
            details = f"{label} {value} exceeds md {st.md_value}"
    yield CheckRow("ordering", st.entry.name, not details, details)


# Every check after entry-valid, in report order.  An element is either a
# function that yields the rows of one entry's stats s, or a tuple of
# rules (check, applies, holds, failure) run together on each entry in
# turn, so that their rows interleave: where applies(s), a rule gives one
# row that passes when holds(s) and otherwise says failure.format(s=s).
CHECKS = (
    (  # computed aggregates match the reference values
        ("expected-e", lambda s: s.entry.expected.e is not None,
         lambda s: s.e_value == s.entry.expected.e,
         "computed {s.e_value}, expected {s.entry.expected.e}"),
        ("expected-md", lambda s: s.entry.expected.md is not None,
         lambda s: s.md_value == s.entry.expected.md,
         "computed {s.md_value}, expected {s.entry.expected.md}"),
    ),
    # e(K) <= c(K) - 1 for nontrivial knots
    (("e-upper-bound", lambda s: s.entry.crossings > 0,
      lambda s: s.e_value <= s.bound, "e={s.e_value} exceeds c-1={s.bound}"),),
    # equality e(K) = c(K) - 1 for prime alternating knots
    (("e-prime-alternating",
      lambda s: s.entry.prime and s.entry.alternating and s.entry.crossings > 0,
      lambda s: s.e_value == s.bound, "e={s.e_value}, want {s.bound}"),),
    # equality fails for every other knot; needs e(K), not a bound
    (("e-only-if", lambda s: s.entry.crossings > 0 and s.true_e is not None
      and not (s.entry.prime and s.entry.alternating),
      lambda s: s.true_e < s.bound,
      "e={s.true_e} reaches c-1 without prime alternating"),),
    _classification,
    # knots with e(K) in {4, 5} have md(K) = 2
    (("md-from-e", lambda s: s.true_e in (4, 5), lambda s: s.md_value == 2,
      "e={s.true_e} forces md=2, computed {s.md_value}"),),
    # the five-crossing knots have e = 4
    (("five-crossing-values", lambda s: s.entry.name in ("5_1", "5_2"),
      lambda s: s.e_value == 4, "e={s.e_value}, want 4"),),
    _orientation_splits,
    # the nonalternating 8_21 and the composite granny knot have e = 4
    (("nonalternating-four", lambda s: s.entry.name in ("8_21", "granny"),
      lambda s: s.e_value == 4, "e={s.e_value}, want 4"),),
    # a (2, n) entry has the one d-pair {floor((n+1)/2), floor(n/2)+1},
    # hence md = floor((n+1)/2), and e = n+1
    (("twist-formula", lambda s: s.entry.twist is not None,
      lambda s: [sorted(pair) for pair in s.d_pairs]
      == [[(s.entry.twist + 1) // 2, s.entry.twist // 2 + 1]]
      and s.e_value == s.entry.twist + 1,
      "n={s.entry.twist}, d-pairs {s.d_pairs}, md={s.md_value}, e={s.e_value}"),),
    _alternating_span,
    _e_hat_window,
    # a twist entry with its sum-2 diagram pins the e-hat bounds
    (("e-hat-twist", lambda s: s.entry.twist is not None,
      lambda s: s.e_hat == (2, 2), "bounds {s.e_hat}, want (2, 2)"),),
    _e_hat_six_three,
    _ordering,
)


def verify_paper(table: KnotTable | Iterable[KnotEntry]) -> VerificationReport:
    """Run every theorem, example and consistency check over a table.

    Returns a report of per-(check, entry) rows; failures are data, not
    exceptions, and a malformed entry fails its own entry-valid row and
    opts out of the rest.
    """
    rows: list[CheckRow] = []
    live: list[_EntryStats] = []
    for entry in table:
        try:
            live.append(_stats(entry))
        except Exception as exc:  # a malformed entry, or a diagram that fails
            rows.append(CheckRow("entry-valid", entry.name, False, str(exc)))
        else:
            rows.append(CheckRow("entry-valid", entry.name, True))
    for check in CHECKS:
        for st in live:
            if callable(check):
                rows.extend(check(st))
                continue
            for name, applies, holds, failure in check:
                if applies(st):
                    ok = holds(st)
                    rows.append(CheckRow(name, st.entry.name, ok,
                                         "" if ok else failure.format(s=st)))
    return VerificationReport(tuple(rows))
