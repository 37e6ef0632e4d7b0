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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .codes import GaussCode, parse_gauss, read_text
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


@dataclass(frozen=True)
class ExpectedValues:
    """Reference invariant values attached to a table entry.

    ``e``, ``md`` and ``e_hat`` are the knot's true warping sum, minimal
    warping degree and reduced warping sum; ``ascending`` and
    ``unknotting`` are the classical a(K) and u(K).  Every ``KnotEntry``
    carries one; a field is None when no independent source was
    available.
    """

    e: int | None = None
    md: int | None = None
    e_hat: int | None = None
    ascending: int | None = None
    unknotting: int | None = None


@dataclass(frozen=True)
class KnotEntry:
    """One named knot with its diagrams and expected values.

    ``expected`` is always present, with every field None when the
    record gives no reference values.
    """

    name: str
    crossings: int
    prime: bool
    alternating: bool
    twist: int | None  # n when the knot has the two-region pattern (2, n)
    minimal_diagrams: tuple[GaussCode, ...]
    minimal_complete: bool
    extra_diagrams: tuple[GaussCode, ...] = ()
    expected: ExpectedValues = ExpectedValues()


@dataclass(frozen=True)
class KnotTable:
    """An immutable, name-indexed collection of knot entries."""

    entries: tuple[KnotEntry, ...]

    @cached_property
    def _by_name(self) -> dict[str, KnotEntry]:
        # reversed, so that the first of two equal names wins
        return {entry.name: entry for entry in reversed(self.entries)}

    def __iter__(self) -> Iterator[KnotEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> KnotEntry:
        return self._by_name[name]


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
    return KnotEntry(
        name=name,
        crossings=obj["crossings"],
        prime=obj["prime"],
        alternating=obj["alternating"],
        twist=obj.get("twist"),
        minimal_diagrams=_parse_diagrams(name, obj["minimal"]),
        minimal_complete=obj["minimal_complete"],
        extra_diagrams=_parse_diagrams(name, obj.get("extra", ())),
        expected=ExpectedValues(
            **{f.name: exp.get(f.name) for f in fields(ExpectedValues)}
        ),
    )


def validate_entry(entry: KnotEntry) -> list[str]:
    """Structural problems of one entry; empty list when well-formed."""
    problems = []
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
    for f in fields(ExpectedValues):
        value = getattr(exp, f.name)
        if value is not None and value < 0:
            problems.append(f"negative expected {f.name}")
    if exp.unknotting is not None and exp.ascending is not None \
            and exp.unknotting > exp.ascending:
        problems.append("expected unknotting exceeds expected ascending")
    if exp.ascending is not None and exp.md is not None \
            and exp.ascending > exp.md:
        problems.append("expected ascending exceeds expected md")
    return problems


def default_table_path():
    """The bundled table file, also when the package is inside a zip archive.

    A file-system install gives a ``pathlib.Path``; a zip archive gives a
    ``zipfile.Path``.  Both read like a path and print as one.
    """
    from importlib import resources

    return resources.files(__package__) / "data" / "knots.tbl"


def load_table(path: str | Path | None = None) -> KnotTable:
    """Load a table file, validating the header and every entry."""
    location = Path(path) if path is not None else default_table_path()
    lines = [
        line for line in read_text(location).splitlines()
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
    if header.get("version") != _TABLE_VERSION:
        raise DataError(
            f"{location}: unsupported version {header.get('version')!r}"
        )

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

@dataclass(frozen=True)
class _EntryStats:
    """Every bundled diagram of one entry summarized once.

    The aggregates, the public helpers below and every check read these
    summaries instead of computing their own.
    """

    entry: KnotEntry
    summaries: tuple[WarpingSummary, ...]  # minimal diagrams, then extras

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


def _stats(entry: KnotEntry) -> _EntryStats:
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
    occ = diagram.tokens
    return bool(occ) and all(
        a.over != b.over for a, b in zip(occ, occ[1:] + occ[:1]))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    """One verified fact: check name, entry scope, outcome, details."""

    check: str
    scope: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def failures(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

    def records(self) -> list[dict]:
        return [asdict(row) for row in self.rows]

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


# Each check takes the stats of one entry and yields that entry's rows;
# a failing row says why in its details.

def _fact(check: str, st: _EntryStats, ok: bool, failure: str) -> CheckRow:
    return CheckRow(check, st.entry.name, ok, "" if ok else failure)


def _expected_values(st: _EntryStats) -> Iterator[CheckRow]:
    """Computed aggregates match the reference values."""
    exp = st.entry.expected
    if exp.e is not None:
        yield _fact("expected-e", st, st.e_value == exp.e,
                    f"computed {st.e_value}, expected {exp.e}")
    if exp.md is not None:
        yield _fact("expected-md", st, st.md_value == exp.md,
                    f"computed {st.md_value}, expected {exp.md}")


def _upper_bound(st: _EntryStats) -> Iterator[CheckRow]:
    """e(K) <= c(K) - 1 for nontrivial knots."""
    c = st.entry.crossings
    if c > 0:
        yield _fact("e-upper-bound", st, st.e_value <= c - 1,
                    f"e={st.e_value} exceeds c-1={c - 1}")


def _prime_alternating(st: _EntryStats) -> Iterator[CheckRow]:
    """Equality e(K) = c(K) - 1 for prime alternating knots."""
    c = st.entry.crossings
    if st.entry.prime and st.entry.alternating and c > 0:
        yield _fact("e-prime-alternating", st, st.e_value == c - 1,
                    f"e={st.e_value}, want {c - 1}")


def _only_if(st: _EntryStats) -> Iterator[CheckRow]:
    """Equality fails for every other knot; needs e(K), not a bound."""
    c, e = st.entry.crossings, st.true_e
    if c > 0 and not (st.entry.prime and st.entry.alternating) and e is not None:
        yield _fact("e-only-if", st, e < c - 1,
                    f"e={e} reaches c-1 without prime alternating")


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


def _md_from_e(st: _EntryStats) -> Iterator[CheckRow]:
    """Knots with e(K) in {4, 5} have md(K) = 2."""
    if st.true_e in (4, 5):
        yield _fact("md-from-e", st, st.md_value == 2,
                    f"e={st.true_e} forces md=2, computed {st.md_value}")


def _sum_four(check: str, names: tuple[str, ...]):
    """A check that the named knots have e = 4."""
    def run(st: _EntryStats) -> Iterator[CheckRow]:
        if st.entry.name in names:
            yield _fact(check, st, st.e_value == 4, f"e={st.e_value}, want 4")
    return run


_SPLITS = {"7_6": [{3}, {2, 4}], "8_12": [{3, 4}, {2, 5}]}


def _orientation_splits(st: _EntryStats) -> Iterator[CheckRow]:
    """The bundled diagram pairs of 7_6 and 8_12 split e(K) as known."""
    want = _SPLITS.get(st.entry.name)
    if want is not None:
        got = [set(pair) for pair in st.d_pairs]
        ok = (len(got) == len(want) and all(pair in got for pair in want)
              and all(s.warping_sum == st.entry.crossings - 1 for s in st.minimal))
        yield _fact("orientation-splits", st, ok,
                    f"d-pairs {sorted(map(sorted, got))}")


def _twist_formula(st: _EntryStats) -> Iterator[CheckRow]:
    """(2, n) entries have d-pair {floor((n+1)/2), floor(n/2)+1},
    md = floor((n+1)/2) and e = n+1."""
    n, pairs = st.entry.twist, st.d_pairs
    if n is not None:
        ok = (len(pairs) == 1 and sorted(pairs[0]) == [(n + 1) // 2, n // 2 + 1]
              and st.md_value == (n + 1) // 2 and st.e_value == n + 1)
        yield _fact("twist-formula", st, ok,
                    f"n={n}, d-pairs {pairs}, md={st.md_value}, e={st.e_value}")


def _alternating_span(st: _EntryStats) -> Iterator[CheckRow]:
    """Every alternating bundled diagram has span 1."""
    diagrams = st.entry.minimal_diagrams + st.entry.extra_diagrams
    spans = [(d.crossings, s.span) for d, s in zip(diagrams, st.summaries)
             if is_alternating_diagram(d)]
    if spans:
        bad = [c for c, span in spans if span != 1]
        yield _fact("alternating-span", st, not bad,
                    f"alternating diagram with span != 1 (c={bad})")


def _e_hat_window(st: _EntryStats) -> Iterator[CheckRow]:
    """The e-hat bounds honor the classification and any expected value."""
    (lower, upper), e_hat = st.e_hat, st.entry.expected.e_hat
    details = ""
    if lower > upper:
        details = f"bounds crossed: [{lower}, {upper}]"
    elif e_hat is not None and not lower <= e_hat <= upper:
        details = f"expected e_hat {e_hat} outside [{lower}, {upper}]"
    yield CheckRow("e-hat-window", st.entry.name, not details, details)


def _e_hat_twist(st: _EntryStats) -> Iterator[CheckRow]:
    """A twist entry with its sum-2 diagram pins the bounds."""
    if st.entry.twist is not None:
        yield _fact("e-hat-twist", st, st.e_hat == (2, 2),
                    f"bounds {st.e_hat}, want (2, 2)")


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


# every check after entry-valid, in report order
CHECKS = (
    _expected_values,
    _upper_bound,
    _prime_alternating,
    _only_if,
    _classification,
    _md_from_e,
    _sum_four("five-crossing-values", ("5_1", "5_2")),
    _orientation_splits,
    _sum_four("nonalternating-four", ("8_21", "granny")),
    _twist_formula,
    _alternating_span,
    _e_hat_window,
    _e_hat_twist,
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
        problems = validate_entry(entry)
        if not problems:
            try:
                live.append(_stats(entry))
            except Exception as exc:  # a diagram-level failure is a data error
                problems = [str(exc)]
        rows.append(CheckRow("entry-valid", entry.name, not problems,
                             "; ".join(problems)))
    for check in CHECKS:
        for st in live:
            rows.extend(check(st))
    return VerificationReport(tuple(rows))
