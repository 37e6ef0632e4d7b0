"""Parsers, serializers and converters for knot diagram notations.

Three notations are supported:

* Gauss codes: the cyclic sequence of crossing visits along the curve.
  Each token is ``(O|U)<label>(+|-)?``, e.g. ``O3`` or ``U12-``.  ``O``/``U``
  say whether the strand passes over or under at that visit, the optional
  trailing sign is the crossing sign.  Tokens may be separated by
  whitespace and/or commas, or packed together (``O1+U2+``); ``#`` starts
  a comment that runs to the end of the line.

* DT codes: ``c`` signed even integers.  Visits are numbered 1..2c along
  the curve; entry ``i`` pairs odd number ``2i-1`` with the even number
  ``|e_i|``, and ``e_i > 0`` means the odd-numbered visit is the overpass.

* PD codes: one quadruple ``X(a,b,c,d)`` per crossing listing the edge
  labels counterclockwise from the incoming under-strand.  Edge labels are
  1..2c, each appearing exactly twice.  A JSON-style ``[[a,b,c,d],...]``
  spelling is also accepted.

Values are plain immutable data.  Gauss codes are normalized on
construction: labels are renumbered 1..c in order of first appearance and
each crossing's sign is carried on both of its visits.  ``serialize``
additionally picks a canonical anchor, so two codes describe the same
anchored-but-unlabelled diagram exactly when their serializations match.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import eq
from pathlib import Path

from .errors import CodeSyntaxError, DataError, StructureError, UnknownCrossing

__all__ = [
    "PLUS",
    "MINUS",
    "UNSIGNED",
    "GaussToken",
    "GaussCode",
    "DTCode",
    "PDCode",
    "parse_gauss",
    "parse_dt",
    "parse_pd",
    "serialize",
    "canonical",
    "dt_to_gauss",
    "gauss_to_dt",
    "pd_to_gauss",
    "detect_notation",
]

PLUS = 1
MINUS = -1
UNSIGNED = 0


# A namedtuple with one method attached, the way typing.NamedTuple builds
# one: a subclass would make each token, one per visit, slower to create.
GaussToken = namedtuple("GaussToken", ("label", "over", "sign"))
GaussToken.__doc__ = """One visit to a crossing: label, over/under flag, crossing sign.

The sign is PLUS, MINUS or UNSIGNED.
"""


def _render(token: GaussToken) -> str:
    return f"{'O' if token.over else 'U'}{token.label}{_MARK[token.sign]}"


GaussToken.render = _render


_MARK = {PLUS: "+", MINUS: "-", UNSIGNED: ""}


class _Value:
    """Base of the immutable value types; ``__slots__`` lists the fields.

    A subclass's ``__init__`` sets each field with ``object.__setattr__``.
    Two values are equal when they are of one class with equal fields,
    and hash by their fields; assigning or deleting a field raises
    AttributeError.  Unlike a tuple, a value never equals a plain tuple.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()


class GaussCode(_Value):
    """Normalized Gauss code; ``tokens`` is the anchored visit sequence.

    The code is also the oriented diagram it describes (see ``diagram``).
    """

    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple[GaussToken, ...]) -> None:
        object.__setattr__(self, "tokens", tokens)

    @property
    def crossings(self) -> int:
        return len(self.tokens) // 2

    def sign_of(self, label: int) -> int:
        for tok in self.tokens:
            if tok.label == label:
                return tok.sign
        raise UnknownCrossing(f"no crossing labelled {label}")

    def has_all_signs(self) -> bool:
        return all(tok.sign != UNSIGNED for tok in self.tokens)


class DTCode(_Value):
    """Dowker-Thistlethwaite code: the signed even partner of 1,3,5,..."""

    __slots__ = ("evens",)

    def __init__(self, evens: tuple[int, ...]) -> None:
        object.__setattr__(self, "evens", evens)

    @property
    def crossings(self) -> int:
        return len(self.evens)


class PDCode(_Value):
    """Planar diagram code: one edge quadruple per crossing."""

    __slots__ = ("quads",)

    def __init__(self, quads: tuple[tuple[int, int, int, int], ...]) -> None:
        object.__setattr__(self, "quads", quads)

    @property
    def crossings(self) -> int:
        return len(self.quads)


# ---------------------------------------------------------------------------
# lexing helpers
# ---------------------------------------------------------------------------

_GAUSS_TOKEN = re.compile(r"([OoUu])(\d+)([+-]?)")
_SEPARATORS = re.compile(r"[\s,]*")
_WORD = re.compile(r"[^\s,]*")
_SIGN_OF = {mark: sign for sign, mark in _MARK.items()}
_INT_WORD = re.compile(r"[+-]?\d+\Z")


def _strip_comments(text: str) -> str:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return " ".join(line.split("#", 1)[0] for line in lines)


def _split_words(text: str) -> list[str]:
    return [w for w in re.split(r"[\s,]+", _strip_comments(text)) if w]


# ---------------------------------------------------------------------------
# Gauss codes
# ---------------------------------------------------------------------------

def _build_gauss(raw: Iterable[tuple[int, bool, int]]) -> GaussCode:
    """Validate raw (label, over, sign) visits and normalize them.

    Normalization renumbers labels 1..c by first appearance and spreads
    each crossing's sign onto both visits.  The anchor (which visit is
    first) is preserved.  One pass over ``raw`` gathers everything; a
    fault names the first faulty label in first-appearance order,
    checking its visit count, then its roles, then its signs.
    """
    index: dict[int, int] = {}
    # per crossing number k (slot 0 unused): visit count, roles at the
    # first two visits, sign, and whether two signs contradict
    count, first, second, sign, clash = [0], [False], [True], [UNSIGNED], [False]
    numbers: list[int] = []
    overs: list[bool] = []
    for label, over, s in raw:
        k = index.get(label)
        if k is None:
            k = index[label] = len(count)
            count.append(1)
            first.append(over)
            second.append(over)
            sign.append(s)
            clash.append(False)
        else:
            count[k] += 1
            if count[k] == 2:
                second[k] = over
            if s != UNSIGNED and s != sign[k]:
                if sign[k] == UNSIGNED:
                    sign[k] = s
                else:
                    clash[k] = True
        numbers.append(k)
        overs.append(over)

    if count.count(2) != len(index) or any(map(eq, first, second)) or any(clash):
        for label, k in index.items():
            if count[k] != 2:
                raise StructureError(
                    f"crossing {label} appears {count[k]} time(s), expected 2"
                )
            if first[k] == second[k]:
                way = "over" if first[k] else "under"
                raise StructureError(f"crossing {label} is {way} at both visits")
            if clash[k]:
                raise StructureError(f"crossing {label} has contradictory signs")
    # tuple.__new__ skips GaussToken's Python-level constructor
    return GaussCode(tuple(map(
        tuple.__new__, repeat(GaussToken),
        zip(numbers, overs, map(sign.__getitem__, numbers)),
    )))


def _gauss_visits(body: str) -> Iterator[tuple[int, bool, int]]:
    """The (label, over, sign) visits of comment-free Gauss text, lazily."""
    pos = 0
    for match in _GAUSS_TOKEN.finditer(body):
        start = match.start()
        if start != pos and _SEPARATORS.match(body, pos).end() != start:
            break
        role, label, mark = match.groups()
        yield int(label), role in "Oo", _SIGN_OF[mark]
        pos = match.end()
    pos = _SEPARATORS.match(body, pos).end()
    if pos < len(body):
        word = _WORD.match(body, pos).group()
        raise CodeSyntaxError(f"bad Gauss token at {word!r}")


def parse_gauss(text: str) -> GaussCode:
    """Parse Gauss notation.  Raises CodeSyntaxError / StructureError.

    Empty input is the zero-crossing diagram.
    """
    return _build_gauss(_gauss_visits(_strip_comments(text)))


def _relabel(tokens: Sequence[GaussToken]) -> tuple[GaussToken, ...]:
    """Renumber labels 1..c by first appearance; nothing is validated."""
    number: dict[int, int] = {}
    return tuple([
        tuple.__new__(GaussToken,
                      (number.setdefault(label, len(number) + 1), over, sign))
        for label, over, sign in tokens
    ])


_SIGN_RANK = {PLUS: 0, MINUS: 1, UNSIGNED: 2}


def _least_rotation(tokens: Sequence[GaussToken]) -> int:
    """Start of the least rotation of the code's symbol word, in O(c).

    Position ``p`` has one symbol that does not depend on where a rotation
    starts: its role (O before U), then the forward distance
    ``(q - p) mod 2c`` to its partner visit ``q``, then its sign rank
    (+ before - before none).  The word fixes the code up to relabelling,
    so every least start gives the same relabelled code.  The scan is the
    standard two-index one for Booth's problem ("Lexicographically least
    circular substrings", IPL 1980): ``i`` is the best start so far, and
    every start below ``j`` other than ``i`` is beaten.
    """
    n = len(tokens)
    # symbol = (role * n + distance) * 3 + sign rank, with 0 < distance < n
    word = [(0 if tok.over else 3 * n) + _SIGN_RANK[tok.sign] for tok in tokens]
    first: dict[int, int] = {}
    for p, tok in enumerate(tokens):
        q = first.setdefault(tok.label, p)
        if q != p:
            word[q] += 3 * (p - q)
            word[p] += 3 * (n - (p - q))
    word += word
    i, j = 0, 1
    while j < n:
        k = 0
        while k < n and word[i + k] == word[j + k]:
            k += 1
        if k == n:  # the word is periodic and i is a least start
            break
        if word[i + k] > word[j + k]:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
    return i


def canonical(code: GaussCode) -> GaussCode:
    """The canonical representative among rotations and relabellings.

    The code is rotated to the least start of its symbol word (see
    ``_least_rotation``) and relabelled by first appearance from there, in
    O(c).  The result starts with an O visit, is idempotent and does not
    depend on the input's anchor or labels.  Anchors differ from the
    earlier form, which took the least relabelled token sequence in O(c²).
    """
    tokens = code.tokens
    best = _least_rotation(tokens)
    return GaussCode(_relabel(tokens[best:] + tokens[:best]))


# ---------------------------------------------------------------------------
# DT codes
# ---------------------------------------------------------------------------

def parse_dt(text: str) -> DTCode:
    """Parse DT notation.  Raises CodeSyntaxError / StructureError.

    Empty input is the zero-crossing diagram.  The grammar demands even
    entries, so an odd magnitude is a syntax error; being a permutation
    of 2..2c is a structural requirement on top of that.
    """
    words = _split_words(text)
    evens: list[int] = []
    for word in words:
        if _INT_WORD.match(word) is None:
            raise CodeSyntaxError(f"bad DT entry {word!r}")
        value = int(word)
        if value == 0 or value % 2 != 0:
            raise CodeSyntaxError(f"DT entry {value} is not a nonzero even number")
        evens.append(value)
    c = len(evens)
    if sorted(abs(v) for v in evens) != list(range(2, 2 * c + 1, 2)):
        raise StructureError("DT entries are not a permutation of 2,4,...,2c")
    return DTCode(tuple(evens))


def dt_to_gauss(dt: DTCode) -> GaussCode:
    """Expand a DT code into the Gauss code it abbreviates.

    Crossing signs are not recoverable from DT notation and are left
    unsigned.
    """
    c = dt.crossings
    slots: list[tuple[int, bool] | None] = [None] * (2 * c)
    for i, entry in enumerate(dt.evens):
        odd_pos = 2 * i          # 0-based position of visit number 2i+1
        even_pos = abs(entry) - 1
        over_at_odd = entry > 0
        slots[odd_pos] = (i + 1, over_at_odd)
        slots[even_pos] = (i + 1, not over_at_odd)
    raw = [(label, over, UNSIGNED) for label, over in slots]  # type: ignore[misc]
    return _build_gauss(raw)


def gauss_to_dt(code: GaussCode) -> DTCode:
    """Abbreviate a Gauss code to DT form, keeping the same anchor.

    Raises StructureError when some crossing is visited twice at the same
    parity, which happens exactly for codes that DT notation cannot
    express.
    """
    positions: dict[int, list[int]] = {}
    for pos, tok in enumerate(code.tokens):
        positions.setdefault(tok.label, []).append(pos + 1)  # 1-based
    evens: list[int] = [0] * code.crossings
    for label, (p, q) in positions.items():
        if p % 2 == q % 2:
            raise StructureError(
                f"crossing {label} is visited at positions {p} and {q}; "
                "equal parity cannot be written in DT notation"
            )
        odd_pos, even_pos = (p, q) if p % 2 == 1 else (q, p)
        over_at_odd = code.tokens[odd_pos - 1].over
        evens[(odd_pos - 1) // 2] = even_pos if over_at_odd else -even_pos
    return DTCode(tuple(evens))


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

_PD_QUAD = re.compile(
    r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)"
)
_PD_BRACKET = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text: str) -> PDCode:
    """Parse PD notation.  Raises CodeSyntaxError / StructureError."""
    cleaned = _strip_comments(text)
    if not cleaned.strip():
        raise StructureError("empty PD code")
    pattern = _PD_QUAD if re.search(r"[Xx]\s*\(", cleaned) else _PD_BRACKET
    quads = [
        (int(a), int(b), int(c), int(d))
        for a, b, c, d in pattern.findall(cleaned)
    ]
    leftover = pattern.sub(" ", cleaned)
    if re.sub(r"[\s,\[\]]+", "", leftover):
        raise CodeSyntaxError(f"unrecognized PD text near {leftover.strip()!r}")
    if not quads:
        raise StructureError("empty PD code")
    c = len(quads)
    counts: dict[int, int] = {}
    for quad in quads:
        for edge in quad:
            counts[edge] = counts.get(edge, 0) + 1
    if sorted(counts) != list(range(1, 2 * c + 1)) or set(counts.values()) != {2}:
        raise StructureError("PD edge labels must be 1..2c, each used twice")
    return PDCode(tuple(sorted(quads)))


def pd_to_gauss(pd: PDCode) -> GaussCode:
    """Trace the curve of a PD code and emit the signed Gauss code.

    The under-strand of each crossing runs from the first to the third
    entry of its quadruple; following those directions around the diagram
    determines the over-strand directions and hence every crossing sign.
    Raises StructureError if the quadruples do not close into a single
    consistently-oriented curve.
    """
    incidence: dict[int, list[tuple[int, int]]] = {}
    for ci, quad in enumerate(pd.quads):
        for slot, edge in enumerate(quad):
            incidence.setdefault(edge, []).append((ci, slot))

    c = pd.crossings
    raw: list[tuple[int, bool, int]] = []
    signs: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    here = (0, 0)  # enter crossing 0 along its incoming under-strand
    for _ in range(2 * c):
        ci, slot = here
        if here in seen:
            raise StructureError("PD traversal revisits a strand; not a knot")
        seen.add(here)
        over = slot in (1, 3)
        if over:
            signs[ci] = PLUS if slot == 3 else MINUS
        raw.append((ci + 1, over, UNSIGNED))
        exit_slot = (slot + 2) % 4
        edge = pd.quads[ci][exit_slot]
        ends = incidence[edge]
        nxt = ends[0] if ends[0] != (ci, exit_slot) else ends[1]
        if nxt[1] == 2:
            raise StructureError(
                f"edge {edge} runs against the under-strand orientation"
            )
        here = nxt
    if here != (0, 0):
        raise StructureError("PD traversal does not close up; not a knot")
    if len({ci for ci, _ in seen}) != c:
        raise StructureError("PD code describes more than one component")
    raw_signed = [(label, over, signs[label - 1]) for label, over, _ in raw]
    return _build_gauss(raw_signed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(code: GaussCode | DTCode | PDCode) -> str:
    """Canonical text for a code; reparsing yields the canonical value."""
    if isinstance(code, GaussCode):
        return "".join(tok.render() for tok in canonical(code).tokens)
    if isinstance(code, DTCode):
        return " ".join(str(v) for v in code.evens)
    if isinstance(code, PDCode):
        return " ".join(f"X({a},{b},{c},{d})" for a, b, c, d in sorted(code.quads))
    raise TypeError(f"cannot serialize {type(code).__name__}")


def detect_notation(text: str) -> str:
    """Guess the notation of ``text``: ``gauss``, ``pd`` or ``dt``."""
    body = _strip_comments(text).strip()
    if not body:
        return "gauss"  # empty text is the zero-crossing Gauss code
    head = body[0]
    if head in "OoUu":
        return "gauss"
    if head in "Xx[":
        return "pd"
    if re.fullmatch(r"[-+\d\s,]+", body):
        return "dt"
    raise CodeSyntaxError(f"cannot detect notation of {body[:30]!r}")


def read_text(path: Path) -> str:
    """The UTF-8 text of a file; an unreadable file is a DataError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {path}: {reason}") from None
