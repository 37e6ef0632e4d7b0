"""Notation text and value types of knot diagrams, and Gauss-DT conversion.

Three notations are supported:

* Gauss codes: the cyclic sequence of crossing visits along the curve.
  Each token is ``(O|U)<label>(+|-)?``, e.g. ``O3`` or ``U12-``.  ``O``/``U``
  (either case) say whether the strand passes over or under at that
  visit, the optional trailing sign is the crossing sign.  The label is
  any run of decimal digits, read as an integer: ``O0`` is accepted,
  ``O01`` is ``O1`` and ``O٣`` is ``O3``.  Tokens may be separated by
  whitespace and/or commas, or packed together (``O1+U2+``); ``#`` starts
  a comment that runs to the end of the line.

* DT codes: ``c`` signed even integers.  Visits are numbered 1..2c along
  the curve; entry ``i`` pairs odd number ``2i-1`` with the even number
  ``|e_i|``, and ``e_i > 0`` means the odd-numbered visit is the overpass.

* PD codes: one quadruple ``X(a,b,c,d)`` per crossing listing the edge
  labels counterclockwise from the incoming under-strand.  Edge labels are
  1..2c, each appearing exactly twice.  A JSON-style ``[[a,b,c,d],...]``
  spelling is also accepted; ``bracket`` reads and writes PD codes.

Values are plain immutable data.  Gauss codes are normalized on
construction: labels are renumbered 1..c in order of first appearance and
each crossing's sign is carried on both of its visits.  ``serialize``
additionally picks a canonical anchor, so two codes describe the same
anchored-but-unlabelled diagram exactly when their serializations match.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress

from .errors import CodeSyntaxError, StructureError, UnknownCrossing
from .values import _Value  # the other modules import it from here

__all__ = [
    "PLUS",
    "MINUS",
    "UNSIGNED",
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
    "detect_notation",
]

PLUS = 1
MINUS = -1
UNSIGNED = 0


_MARK = {PLUS: "+", MINUS: "-", UNSIGNED: ""}


class GaussCode(_Value):
    """Normalized Gauss code: the anchored visit sequence as three columns.

    Visit ``i``, in the direction of travel from the anchor, is to crossing
    ``labels[i]``, passes over it when ``overs[i]`` is true and carries the
    crossing's sign ``signs[i]`` (PLUS, MINUS or UNSIGNED).  The code is
    also the oriented diagram it describes (see ``diagram``).

    Invariant: the labels are 1..c in order of first appearance, and both
    visits of a crossing carry its sign.  The constructor enforces it as the
    parsers do: the three columns must be of one length, the roles bools
    and the signs the ints PLUS, MINUS or UNSIGNED; each label must appear
    exactly twice, over at one visit and under at the other, without
    opposite signs, or StructureError names the first faulty label.  Any
    hashable labels are then renumbered 1..c by first appearance, a sign
    given at one visit is spread to both, and the columns are stored as
    tuples.
    """

    __slots__ = ("labels", "overs", "signs")

    def __init__(self, labels: Sequence[int], overs: Sequence[bool],
                 signs: Sequence[int]) -> None:
        if not len(labels) == len(overs) == len(signs):
            raise StructureError(
                f"columns of {len(labels)} labels, {len(overs)} roles and "
                f"{len(signs)} signs; expected one length"
            )
        for over, s in zip(overs, signs):
            if type(s) is not int or s not in _MARK:  # not True, not 1.0
                raise StructureError(f"sign {s!r} is not PLUS, MINUS or UNSIGNED")
            if type(over) is not bool:  # not 1, not 1.0
                raise StructureError(f"role {over!r} is not True or False")
        code = _build_gauss(zip(labels, overs, signs))
        super().__init__(*code._values())

    @classmethod
    def _of(cls, labels: tuple[int, ...], overs: tuple[bool, ...],
            signs: tuple[int, ...]) -> GaussCode:
        """A code of columns that keep the invariant already; unchecked."""
        code = object.__new__(cls)
        set_labels, set_overs, set_signs = cls._setters
        set_labels(code, labels)
        set_overs(code, overs)
        set_signs(code, signs)
        return code

    @property
    def crossings(self) -> int:
        return len(self.labels) // 2

    def sign_of(self, label: int) -> int:
        if label in self.labels:
            return self.signs[self.labels.index(label)]
        raise UnknownCrossing(f"no crossing labelled {label}")

    def has_all_signs(self) -> bool:
        return UNSIGNED not in self.signs


class DTCode(_Value):
    """Dowker-Thistlethwaite code: the signed even partner of 1,3,5,...

    Invariant: the entries are ints whose magnitudes are 2, 4, ..., 2c in
    some order, or the constructor raises StructureError.
    """

    __slots__ = ("evens",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for entry in self.evens:  # equal is not enough: not 2.0, not True
            if type(entry) is not int:
                raise StructureError(f"DT entry {entry!r} is not an int")
        if sorted(map(abs, self.evens)) != list(range(2, 2 * len(self.evens) + 1, 2)):
            raise StructureError("DT entries are not a permutation of 2,4,...,2c")

    @property
    def crossings(self) -> int:
        return len(self.evens)


class PDCode(_Value):
    """Planar diagram code: one edge quadruple per crossing.

    Invariant: each quadruple holds four edge labels, and the labels are
    ints 1..2c, each used twice, or the constructor raises StructureError.
    """

    __slots__ = ("quads",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for quad in self.quads:
            if len(quad) != 4:
                raise StructureError(f"PD quadruple {quad!r} does not hold "
                                     "four edge labels")
        for label in chain.from_iterable(self.quads):  # not 1.0, not True
            if type(label) is not int:
                raise StructureError(f"PD label {label!r} is not an int")
        edges = sorted(chain.from_iterable(self.quads))
        if not edges[::2] == edges[1::2] == list(range(1, len(edges) // 2 + 1)):
            raise StructureError("PD edge labels must be 1..2c, each used twice")

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
_ROLE = re.compile(r"[OoUu]")
_IS_OVER = {"O": True, "o": True, "U": False, "u": False}
_CHUNK = 1 << 15  # characters of Gauss text tokenized by one split
# each character at which str.splitlines ends a line
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(f"#[^{_LINE_BREAKS}]*")  # a "#" and the rest of its line


def _strip_comments(text: str) -> str:
    """``text`` without its ``#`` comments, its line breaks kept; the text
    itself when it holds no ``#``."""
    return _COMMENT.sub("", text) if "#" in text else text


# ---------------------------------------------------------------------------
# Gauss codes
# ---------------------------------------------------------------------------

def _build_gauss(raw: Iterable[tuple[int, bool, int]],
                 limit: int = -1) -> GaussCode:
    """Validate raw (label, over, sign) visits and normalize them.

    Normalization renumbers labels 1..c by first appearance and spreads
    each crossing's sign onto both visits.  The anchor (which visit is
    first) is preserved.  One pass over ``raw`` gathers everything; a
    fault names the first faulty label in first-appearance order,
    checking its visit count, then its roles, then its signs.

    A caller that gives ``limit`` promises int labels >= 0, numbered
    through a list indexed by label, doubled as needed up to ``limit + 1``
    slots; the first label above ``limit`` moves the call to a dict.
    Without it, a dict takes any hashable labels, equal keys being one
    crossing.
    """
    index = [0] * min(limit + 1, 64) if limit >= 0 else defaultdict(int)
    # per crossing number k (slot 0 unused): visit count, role at the
    # first visit and sign; the rare faulty crossings go into two sets
    count, first, sign = [0], [False], [UNSIGNED]
    same: set[int] = set()  # the second visit has the first one's role
    clash: set[int] = set()  # two visits carry opposite signs
    numbers = []
    overs = []
    for label, over, s in raw:
        try:
            k = index[label]
        except IndexError:  # a list's, for an unseen label >= its length
            if label > limit:
                index = defaultdict(int, compress(enumerate(index), index))
            else:
                index += [0] * (min(max(2 * len(index), label + 1), limit + 1)
                                - len(index))
            k = 0
        if not k:
            k = index[label] = len(count)
            count.append(1)
            first.append(over)
            sign.append(s)
        else:
            count[k] += 1
            if over == first[k] and count[k] == 2:
                same.add(k)
            if s != sign[k] and s != UNSIGNED:
                if sign[k] == UNSIGNED:
                    sign[k] = s
                else:
                    clash.add(k)
        numbers.append(k)
        overs.append(over)

    if count.count(2) != len(count) - 1 or same or clash:
        if isinstance(index, dict):  # name: crossing -> its first label
            name = dict(zip(index.values(), index))
        else:
            name = dict(zip(index, range(len(index))))
        for k in range(1, len(count)):
            if count[k] != 2:
                raise StructureError(
                    f"crossing {name[k]} appears {count[k]} time(s), expected 2"
                )
            if k in same:
                way = "over" if first[k] else "under"
                raise StructureError(f"crossing {name[k]} is {way} at both visits")
            if k in clash:
                raise StructureError(f"crossing {name[k]} has contradictory signs")
    # free the scratch before the columns are built, and each list as soon
    # as its tuple exists, so no more than one column is held twice over
    del index, count, first, same, clash
    signs = [sign[k] for k in numbers]
    del sign
    # tuple() of a list: from an iterator, CPython grows the tuple by
    # realloc, and the freed columns would pile up on its tuple free lists
    numbers = tuple(numbers)
    overs = tuple(overs)
    return GaussCode._of(numbers, overs, tuple(signs))


def _gauss_chunks(body: str) -> Iterator[Iterator[tuple[int, bool, int]]]:
    """The (label, over, sign) visits of comment-free Gauss text, lazily.

    Yields one iterator of visits per chunk of about ``_CHUNK``
    characters, which one ``re.split`` tokenizes: every fourth part is a
    gap between tokens, and the three parts after it are a token's role,
    label and mark.  A chunk ends just before an O or U, which no token
    holds after its first letter, so no token runs across a cut.  A gap
    that is not all separators is a syntax error, raised when its chunk is
    reached and named by the word of the whole body that starts there.
    """
    start, end = 0, len(body)
    while start < end:
        found = _ROLE.search(body, start + _CHUNK)
        cut = found.start() if found else end
        parts = _GAUSS_TOKEN.split(body[start:cut])
        gaps = parts[::4]
        if _SEPARATORS.fullmatch("".join(gaps)) is None:
            i = next(i for i, gap in enumerate(gaps)
                     if _SEPARATORS.fullmatch(gap) is None)
            pos = (start + len("".join(parts[:4 * i]))
                   + _SEPARATORS.match(gaps[i]).end())
            word = _WORD.match(body, pos).group()
            raise CodeSyntaxError(f"bad Gauss token at {word!r}")
        yield zip(map(int, parts[2::4]), map(_IS_OVER.__getitem__, parts[1::4]),
                  map(_SIGN_OF.__getitem__, parts[3::4]))
        start = cut


def parse_gauss(text: str) -> GaussCode:
    """Parse Gauss notation.  Raises CodeSyntaxError / StructureError.

    Empty input is the zero-crossing diagram.  A syntax error anywhere in
    the text is reported before any structural fault.
    """
    body = _strip_comments(text)
    # chained, the visits reach _build_gauss with no generator step each;
    # a crossing's two tokens take 4 characters or more
    return _build_gauss(chain.from_iterable(_gauss_chunks(body)), len(body) // 4)


def _relabel(labels: Sequence[int]) -> tuple[int, ...]:
    """Renumber labels 1..c by first appearance; nothing is validated.

    The labels must be 1..c already, each twice and in any order, as in a
    rotation or reversal of a normalized code's labels.
    """
    number = [0] * (len(labels) // 2 + 1)  # slot 0 unused
    fresh = 0
    out: list[int] = []
    for label in labels:
        k = number[label]
        if not k:
            fresh += 1
            k = number[label] = fresh
        out.append(k)
    return tuple(out)


def _partners(labels: Sequence[int]) -> list[int]:
    """Each visit's partner position, for labels 1..c by first appearance."""
    first: list[int] = []  # first[k - 1]: position of label k's first visit
    partner = [0] * len(labels)
    for q, label in enumerate(labels):
        if label > len(first):
            first.append(q)
        else:
            p = first[label - 1]
            partner[p], partner[q] = q, p
    return partner


def _rotated(code: GaussCode, k: int) -> GaussCode:
    """``code`` re-anchored at position ``k`` (0 <= k < 2c) and relabelled."""
    labels, overs, signs = code.labels, code.overs, code.signs
    return GaussCode._of(_relabel(labels[k:] + labels[:k]), overs[k:] + overs[:k],
                         signs[k:] + signs[:k])


_SIGN_RANK = (2, 0, 1)  # by sign: PLUS 0, MINUS (index -1) 1, UNSIGNED 2


def _least_rotation(code: GaussCode) -> int:
    """Start of the least rotation of the code's symbol word, in O(c).

    Position ``p`` has one symbol that does not depend on where a rotation
    starts: its role (O before U), then the forward distance
    ``(q - p) mod 2c`` to its partner visit ``q``, then its sign rank
    (+ before - before none).  The word fixes the code up to relabelling,
    so every least start gives the same relabelled code.  The scan is the
    standard two-index one for Booth's problem ("Lexicographically least
    circular substrings", IPL 1980): ``i`` is the best start so far, and
    every start below ``j`` other than ``i`` is beaten.  The code's labels
    are 1..c, so the partner table is a list indexed by label.
    """
    n = len(code.labels)
    # symbol = (role * n + distance) * 3 + sign rank, with 0 < distance < n
    word = [(0 if over else 3 * n) + _SIGN_RANK[sign]
            for over, sign in zip(code.overs, code.signs)]
    # inline: _partners' extra list slows batch --output records by 2-3%
    first = [-1] * (n // 2 + 1)  # label -> position of its first visit
    for p, label in enumerate(code.labels):
        q = first[label]
        if q < 0:
            first[label] = p
        else:
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
    depend on the input's anchor or labels.
    """
    return _rotated(code, _least_rotation(code))


# ---------------------------------------------------------------------------
# DT codes
# ---------------------------------------------------------------------------

def parse_dt(text: str) -> DTCode:
    """Parse DT notation.  Raises CodeSyntaxError / StructureError.

    Empty input is the zero-crossing diagram.  The grammar demands even
    entries, so an odd magnitude is a syntax error; being a permutation
    of 2..2c is a structural requirement on top of that.
    """
    evens: list[int] = []
    for word in filter(None, re.split(r"[\s,]+", _strip_comments(text))):
        if _INT_WORD.match(word) is None:
            raise CodeSyntaxError(f"bad DT entry {word!r}")
        value = int(word)
        if value == 0 or value % 2 != 0:
            raise CodeSyntaxError(f"DT entry {value} is not a nonzero even number")
        evens.append(value)
    return DTCode(tuple(evens))


def dt_to_gauss(dt: DTCode) -> GaussCode:
    """Expand a DT code into the Gauss code it abbreviates.

    Crossing signs are not recoverable from DT notation and are left
    unsigned.
    """
    raw: list = [None] * (2 * dt.crossings)
    for i, entry in enumerate(dt.evens):  # visit 2i+1 is at position 2i
        over = entry > 0
        raw[2 * i] = (i + 1, over, UNSIGNED)
        raw[abs(entry) - 1] = (i + 1, not over, UNSIGNED)
    return _build_gauss(raw, len(raw))


def gauss_to_dt(code: GaussCode) -> DTCode:
    """Abbreviate a Gauss code to DT form, keeping the same anchor.

    Raises StructureError when some crossing is visited twice at the same
    parity, which happens exactly for codes that DT notation cannot
    express.
    """
    evens: list[int] = [0] * code.crossings
    for p, q in enumerate(_partners(code.labels)):  # 0-based positions
        if p % 2 == q % 2:  # met first at the crossing's first visit: p < q
            raise StructureError(
                f"crossing {code.labels[p]} is visited at positions {p + 1} "
                f"and {q + 1}; equal parity cannot be written in DT notation"
            )
        if p % 2 == 0:  # visit number p + 1 is odd
            evens[p // 2] = q + 1 if code.overs[p] else -q - 1
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
    return PDCode(tuple(sorted(quads)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(code: GaussCode | DTCode | PDCode) -> str:
    """Canonical text for a code; reparsing yields the canonical value."""
    if isinstance(code, GaussCode):
        code = canonical(code)
        return "".join([f"{'O' if over else 'U'}{label}{_MARK[sign]}"
                        for label, over, sign
                        in zip(code.labels, code.overs, code.signs)])
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
