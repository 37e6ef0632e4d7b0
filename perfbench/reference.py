"""The benchmark's own reference computations and output checks.

Nothing here imports warpdeg: an output is judged right or wrong only by
these walks over the visits the benchmark generated.
"""

from __future__ import annotations

import json
import re


def walk_degree(visits: list, start: int, step: int) -> int:
    """Crossings first met as an underpass, walking from ``start``."""
    n = len(visits)
    seen = set()
    count = 0
    for i in range(n):
        label, over, _ = visits[(start + step * i) % n]
        if label not in seen:
            seen.add(label)
            count += not over
    return count


def brute_degree(visits: list) -> int:
    """d(D) by a direct walk from every base point."""
    if not visits:
        return 0
    return min(walk_degree(visits, a, 1) for a in range(len(visits)))


def expected_record(visits: list) -> dict:
    """Record fields of one diagram, from a direct walk per base point.

    Base point ``a`` is the edge before position ``a``; the backward walk
    from it meets position ``a - 1`` first.
    """
    n = len(visits)
    c = n // 2
    if n == 0:
        prof = [0]
        d_rev = 0
    else:
        prof = [walk_degree(visits, a, 1) for a in range(n)]
        d_rev = min(walk_degree(visits, a - 1, -1) for a in range(n))
    poly = [0] * (c + 1)
    for degree in prof:
        poly[degree] += 1
    d = min(prof)
    return {
        "crossings": c,
        "profile": prof,
        "polynomial": poly,
        "d": d,
        "d_rev": d_rev,
        "e": d + d_rev,
        "spn": max(prof) - d,
        "monotone": d == 0,
    }


def linear_walks(visits: list) -> tuple[int, int, int, int]:
    """(d, d_rev, e, spn) from O(c) forward and reverse profile walks."""

    def degrees(seq: list) -> list[int]:
        seen = set()
        d0 = 0
        for label, over, _ in seq:
            if label not in seen:
                seen.add(label)
                d0 += not over
        out = [d0]
        for label, over, _ in seq[:-1]:
            out.append(out[-1] + (1 if over else -1))
        return out

    fwd = degrees(visits)
    rev = degrees(visits[::-1])
    d, d_rev = min(fwd), min(rev)
    return d, d_rev, d + d_rev, max(fwd) - d


_TOKEN = re.compile(r"([OU])(\d+)([+-]?)")
_CODE = re.compile(r"(?:[OU]\d+[+-]?)*")
_SIGN = {"+": 1, "-": -1, "": 0}


def _parse_tokens(text: str) -> list | None:
    if not isinstance(text, str) or _CODE.fullmatch(text) is None:
        return None
    return [(int(lab), ou == "O", _SIGN[s]) for ou, lab, s in _TOKEN.findall(text)]


def parse_code(text: str) -> list:
    """Visits of a Gauss code written as packed ``O1+U2-...`` tokens."""
    tokens = _parse_tokens(text)
    if tokens is None:
        raise ValueError(f"not a packed Gauss code: {text[:40]!r}")
    return tokens


def oracle_ok(visits: list, changes, witness) -> bool:
    """Is ``changes`` d(D), with a witness set that makes D monotone?"""
    if changes != brute_degree(visits) or not isinstance(witness, list):
        return False
    flips = set(witness)
    if len(flips) != changes or not flips <= {label for label, _, _ in visits}:
        return False
    flipped = [(label, over != (label in flips), sign) for label, over, sign in visits]
    return brute_degree(flipped) == 0


def is_relabelled_rotation(text: str, visits: list) -> bool:
    """Does ``text`` reparse to some rotation of ``visits`` up to labels?

    Over/under and sign must match visit by visit, under one bijection of
    labels.  No particular rotation is required, so any choice of
    canonical representative passes.
    """
    tokens = _parse_tokens(text)
    n = len(visits)
    if tokens is None or len(tokens) != n:
        return False
    for shift in range(max(n, 1)):
        forward: dict[int, int] = {}
        backward: dict[int, int] = {}
        for i in range(n):
            label, over, sign = visits[(shift + i) % n]
            t_label, t_over, t_sign = tokens[i]
            if over != t_over or sign != t_sign:
                break
            if forward.setdefault(label, t_label) != t_label:
                break
            if backward.setdefault(t_label, label) != label:
                break
        else:
            return True
    return False


def check_records(lines: list, stdout: str) -> list[bool]:
    """Per input line: did ``batch --output records`` answer it correctly?"""
    ok = [False] * len(lines)
    for raw in stdout.splitlines():
        try:
            record = json.loads(raw)
        except ValueError:
            continue
        number = record.get("line") if isinstance(record, dict) else None
        if not isinstance(number, int) or not 1 <= number <= len(lines):
            continue
        _, visits = lines[number - 1]
        want = expected_record(visits)
        ok[number - 1] = (
            "error" not in record
            and all(record.get(key) == value for key, value in want.items())
            and is_relabelled_rotation(record.get("canonical", ""), visits)
        )
    return ok


_TEXT_LINE = re.compile(
    r"line (\d+): d\(D\)=(\d+) d\(-D\)=(\d+) e=(\d+) spn=(\d+)\Z"
)


def check_text(codes: list, stdout: str) -> list[bool]:
    """Per input code: is its text-mode ``batch`` line right?"""
    ok = [False] * len(codes)
    for raw in stdout.splitlines():
        match = _TEXT_LINE.match(raw)
        if match is None:
            continue
        number, *values = (int(g) for g in match.groups())
        if 1 <= number <= len(codes):
            ok[number - 1] = tuple(values) == linear_walks(codes[number - 1][1])
    return ok
