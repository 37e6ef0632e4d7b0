#!/usr/bin/env python3
"""Generate src/warpdeg/data/knots.tbl and certify every entry.

Each bundled diagram is either constructed by the library's planar
builders (two-bridge continued fractions, the sum-2 twist
presentations) or frozen from an exhaustive diagram search.  Before the
table is written, every identification is certified from first
principles against the complete knot table through 8 crossings:

* a reduced alternating diagram realizes the crossing number of its
  knot, so crossing count plus determinant pins the name within the
  table; when two candidates collide, the alternatives (mirrors and
  composite factorizations included) are excluded by the normalized
  bracket polynomial;
* a non-alternating diagram with c crossings still bounds the crossing
  number by c, so the same determinant-plus-bracket exclusion runs over
  every knot and composite of at most c crossings;
* composite presentations must reproduce the product of their factors'
  brackets, and alternative presentations of an entry (flype partners,
  the sum-2 twist diagrams, the 7-crossing presentation of 6_3) must
  reproduce the bracket of the entry's primary diagram;
* every written diagram must be classical (its faces make a sphere), and
  its bracket at a primitive 8th root of unity must have the absolute
  value of the coloring-matrix determinant;
* all entries must have pairwise distinct bracket fingerprints up to
  mirroring, and the finished file must pass the library's full
  verification report.

Deterministic and offline; rerun after changing any frozen code or
reference value:

    python3 tools/build_table.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from warpdeg.bracket import (
    BracketPolynomial,
    _faces,
    determinant,
    is_classical,
    kauffman_bracket,
)
from warpdeg.codes import GaussCode, parse_gauss, serialize
from warpdeg.families import _continued_fraction, ozawa_twist
from warpdeg.table import (_TABLE_FORMAT, _TABLE_VERSION, is_alternating_diagram,
                           load_table, verify_paper)
from warpdeg.warping import summary

OUT = Path(__file__).resolve().parents[1] / "src" / "warpdeg" / "data" / "knots.tbl"

# --------------------------------------------------------------------------
# construction data
# --------------------------------------------------------------------------

# Two-bridge entries: continued fraction [a1, ..., ak] realizes the
# fraction ak + 1/(... + 1/a1); the knot's determinant is its numerator.
# The twist knots are exactly the vectors [2, n].
RATIONAL: list[tuple[str, list[int], int]] = [
    ("3_1", [2, 1], 3),
    ("4_1", [2, 2], 5),
    ("5_1", [4, 1], 5),
    ("5_2", [2, 3], 7),
    ("6_1", [2, 4], 9),
    ("6_2", [3, 1, 2], 11),
    ("6_3", [2, 1, 1, 2], 13),
    ("7_1", [6, 1], 7),
    ("7_2", [2, 5], 11),
    ("7_3", [3, 4], 13),
    ("7_4", [3, 1, 3], 15),
    ("7_5", [3, 2, 2], 17),
    ("7_6", [2, 2, 1, 2], 19),
    ("7_7", [2, 1, 1, 1, 2], 21),
    ("8_1", [2, 6], 13),
    ("8_2", [5, 1, 2], 17),
    ("8_3", [4, 4], 17),
    ("8_4", [4, 1, 3], 19),
    ("8_6", [3, 3, 2], 23),
    ("8_7", [4, 1, 1, 2], 23),
    ("8_8", [2, 3, 1, 2], 25),
    ("8_9", [3, 1, 1, 3], 25),
    ("8_11", [3, 2, 1, 2], 27),
    ("8_12", [2, 2, 2, 2], 29),
    ("8_13", [3, 1, 1, 1, 2], 29),
    ("8_14", [2, 2, 1, 1, 2], 31),
]

# Frozen diagrams from the exhaustive search over closed braid and
# algebraic-tangle diagrams.  Alternating ones are reduced, hence
# minimal; the exclusion list names every other knot or composite of
# admissible crossing number sharing the determinant.
FROZEN_ALTERNATING: dict[str, tuple[str, int, list[tuple[str, ...]]]] = {
    "8_5": (
        "O1+U2+O3+U4+O5+U6+O7-U8-O4+U5+O6+U1+O2+U3+O8-U7-",
        21,
        [("3_1", "5_2")],
    ),
    "8_10": (
        "O1+U2+O3+U4+O5+U1+O2+U6-O7-U3+O4+U8-O6-U7-O8-U5+",
        27,
        [("8_11",)],
    ),
    "8_15": (
        "O1-U2-O3-U4-O2-U5-O6-U3-O4-U7-O8-U6-O5-U1-O7-U8-",
        33,
        [],
    ),
    "8_16": (
        "O1+U2-O3-U4+O5+U6-O2-U3-O7-U8-O6-U1+O4+U7-O8-U5+",
        35,
        [],
    ),
    "8_17": (
        "O1+U2+O3+U4-O5-U1+O2+U6-O7-U3+O8+U5-O6-U7-O4-U8+",
        37,
        [],
    ),
    "8_18": (
        "O1+U2-O3-U4+O5+U6-O2-U7+O4+U8-O6-U1+O7+U3-O8-U5+",
        45,
        [],
    ),
}

FROZEN_NONALTERNATING: dict[str, tuple[str, int, list[tuple[str, ...]]]] = {
    "8_19": (
        "O1-O2-U3-U4-O5-U1-O6-U7-O8-O3-U2-U6-O7-U8-O4-U5-",
        3,
        [("3_1",)],
    ),
    "8_20": (
        "O1+O2-U3-O4-O5-U6-U2-O3-U4-U7+O8+U1+O6-U5-O7+U8+",
        9,
        [("6_1",), ("3_1", "3_1")],
    ),
    "8_21": (
        "O1+O2-U3+U4-O5-U6-U2-O7-U8-U1+O6-O3+U7-O8-O4-U5-",
        15,
        [("7_4",), ("3_1", "4_1"), ("3_1", "5_1")],
    ),
}

# Connected sums of two same-handed trefoils: the two ways of threading
# the second factor give warping sums 4 and 5 on six crossings.
GRANNY_CODES = (
    "O1+O2+U3+O4+U2+O3+U4+U5+O6+U1+O5+U6+",
    "O1+U2+O3+U1+O2+U4+O5+U6+O4+U5+O6+U3+",
)

# Flype partners: same knot, different warping behavior per orientation.
SEVEN_SIX_B = "O1+U2-O3-U4+O5-U6-O4+U7-O2-U3-O7-U1+O6-U5-"
EIGHT_TWELVE_B = "O1+U2-O3+U4-O5-U3+O6-U1+O7+U6-O8+U5-O4-U8+O2-U7+"

# A 7-crossing presentation of 6_3 with warping sum 4 (one below the
# value on its minimal diagrams).
SIX_THREE_EXTRA = "O1+O2-U3-O4-O5+U6+U2-O3-U4-U1+O7+U5+O6+U7+"

# Entries whose bundled minimal set is complete: the two-bridge knots
# whose reduced alternating diagram is unique up to mirror image and
# symmetry (single twist region, or twist vector admitting no flype that
# changes the diagram), plus the trivial knot.
MINIMAL_COMPLETE = {
    "0_1", "3_1", "4_1", "5_1", "5_2", "6_1",
    "7_1", "7_2", "7_3", "8_1", "8_3",
}

NON_PRIME = {"0_1", "granny"}
NON_ALTERNATING = set(FROZEN_NONALTERNATING)

# --------------------------------------------------------------------------
# reference values
# --------------------------------------------------------------------------

# e(K): c-1 for prime alternating entries; 6 for 8_19 (twice its
# unknotting number 3 is a lower bound and its diagram realizes 6);
# 4 for 8_21 and the granny knot (realized by bundled minimal diagrams,
# and values below 4 are reserved for 0_1, 3_1, 4_1).  8_20 is omitted:
# its bundled diagram only shows e <= 5.
EXPECTED_E: dict[str, int] = {
    "0_1": 0, "3_1": 2, "4_1": 3, "5_1": 4, "5_2": 4,
    "6_1": 5, "6_2": 5, "6_3": 5,
    "7_1": 6, "7_2": 6, "7_3": 6, "7_4": 6, "7_5": 6, "7_6": 6, "7_7": 6,
    "8_1": 7, "8_2": 7, "8_3": 7, "8_4": 7, "8_5": 7, "8_6": 7, "8_7": 7,
    "8_8": 7, "8_9": 7, "8_10": 7, "8_11": 7, "8_12": 7, "8_13": 7,
    "8_14": 7, "8_15": 7, "8_16": 7, "8_17": 7, "8_18": 7,
    "8_19": 6, "8_21": 4, "granny": 4,
}

# md(K): exact where the minimal set is complete; 2 wherever some
# minimal diagram realizes warping degree 2 (only 0_1, 3_1 and 4_1 sit
# below 2, so the bound is tight); 3 for 8_19 where the unknotting
# number pins it from below.
EXPECTED_MD: dict[str, int] = {
    "0_1": 0, "3_1": 1, "4_1": 1, "5_1": 2, "5_2": 2, "6_1": 2,
    "6_2": 2, "6_3": 2, "7_1": 3, "7_2": 3, "7_3": 3, "7_6": 2, "7_7": 2,
    "8_1": 3, "8_3": 3, "8_12": 2, "8_18": 2, "8_19": 3, "8_20": 2,
    "8_21": 2, "granny": 2,
}

# e_hat(K): 0 only for the trivial knot and 2 exactly for twist knots;
# values 1 and 3 are impossible, so a non-twist entry with a sum-4
# diagram is pinned at 4.
EXPECTED_E_HAT: dict[str, int] = {
    "0_1": 0, "3_1": 2, "4_1": 2, "5_2": 2, "6_1": 2, "7_2": 2, "8_1": 2,
    "5_1": 4, "6_3": 4, "8_21": 4, "granny": 4,
}

# a(K): 0 only for the trivial knot, 1 exactly for twist knots; a
# non-twist knot with md(K) = 2 therefore has a(K) = 2, and u <= a <= md
# squeezes 5_1, 7_1 and 8_19 where u(K) = md(K).
EXPECTED_ASCENDING: dict[str, int] = {
    "0_1": 0,
    "3_1": 1, "4_1": 1, "5_2": 1, "6_1": 1, "7_2": 1, "8_1": 1,
    "5_1": 2, "6_2": 2, "6_3": 2, "7_6": 2, "7_7": 2, "8_12": 2,
    "8_18": 2, "8_20": 2, "8_21": 2, "granny": 2,
    "7_1": 3, "8_19": 3,
}

# u(K): classical unknotting numbers.
EXPECTED_UNKNOTTING: dict[str, int] = {
    "0_1": 0, "3_1": 1, "4_1": 1, "5_1": 2, "5_2": 1, "6_1": 1, "6_2": 1,
    "6_3": 1, "7_1": 3, "7_2": 1, "7_3": 2, "7_4": 2, "7_5": 2, "7_6": 1,
    "7_7": 1, "8_1": 1, "8_2": 2, "8_3": 2, "8_4": 2, "8_5": 2, "8_6": 2,
    "8_7": 1, "8_8": 2, "8_9": 1, "8_10": 2, "8_11": 1, "8_12": 2,
    "8_13": 1, "8_14": 1, "8_15": 2, "8_16": 2, "8_17": 1, "8_18": 2,
    "8_19": 3, "8_20": 1, "8_21": 1, "granny": 2,
}

# the record field of each reference table, in the order written
EXPECTED = {"e": EXPECTED_E, "md": EXPECTED_MD, "e_hat": EXPECTED_E_HAT,
            "ascending": EXPECTED_ASCENDING, "unknotting": EXPECTED_UNKNOTTING}

ORDER = (
    ["0_1", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3"]
    + [f"7_{i}" for i in range(1, 8)]
    + [f"8_{i}" for i in range(1, 22)]
    + ["granny"]
)

# --------------------------------------------------------------------------
# certification helpers
# --------------------------------------------------------------------------


def fail(message: str) -> None:
    raise SystemExit(f"certification failed: {message}")


def mirror_poly(poly: BracketPolynomial) -> BracketPolynomial:
    return BracketPolynomial.from_dict({-e: k for e, k in poly.coefficients})


def chiral_set(poly: BracketPolynomial) -> frozenset[BracketPolynomial]:
    return frozenset({poly, mirror_poly(poly)})


def composite_polys(
    factors: tuple[str, ...], fp: dict[str, BracketPolynomial]
) -> set[BracketPolynomial]:
    """Brackets of every chirality combination of a connected sum."""
    polys = {BracketPolynomial.from_dict({0: 1})}
    for name in factors:
        polys = {p * q for p in polys for q in chiral_set(fp[name])}
    return polys


def certify_planar(name: str, diagram: GaussCode) -> None:
    """Classical, and |<D>| at the 8th root of unity equals det(D).

    The value is computed exactly in Z[x]/(x^4 + 1); a classical diagram
    makes it an integer.  The bracket and the coloring matrix share no
    code, so each certifies the other.
    """
    if not is_classical(diagram):
        fail(f"{name}: diagram is not classical")
    vec = [0, 0, 0, 0]
    for e, k in kauffman_bracket(diagram).coefficients:
        vec[e % 4] += k if e % 8 < 4 else -k
    det = determinant(diagram)
    if vec[1:] != [0, 0, 0] or abs(vec[0]) != det:
        fail(f"{name}: bracket at the 8th root {vec} disagrees with the "
             f"determinant {det}")


def is_reduced(diagram: GaussCode) -> bool:
    """No nugatory crossing, read from the faces in O(c).

    On a classical diagram (certify_planar checks that) a nugatory
    crossing is one that a face meets at two corners, which are opposite
    (a 4-valent graph has no bridge): the ends into and out of one visit.
    """
    face = _faces(diagram)  # face[-1] is end 4c - 1, the one into visit 0
    return all(face[2 * p - 1] != face[2 * p] for p in range(len(diagram.labels)))


def certify_identity(
    name: str,
    diagram: GaussCode,
    det: int,
    excluded: list[tuple[str, ...]],
    fp: dict[str, BracketPolynomial],
    alternating: bool,
) -> BracketPolynomial:
    """Pin the diagram to its name within the table through 8 crossings.

    Alternating diagrams must be reduced (then their crossing count is
    the knot's crossing number); any diagram bounds the crossing number
    from above.  Either way the determinant narrows the candidates to
    the named knot plus the excluded list, and the bracket rules the
    excluded ones out.
    """
    if is_alternating_diagram(diagram) != alternating:
        fail(f"{name}: alternation pattern is not {alternating}")
    if alternating and not is_reduced(diagram):
        fail(f"{name}: alternating diagram is not reduced")
    got = determinant(diagram)
    if got != det:
        fail(f"{name}: determinant {got}, want {det}")
    poly = kauffman_bracket(diagram)
    for factors in excluded:
        rivals = composite_polys(factors, fp)
        if poly in rivals:
            fail(f"{name}: bracket matches excluded {'#'.join(factors)}")
    return poly


def same_knot(
    name: str, poly: BracketPolynomial, reference: BracketPolynomial
) -> None:
    if poly not in chiral_set(reference):
        fail(f"{name}: bracket differs from the entry's primary diagram")


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------


def build_entries() -> list[dict]:
    fp: dict[str, BracketPolynomial] = {}
    codes: dict[str, list[str]] = {}
    extras: dict[str, list[str]] = {}
    twist_of: dict[str, int] = {}

    # primaries from a continued fraction or a frozen Gauss code, then flype
    # partners matched to them; exclusions name only entries certified before
    sources = [(name, entries, det, []) for name, entries, det in RATIONAL]
    sources += [(name, *spec) for name, spec
                in (FROZEN_ALTERNATING | FROZEN_NONALTERNATING).items()]
    sources += [("7_6", SEVEN_SIX_B, 19, []),
                ("8_12", EIGHT_TWELVE_B, 29, [("8_13",)])]
    for name, source, det, excluded in sources:
        label = f"{name}-partner" if name in fp else name
        if isinstance(source, str):
            diagram = parse_gauss(source)
        else:
            diagram = _continued_fraction(source)
            if diagram.crossings != sum(source):
                fail(f"{name}: twist vector {source} lost a crossing")
            if len(source) == 2 and source[0] == 2:
                twist_of[name] = source[1]
        poly = certify_identity(label, diagram, det, excluded, fp,
                                name not in NON_ALTERNATING)
        same_knot(label, poly, fp.setdefault(name, poly))
        codes.setdefault(name, []).append(serialize(diagram))

    # granny knot: both threadings must be one same-handed trefoil sum
    trefoil_sums = {p * p for p in chiral_set(fp["3_1"])}
    mixed = fp["3_1"] * mirror_poly(fp["3_1"])
    if mixed in trefoil_sums:
        fail("granny: trefoil bracket cannot separate handedness")
    grannies = [parse_gauss(code) for code in GRANNY_CODES]
    granny_polys = {kauffman_bracket(diagram) for diagram in grannies}
    if ({determinant(diagram) for diagram in grannies} != {9}
            or len(granny_polys) != 1 or not granny_polys <= trefoil_sums):
        fail("granny: the presentations are not one same-handed trefoil sum")
    fp["granny"] = granny_polys.pop()
    codes["granny"] = [serialize(diagram) for diagram in grannies]

    # non-minimal presentations driving the reduced-sum upper bounds; the
    # trefoil's own 3-crossing diagram already has sum 2
    for name, n in twist_of.items():
        if n < 2:
            continue
        diagram = ozawa_twist(n)
        if summary(diagram).warping_sum != 2:
            fail(f"{name}: sum-2 presentation has the wrong warping sum")
        if kauffman_bracket(diagram) != fp[name]:
            fail(f"{name}: sum-2 presentation is a different knot")
        extras[name] = [serialize(diagram)]

    diagram = parse_gauss(SIX_THREE_EXTRA)
    if summary(diagram).warping_sum != 4:
        fail("6_3: the 7-crossing presentation must have warping sum 4")
    if chiral_set(fp["6_3"]) & chiral_set(fp["7_3"]):
        fail("6_3: bracket cannot separate 6_3 from 7_3")
    same_knot("6_3-extra", kauffman_bracket(diagram), fp["6_3"])
    extras["6_3"] = [serialize(diagram)]

    # trivial knot
    fp["0_1"] = BracketPolynomial.from_dict({0: 1})
    codes["0_1"] = [""]

    # no two entries may agree up to mirror image
    for i, a in enumerate(ORDER):
        for b in ORDER[i + 1:]:
            if chiral_set(fp[a]) == chiral_set(fp[b]):
                fail(f"{a} and {b} have identical bracket fingerprints")

    for name in ORDER:
        for code in codes[name] + extras.get(name, []):
            certify_planar(name, parse_gauss(code))

    records = []
    for name in ORDER:
        record: dict = {
            "name": name,
            "crossings": parse_gauss(codes[name][0]).crossings,
            "prime": name not in NON_PRIME,
            "alternating": name not in NON_ALTERNATING,
        }
        if name in twist_of:
            record["twist"] = twist_of[name]
        record["minimal"] = codes[name]
        record["minimal_complete"] = name in MINIMAL_COMPLETE
        if name in extras:
            record["extra"] = extras[name]
        expected = {field: table[name] for field, table in EXPECTED.items()
                    if name in table}
        if expected:
            record["expected"] = expected
        records.append(record)
    return records


def render_table(records: list[dict]) -> str:
    """The text of ``knots.tbl``: comment lines, header, one record a line."""
    lines = [
        "# knot table: prime knots through 8 crossings plus the granny knot",
        "# regenerate with: python3 tools/build_table.py",
        json.dumps({"format": _TABLE_FORMAT, "version": _TABLE_VERSION}),
    ]
    lines += [json.dumps(record) for record in records]
    return "\n".join(lines) + "\n"


def main() -> int:
    records = build_entries()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(render_table(records), encoding="utf-8")
    print(f"wrote {len(records)} entries to {OUT}")

    report = verify_paper(load_table(OUT))
    print(report.render_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
