#!/usr/bin/env python3
"""A walking tour of the warping profile.

The warping degree d_a(D) counts the crossings met first as underpasses
when walking from base point a.  Sliding the base point past one visit
changes the count by exactly 1, so the 2c base points trace a cyclic
profile of +-1 steps.  Its minimum is d(D); together with the reversed
orientation it gives the warping sum e(D) = d(D) + d(-D) and the span
spn(D) = c - e(D).

The tour shows the profile on the trefoil, then on a pair of 7-crossing
diagrams of the same knot related by a flype: the sum e is the same for
both (it only depends on the knot through its minimal diagrams), while
the orientation pair (d(D), d(-D)) is not even preserved by moves that
fix the knot.
"""

from __future__ import annotations

from warpdeg.codes import parse_gauss
from warpdeg.warping import profile, summary

TREFOIL = "O1+U2+O3+U1+O2+U3+"

# same knot, different diagrams: a flype moves one crossing
SEVEN_SIX_A = "O1+U2-O3-U1+O4+U5-O6-U3-O2-U7-O5-U6-O7-U4+"
SEVEN_SIX_B = "O1+U2-O3-U4+O5-U6-O4+U7-O2-U3-O7-U1+O6-U5-"


def sparkline(degrees: tuple[int, ...]) -> str:
    peak = max(degrees)
    rows = []
    for level in range(peak, -1, -1):
        rows.append("".join("o" if d == level else " " for d in degrees))
    return "\n".join(rows)


def tour(name: str, code: str) -> None:
    d = parse_gauss(code)
    s = summary(d)
    print(f"--- {name} ({s.crossings} crossings) ---")
    print(f"profile, one value per base point:")
    print(sparkline(profile(d)))
    print(f"d(D) = {s.d_forward}   (min of the profile)")
    print(f"d(-D) = {s.d_reverse}   (= c - max: the reverse walk"
          " sees the complementary count)")
    print(f"e(D) = {s.warping_sum}, spn(D) = {s.span},"
          f" and indeed e = c - spn = {s.crossings} - {s.span}")
    print()


def main() -> None:
    tour("trefoil", TREFOIL)
    tour("7_6, table diagram", SEVEN_SIX_A)
    tour("7_6, after one flype", SEVEN_SIX_B)
    a = summary(parse_gauss(SEVEN_SIX_A))
    b = summary(parse_gauss(SEVEN_SIX_B))
    print("the flype kept e =", a.warping_sum, "==", b.warping_sum,
          "but moved the orientation pair",
          (a.d_forward, a.d_reverse), "->", (b.d_forward, b.d_reverse))


if __name__ == "__main__":
    main()
