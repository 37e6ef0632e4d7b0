#!/usr/bin/env python3
"""Twist knots: where the warping sum and its reduced cousin part ways.

On the minimal (n+2)-crossing diagram of the n-twist knot the numbers
grow with n: the degree pair is ((n+1)/2, (n+1)/2) for odd n and
{n/2, (n+2)/2} for even n, so e = n + 1.

But e is a minimal-diagram quantity.  Allowing any diagram, the same
knot has a (2n+1)-crossing presentation in which one arc runs over
everything except a single clasp crossing; walking that arc from either
end meets only the clasp as a first-visit underpass, so d(D) = d(-D) = 1
and e(D) = 2 -- for every n.  The reduced sum (the minimum over all
diagrams) is therefore 2 for every twist knot, while e climbs without
bound: extra crossings can simplify the warping structure.
"""

from __future__ import annotations

from warpdeg.bracket import kauffman_bracket
from warpdeg.families import ozawa_twist, twist_minimal
from warpdeg.warping import summary


def main() -> None:
    print(f"{'n':>2} {'knot':>5} | {'minimal diagram':^23} | "
          f"{'sum-2 presentation':^22}")
    print(f"{'':>2} {'':>5} | {'c':>3} {'(d, d_rev)':>10} {'e':>3} | "
          f"{'c':>3} {'(d, d_rev)':>10} {'e':>3}")
    names = {1: "3_1", 2: "4_1", 3: "5_2", 4: "6_1", 5: "7_2", 6: "8_1"}
    rows = range(1, 9)
    for n in rows:
        small = summary(twist_minimal(n))
        wide = summary(ozawa_twist(n))
        name = names.get(n, "-")
        print(f"{n:>2} {name:>5} | {small.crossings:>3} "
              f"{str((small.d_forward, small.d_reverse)):>10} "
              f"{small.warping_sum:>3} | {wide.crossings:>3} "
              f"{str((wide.d_forward, wide.d_reverse)):>10} "
              f"{wide.warping_sum:>3}")
    print()
    print("same knot both columns (bracket fingerprints agree):",
          all(kauffman_bracket(twist_minimal(n), cap=n + 2) ==
              kauffman_bracket(ozawa_twist(n), cap=2 * n + 1) for n in rows))


if __name__ == "__main__":
    main()
