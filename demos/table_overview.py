#!/usr/bin/env python3
"""The bundled knot table at a glance.

For every entry: the warping sum computed from the bundled minimal
diagrams (exact when the minimal set is complete, otherwise an upper
bound, printed with <=), the minimal warping degree, and the window for
the reduced warping sum.  The tail of each line shows how the sum sits
against the c - 1 ceiling: prime alternating knots reach it, everything
else stays below.
"""

from __future__ import annotations

from warpdeg.table import e_hat_bounds, knot_e, knot_md, load_table


def main() -> None:
    table = load_table()
    print(f"{'name':>7} {'c':>2} {'e':>5} {'md':>5} {'e_hat':>8}  notes")
    for entry in table:
        e, e_exact = knot_e(entry)
        md, md_exact = knot_md(entry)
        lo, hi = e_hat_bounds(entry)
        e_text = f"{e}" if e_exact else f"<={e}"
        md_text = f"{md}" if md_exact else f"<={md}"
        window = f"{lo}" if lo == hi else f"[{lo},{hi}]"
        notes = []
        if entry.crossings and e == entry.crossings - 1:
            notes.append("e = c-1" + (" (prime alternating)"
                                      if entry.prime and entry.alternating
                                      else ""))
        if entry.twist is not None:
            notes.append(f"twist n={entry.twist}")
        if len(entry.minimal_diagrams) > 1:
            notes.append(f"{len(entry.minimal_diagrams)} minimal diagrams")
        print(f"{entry.name:>7} {entry.crossings:>2} {e_text:>5} "
              f"{md_text:>5} {window:>8}  {'; '.join(notes)}")


if __name__ == "__main__":
    main()
