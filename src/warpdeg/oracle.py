"""Independent slow-path checks for the warping engine.

Everything here recomputes a quantity the engine gets by a faster or
slicker route, using a method with no shared code:

* ``profile_bruteforce`` walks the full circle once per base point
  instead of using the incremental step rule.
* ``min_changes_to_monotone`` searches subsets of crossings to change,
  smallest first, until a monotone diagram appears.  Its answer must
  equal the warping degree.  Each base point's walk stops at its first
  underpass-first visit and shares no step rule with the engine.
* ``random_codes`` produces seeded abstract Gauss codes (uniform pairing
  of visit slots, random strand roles and signs) to feed both checks.

The subset search visits up to 2^c diagrams and is capped hard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .codes import GaussCode, GaussToken, MINUS, PLUS, _build_gauss
from .diagram import OrientedDiagram
from .errors import BudgetExceeded, CapExceeded, InvalidParam
from .warping import WarpingProfile

__all__ = [
    "ORACLE_CAP",
    "OracleResult",
    "profile_bruteforce",
    "min_changes_to_monotone",
    "random_codes",
]

ORACLE_CAP = 16


@dataclass(frozen=True)
class OracleResult:
    """Certificate from the subset search."""

    changes: int
    witness: tuple[int, ...]  # crossing labels changed, sorted
    nodes_searched: int  # subsets tested, including the witness


def profile_bruteforce(diagram: OrientedDiagram) -> WarpingProfile:
    """Warping degrees by 2c independent full walks of the curve."""
    occ = diagram.tokens
    n = len(occ)
    if n == 0:
        return WarpingProfile((0,))
    degrees = []
    for base in range(n):
        seen: set[int] = set()
        count = 0
        for step in range(n):
            tok = occ[(base + step) % n]
            if tok.label not in seen:
                seen.add(tok.label)
                if not tok.over:
                    count += 1
        degrees.append(count)
    return WarpingProfile(tuple(degrees))


def _is_monotone_after(occ: tuple[GaussToken, ...], flipped: frozenset[int]) -> bool:
    """Does some base point see only overpasses first, after the flips?

    Each base point gets its own full walk, which stops at the first
    first-visit underpass: nothing after it can make that base monotone.
    """
    n = len(occ)
    if n == 0:
        return True
    for base in range(n):
        seen: set[int] = set()
        for step in range(n):
            tok = occ[(base + step) % n]
            if tok.label not in seen:
                seen.add(tok.label)
                if tok.over == (tok.label in flipped):  # an underpass
                    break
        else:
            return True
    return False


def min_changes_to_monotone(
    diagram: OrientedDiagram,
    budget: int | None = None,
    cap: int = ORACLE_CAP,
) -> OracleResult:
    """Smallest set of crossing changes that makes the diagram monotone.

    Subsets are tried in order of size, within a size in lexicographic
    order of the sorted label tuple, so the witness is deterministic.
    A budget below the true answer raises BudgetExceeded; with the
    default budget (all crossings) the search always succeeds, since
    changing every underpass-first crossing from any base point is
    enough.
    """
    c = diagram.crossings
    if c > cap:
        raise CapExceeded(f"subset search is exponential; {c} crossings > cap {cap}")
    limit = c if budget is None else budget
    if limit < 0:
        raise InvalidParam(f"budget must be nonnegative, got {limit}")
    occ = diagram.tokens
    searched = 0
    for size in range(min(limit, c) + 1):
        for subset in combinations(range(1, c + 1), size):
            searched += 1
            if _is_monotone_after(occ, frozenset(subset)):
                return OracleResult(
                    changes=size, witness=subset, nodes_searched=searched
                )
    raise BudgetExceeded(
        f"no monotone diagram within {limit} crossing change(s)"
    )


def random_codes(count: int, max_crossings: int, seed: int) -> list[GaussCode]:
    """Seeded abstract Gauss codes for differential testing.

    Each code pairs the visit slots of a uniformly random perfect
    matching, assigns over/under uniformly within each pair, and gives
    every crossing a random sign.  Codes need not be realizable in the
    plane; every engine computation here is defined for them anyway.
    """
    if count < 0 or max_crossings < 1:
        raise InvalidParam("count must be >= 0 and max_crossings >= 1")
    rng = random.Random(seed)
    out: list[GaussCode] = []
    for _ in range(count):
        c = rng.randint(1, max_crossings)
        slots = list(range(2 * c))
        rng.shuffle(slots)
        visits: list[tuple[int, bool, int] | None] = [None] * (2 * c)
        for label in range(1, c + 1):
            p, q = slots[2 * label - 2], slots[2 * label - 1]
            over_first = rng.random() < 0.5
            sign = PLUS if rng.random() < 0.5 else MINUS
            visits[p] = (label, over_first, sign)
            visits[q] = (label, not over_first, sign)
        out.append(_build_gauss([v for v in visits if v is not None]))
    return out
