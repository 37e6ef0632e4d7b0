"""Independent slow-path checks for the warping engine.

Everything here recomputes a quantity the engine gets by a faster or
slicker route, by a method that shares no code and no step rule with
it.  Both checks read one walk, ``_first_overpasses``: the full circle
once per base point, recording the crossings met first as overpasses.

* ``profile_bruteforce`` counts, per base point, the crossings not met
  first as overpasses, instead of using the incremental step rule.
* ``min_changes_to_monotone`` searches subsets of crossings to change,
  smallest first, until a monotone diagram appears.  Its answer must
  equal the warping degree.  Which visit of a crossing comes first from
  a base point does not depend on which crossings are changed, so the
  walk is made once per diagram, giving the set of subsets that make
  some base point monotone.  Each size's subsets are summed and looked up
  there by C-level iterators; the first hit's index gives the witness.
* ``random_codes`` produces seeded abstract Gauss codes (uniform pairing
  of visit slots, random strand roles and signs) to feed both checks.

The subset search visits up to 2^c diagrams and is capped hard.
"""

from __future__ import annotations

from itertools import combinations, compress, count, islice
from math import comb

from .codes import GaussCode, MINUS, PLUS, _Value, _build_gauss
from .errors import BudgetExceeded, CapExceeded, InvalidParam

__all__ = [
    "ORACLE_CAP",
    "OracleResult",
    "profile_bruteforce",
    "min_changes_to_monotone",
    "random_codes",
]

ORACLE_CAP = 16


class OracleResult(_Value):
    """Certificate from the subset search.

    ``witness`` holds the crossing labels changed, sorted;
    ``nodes_searched`` counts the subsets tested, the witness included.
    """

    __slots__ = ("changes", "witness", "nodes_searched")


def _first_overpasses(diagram: GaussCode) -> list[int]:
    """Per base point, the crossings whose first visit is an overpass.

    Each set is an int bitmask, crossing k being bit k.  Every base point
    gets its own full walk with its own ``seen`` record.  A crossingless
    diagram has one base point, which meets nothing.
    """
    visits = list(zip(diagram.labels, diagram.overs))
    n = len(visits)
    if n == 0:
        return [0]
    masks = []
    for base in range(n):
        seen: set[int] = set()
        mask = 0
        for label, over in visits[base:] + visits[:base]:
            if label not in seen:
                seen.add(label)
                if over:
                    mask |= 1 << label
        masks.append(mask)
    return masks


def profile_bruteforce(diagram: GaussCode) -> tuple[int, ...]:
    """Warping degrees by 2c independent full walks of the curve.

    Every crossing is met first as either an overpass or an underpass,
    so a base point's degree is c minus its count of first overpasses.
    """
    c = diagram.crossings
    return tuple(c - mask.bit_count() for mask in _first_overpasses(diagram))


def min_changes_to_monotone(
    diagram: GaussCode,
    budget: int | None = None,
    cap: int = ORACLE_CAP,
) -> OracleResult:
    """Smallest set of crossing changes that makes the diagram monotone.

    Subsets are tried in order of size, within a size in lexicographic
    order of the sorted label tuple, so the witness is deterministic.
    Each base point is walked once, up front; changing the crossings in
    a subset S makes base point b monotone exactly when S flips every
    crossing b meets first as an underpass and no other, that is when
    b's overpass mask XOR S holds every crossing.  A budget below the
    true answer raises BudgetExceeded; with the default budget (all
    crossings) the search always succeeds, since changing every
    underpass-first crossing from any base point is enough.
    """
    if cap < 0:
        raise InvalidParam(f"cap must be nonnegative, got {cap}")
    c = diagram.crossings
    if c > cap:
        raise CapExceeded(f"subset search is exponential; {c} crossings > cap {cap}")
    limit = c if budget is None else budget
    if limit < 0:
        raise InvalidParam(f"budget must be nonnegative, got {limit}")
    every = (1 << (c + 1)) - 2  # bits 1..c
    # the one subset per base point that makes it monotone
    wanted = {every ^ mask for mask in _first_overpasses(diagram)}
    bits = [1 << k for k in range(1, c + 1)]
    searched = 0
    for size in range(min(limit, c) + 1):
        hits = map(wanted.__contains__, map(sum, combinations(bits, size)))
        i = next(compress(count(), hits), None)  # index of the first hit
        if i is None:
            searched += comb(c, size)
            continue
        subset = next(islice(combinations(bits, size), i, None))
        witness = tuple(bit.bit_length() - 1 for bit in subset)
        return OracleResult(size, witness, searched + i + 1)
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
    import random  # here, so that the CLI's import of this module stays cheap

    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    if max_crossings < 1:
        raise InvalidParam(f"max_crossings must be >= 1, got {max_crossings}")
    rng = random.Random(seed)
    out: list[GaussCode] = []
    for _ in range(count):
        c = rng.randint(1, max_crossings)
        slots = list(range(2 * c))
        rng.shuffle(slots)
        visits: list = [None] * (2 * c)  # every slot is filled below
        for label in range(1, c + 1):
            p, q = slots[2 * label - 2], slots[2 * label - 1]
            over_first = rng.random() < 0.5
            sign = PLUS if rng.random() < 0.5 else MINUS
            visits[p] = (label, over_first, sign)
            visits[q] = (label, not over_first, sign)
        out.append(_build_gauss(visits, 2 * c))
    return out
