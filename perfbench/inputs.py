"""Seeded inputs for the warpdeg benchmark, built without warpdeg.

A code is a list of visits ``(label, over, sign)`` in walking order; sign
is +1, -1 or 0 (unsigned).  Random codes follow the uniform random
perfect matching model: the 2c visit slots are paired by a uniformly
random perfect matching, the over/under roles are assigned uniformly
within each pair and every crossing gets a uniform sign.  This is the
model ``warpdeg.oracle.random_codes`` uses, implemented here again so
that no change to the program can change the benchmark's inputs.

PD lines are left out: planar PD codes cannot be made without the
program's own family constructors, and a random matching is almost never
planar.
"""

from __future__ import annotations

import random

CORPUS_LINES = 10_000
CORPUS_MAX_CROSSINGS = 12
DT_EVERY = 10  # every tenth corpus line is a signed DT code
LARGE_SIZES = (10_000, 20_000, 40_000, 80_000)
ORACLE_CODES = 200

QUANTILE_SAMPLE = 3000  # codes per c behind the oracle's d(D) quantiles


def matching_code(rng: random.Random, c: int) -> list[tuple[int, bool, int]]:
    """One signed code from the uniform random perfect matching model."""
    slots = list(range(2 * c))
    rng.shuffle(slots)
    visits: list = [None] * (2 * c)
    for label in range(1, c + 1):
        p, q = slots[2 * label - 2], slots[2 * label - 1]
        over_first = rng.random() < 0.5
        sign = 1 if rng.random() < 0.5 else -1
        visits[p] = (label, over_first, sign)
        visits[q] = (label, not over_first, sign)
    return visits


def first_appearance(visits: list) -> list:
    """Relabel 1..c in order of first appearance, keeping the anchor."""
    relabel: dict[int, int] = {}
    for label, _, _ in visits:
        relabel.setdefault(label, len(relabel) + 1)
    return [(relabel[label], over, sign) for label, over, sign in visits]


def render_gauss(visits: list) -> str:
    mark = {1: "+", -1: "-", 0: ""}
    return "".join(
        f"{'O' if over else 'U'}{label}{mark[sign]}" for label, over, sign in visits
    )


def _shuffled_gauss(rng: random.Random, c: int) -> list:
    """A matching-model code with shuffled labels and a random anchor."""
    visits = matching_code(rng, c)
    names = list(range(1, c + 1))
    rng.shuffle(names)
    shift = rng.randrange(2 * c)
    visits = visits[shift:] + visits[:shift]
    return [(names[label - 1], over, sign) for label, over, sign in visits]


def _signed_dt(rng: random.Random, c: int) -> tuple[str, list]:
    """A random signed DT code and the visits it abbreviates."""
    evens = list(range(2, 2 * c + 1, 2))
    rng.shuffle(evens)
    evens = [e if rng.random() < 0.5 else -e for e in evens]
    visits: list = [None] * (2 * c)
    for i, entry in enumerate(evens):
        over_at_odd = entry > 0
        visits[2 * i] = (i + 1, over_at_odd, 0)
        visits[abs(entry) - 1] = (i + 1, not over_at_odd, 0)
    return " ".join(str(e) for e in evens), visits


def corpus(seed: int) -> list[tuple[str, list]]:
    """The corpus-records lines: (text, visits) with c uniform in 1..12."""
    rng = random.Random(f"corpus-{seed}")
    lines = []
    for number in range(CORPUS_LINES):
        c = rng.randint(1, CORPUS_MAX_CROSSINGS)
        if number % DT_EVERY == DT_EVERY - 1:
            lines.append(_signed_dt(rng, c))
        else:
            visits = _shuffled_gauss(rng, c)
            lines.append((render_gauss(visits), visits))
    return lines


def large_codes(seed: int) -> list[tuple[str, list]]:
    """The large-text inputs: one matching-model code per size."""
    rng = random.Random(f"large-{seed}")
    out = []
    for c in LARGE_SIZES:
        visits = _shuffled_gauss(rng, c)
        out.append((render_gauss(visits), visits))
    return out


def oracle_codes(seed: int, degree) -> list[list]:
    """200 first-appearance-labelled codes for the subset search.

    The subset search costs about C(c, d) walks, so drawing d freely would
    let one seed cost 2.5 times another.  Instead the crossing counts cycle
    through 1..12 and, within one c, the target warping degrees are evenly
    spaced quantiles of d(D) over a fixed sample of the model (the same
    for every seed); ``degree`` is the benchmark's reference d(D).  The
    seed picks the codes that meet each target, and their order.
    """
    rng = random.Random(f"oracle-{seed}")
    per_c = [1 + i % CORPUS_MAX_CROSSINGS for i in range(ORACLE_CODES)]
    targets = []
    for c in range(1, CORPUS_MAX_CROSSINGS + 1):
        count = per_c.count(c)
        sample_rng = random.Random(f"oracle-quantiles-{c}")
        sample = sorted(degree(matching_code(sample_rng, c))
                        for _ in range(QUANTILE_SAMPLE))
        targets += [(c, sample[(2 * j + 1) * QUANTILE_SAMPLE // (2 * count)])
                    for j in range(count)]
    rng.shuffle(targets)
    codes = []
    for c, d in targets:
        while True:
            visits = first_appearance(matching_code(rng, c))
            if degree(visits) == d:
                codes.append(visits)
                break
    return codes
