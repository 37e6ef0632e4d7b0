"""The brute-force oracles agree with the engine and certify themselves."""

from __future__ import annotations

from itertools import combinations

import pytest

from warpdeg.codes import GaussCode, parse_gauss, serialize
from warpdeg.diagram import from_gauss
from warpdeg.errors import BudgetExceeded, CapExceeded, InvalidParam
from warpdeg.families import ozawa_twist, twist_minimal
from warpdeg.oracle import (
    ORACLE_CAP,
    OracleResult,
    min_changes_to_monotone,
    profile_bruteforce,
    random_codes,
)
from warpdeg.warping import profile, warping_degree

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE8 = "O1+U2-O3-U1+O4+U3-O2-U4+"


def diagram(text: str):
    return from_gauss(parse_gauss(text))


# ---------------------------------------------------------------------------
# full-walk profile recomputation
# ---------------------------------------------------------------------------

def test_bruteforce_profile_matches_the_incremental_one():
    for text in (TREFOIL, FIGURE8, "O1U1", "U1O1", ""):
        d = diagram(text)
        assert profile_bruteforce(d) == profile(d)


def test_bruteforce_profile_matches_on_random_codes():
    for code in random_codes(60, 8, seed=11):
        d = from_gauss(code)
        assert profile_bruteforce(d) == profile(d)


# ---------------------------------------------------------------------------
# subset search
# ---------------------------------------------------------------------------

def test_trefoil_witness():
    result = min_changes_to_monotone(diagram(TREFOIL))
    assert result == OracleResult(changes=1, witness=(1,), nodes_searched=2)


def test_figure_eight_witness():
    result = min_changes_to_monotone(diagram(FIGURE8))
    assert result == OracleResult(changes=1, witness=(1,), nodes_searched=2)


def test_monotone_diagrams_need_no_changes():
    for text in ("", "O1U1", "U1O1", "O1O2O3U1U2U3"):
        result = min_changes_to_monotone(diagram(text))
        assert result.changes == 0
        assert result.witness == ()
        assert result.nodes_searched == 1


def test_search_agrees_with_the_warping_degree():
    for code in random_codes(60, 7, seed=23):
        d = from_gauss(code)
        assert min_changes_to_monotone(d).changes == warping_degree(d)


def test_budget_below_the_answer_raises():
    with pytest.raises(BudgetExceeded):
        min_changes_to_monotone(diagram(TREFOIL), budget=0)


def test_budget_at_the_answer_succeeds():
    assert min_changes_to_monotone(diagram(TREFOIL), budget=1).changes == 1


def test_negative_budget_is_rejected():
    with pytest.raises(InvalidParam):
        min_changes_to_monotone(diagram(TREFOIL), budget=-1)


@pytest.mark.parametrize("text", [TREFOIL, ""])
def test_negative_cap_is_rejected(text):
    with pytest.raises(InvalidParam, match="^cap must be nonnegative, got -1$"):
        min_changes_to_monotone(diagram(text), cap=-1)


def test_crossing_cap_is_enforced():
    c = ORACLE_CAP + 1
    text = "".join(f"O{i}" for i in range(1, c + 1)) + \
        "".join(f"U{i}" for i in range(1, c + 1))
    with pytest.raises(CapExceeded):
        min_changes_to_monotone(diagram(text))
    assert min_changes_to_monotone(diagram(text), cap=c).changes == 0


# ---------------------------------------------------------------------------
# the full-count walk per subset as the reference for the per-diagram walks
# ---------------------------------------------------------------------------

# A 16-crossing code with d(D) = 5, drawn like the benchmark's c = 16
# oracle probe: the search tests 3,758 subsets.
PROBE16 = ("U1+O2+O3-O4-U5+O6+O7-U8-U3-U9+U10-U11+U12-U7-O13+O12-O9+U14-"
           "U2+U6+O8-O15-O10-U16+U13+U4-O1+U15-O11+O16+O14-O5+")


def _is_monotone_after(diagram: GaussCode, flipped: frozenset[int]) -> bool:
    """Does some base point see only overpasses first, after the flips?"""
    labels, overs = diagram.labels, diagram.overs
    n = len(labels)
    if n == 0:
        return True
    best = n + 1
    for base in range(n):
        seen: set[int] = set()
        count = 0
        for step in range(n):
            i = (base + step) % n
            label, over = labels[i], overs[i]
            if label not in seen:
                seen.add(label)
                under = over if label in flipped else not over
                if under:
                    count += 1
        best = min(best, count)
        if best == 0:
            return True
    return False


def reference_search(diagram: GaussCode) -> OracleResult:
    """The subset search, each subset tested by counting every walk."""
    c = diagram.crossings
    searched = 0
    for size in range(c + 1):
        for subset in combinations(range(1, c + 1), size):
            searched += 1
            if _is_monotone_after(diagram, frozenset(subset)):
                return OracleResult(size, subset, searched)
    raise AssertionError("some set of crossing changes always makes it monotone")


def _assert_matches_the_reference(d: GaussCode) -> None:
    result = min_changes_to_monotone(d)
    assert result == reference_search(d)
    assert min_changes_to_monotone(d, budget=result.changes) == result
    for budget in range(result.changes):  # the reference finds nothing smaller
        with pytest.raises(BudgetExceeded):
            min_changes_to_monotone(d, budget=budget)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_search_matches_the_reference_on_random_codes(seed):
    for code in random_codes(300, 12, seed):
        _assert_matches_the_reference(from_gauss(code))


def test_search_matches_the_reference_on_bundled_diagrams(table):
    diagrams = [d for entry in table
                for d in entry.minimal_diagrams + entry.extra_diagrams]
    diagrams += [twist_minimal(n) for n in range(1, 13)]
    diagrams += [ozawa_twist(n) for n in range(1, 7)]
    for d in diagrams:
        _assert_matches_the_reference(d)


@pytest.mark.parametrize("text", [PROBE16, ""], ids=["c16", "empty"])
def test_search_matches_the_reference_at_the_extremes(text):
    d = diagram(text)
    _assert_matches_the_reference(d)
    assert min_changes_to_monotone(d).nodes_searched == (3758 if text else 1)


# ---------------------------------------------------------------------------
# seeded code generation
# ---------------------------------------------------------------------------

def test_random_codes_are_deterministic_per_seed():
    first = [serialize(c) for c in random_codes(10, 8, seed=42)]
    again = [serialize(c) for c in random_codes(10, 8, seed=42)]
    other = [serialize(c) for c in random_codes(10, 8, seed=43)]
    assert first == again
    assert first != other


def test_random_codes_respect_the_crossing_bound():
    assert all(
        1 <= code.crossings <= 5 for code in random_codes(50, 5, seed=3)
    )


def test_random_codes_empty_request():
    assert random_codes(0, 8, seed=0) == []


@pytest.mark.parametrize("count,bound", [(-1, 8), (5, 0)])
def test_random_codes_reject_bad_parameters(count, bound):
    with pytest.raises(InvalidParam):
        random_codes(count, bound, seed=0)
