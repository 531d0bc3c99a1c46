"""End-to-end checks of the advertised behaviors, one test per behavior.

Run with ``pytest -v tests/test_acceptance.py`` to get a single PASSED or
FAILED line per behavior.  All arithmetic is exact: scores and bounds are
compared as fractions, never within a floating-point tolerance.
"""

from fractions import Fraction

import pytest

from fdlb.decision import rank
from fdlb.model import And, Atom, ConcretePredicate, Exists, Not, Quantity
from fdlb.reasoner import InconsistencyError, saturate

from kbgen import random_kb
from kbtools import interval_map
from naive_engine import naive_saturate

TABLETS = ("tab_1", "tab_2", "tab_3")

F = Fraction


@pytest.fixture(scope="module")
def crisp_sat(crisp_kb):
    return saturate(crisp_kb)


@pytest.fixture(scope="module")
def fuzzy_sat(fuzzy_kb):
    return saturate(fuzzy_kb)


@pytest.fixture(scope="module")
def complete_sat(complete_kb):
    return saturate(complete_kb)


def scores(sat, ubox):
    return {row.choice: row.score for row in rank(sat, TABLETS, ubox).rows}


def test_crisp_base_scores_every_tablet_exactly(crisp_sat, expert1, expert2):
    assert scores(crisp_sat, expert1) == {"tab_1": F(80), "tab_2": F(50), "tab_3": F(40)}
    assert scores(crisp_sat, expert2) == {"tab_1": F(30), "tab_2": F(60), "tab_3": F(20)}


def test_fuzzy_base_entails_graded_weight_band(fuzzy_sat):
    band = And(
        Exists("hasWeight", ConcretePredicate(">=", Quantity(F(900), "g"))),
        Exists("hasWeight", ConcretePredicate("<=", Quantity(F(1100), "g"))),
    )
    assert fuzzy_sat.instance_interval("tab_3", band).lo == F(1, 2)
    assert fuzzy_sat.instance_interval("tab_3", Atom("LightweightTablet")).lo == F(3, 5)


def test_completed_base_scores_with_partial_memberships(complete_sat, expert1, expert2):
    assert scores(complete_sat, expert1) == {"tab_1": F(80), "tab_2": F(50), "tab_3": F(89)}
    assert scores(complete_sat, expert2) == {"tab_1": F(30), "tab_2": F(60), "tab_3": F(56)}
    # the winning score decomposes over the weighted membership bounds
    assert F(89) == F(50) * F(1, 2) + F(40) * F(1) + F(40) * F(3, 5)
    assert F(56) == F(60) * F(1, 2) + F(20) * F(1) + F(10) * F(3, 5)
    assert rank(complete_sat, ("tab_3",), expert1).rows[0].score == F(89)


def test_experts_disagree_on_the_ideal_choice(complete_sat, expert1, expert2):
    first = rank(complete_sat, TABLETS, expert1)
    assert first.ideal == "tab_3"
    assert [(r.choice, r.score) for r in first.rows] == [
        ("tab_3", F(89)),
        ("tab_1", F(80)),
        ("tab_2", F(50)),
    ]
    second = rank(complete_sat, TABLETS, expert2)
    assert second.ideal == "tab_2"
    assert [(r.choice, r.score) for r in second.rows] == [
        ("tab_2", F(60)),
        ("tab_3", F(56)),
        ("tab_1", F(30)),
    ]


def test_completion_closes_exactly_the_reported_gaps(fuzzy_sat, complete_sat, expert1, expert2):
    for ubox in (expert1, expert2):
        before = rank(fuzzy_sat, TABLETS, ubox).undecided
        assert set(before) == {
            ("tab_2", "LightweightTablet"),
            ("tab_3", "InexpensiveTablet"),
        }
        assert rank(complete_sat, TABLETS, ubox).undecided == ()


def test_crisp_negation_is_sharp(crisp_sat):
    expensive = crisp_sat.instance_interval("tab_1", Atom("ExpensiveTablet"))
    assert (expensive.lo, expensive.hi) == (F(1), F(1))
    negated = crisp_sat.instance_interval("tab_1", Not(Atom("ExpensiveTablet")))
    assert (negated.lo, negated.hi) == (F(0), F(0))


def test_engine_agrees_with_independent_sweep_on_100_bases():
    checked = 0
    for seed in range(100):
        kb = random_kb(seed)
        try:
            intervals = interval_map(saturate(kb))
            verdict = True
        except InconsistencyError:
            intervals, verdict = None, False
        naive_verdict, naive_intervals = naive_saturate(kb)
        assert verdict == naive_verdict, f"seed {seed}"
        if verdict:
            assert intervals == naive_intervals, f"seed {seed}"
        checked += 1
    assert checked == 100


def test_derived_degrees_stay_inside_the_input_closure(crisp_sat, fuzzy_sat, complete_sat):
    def constants(sat):
        out = set()
        for interval in interval_map(sat).values():
            out.update((interval.lo, interval.hi))
        return out

    assert constants(crisp_sat) == {F(0), F(1)}
    graded = {F(0), F(1, 10), F(1, 5), F(2, 5), F(1, 2), F(3, 5), F(4, 5), F(9, 10), F(1)}
    assert constants(fuzzy_sat) == graded
    assert constants(complete_sat) == graded
    # exactly the asserted degrees, their complements, and the two endpoints
    inputs = {F(0), F(1), F(1, 2), F(3, 5), F(4, 5), F(9, 10)}
    assert graded == inputs | {1 - d for d in inputs}
