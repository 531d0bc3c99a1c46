from fractions import Fraction

import pytest

from fdlb.decision import (
    EmptyChoiceSetError,
    UnknownAttributeError,
    UtilityBox,
    rank,
)
from fdlb.kbtext import parse_kb
from fdlb.model import FdlbError
from fdlb.reasoner import saturate

CHOICES = ("tab_1", "tab_2", "tab_3")


@pytest.fixture(scope="module")
def crisp_sat(crisp_kb):
    return saturate(crisp_kb)


@pytest.fixture(scope="module")
def fuzzy_sat(fuzzy_kb):
    return saturate(fuzzy_kb)


@pytest.fixture(scope="module")
def complete_sat(complete_kb):
    return saturate(complete_kb)


def test_score_is_sum_of_contributions(complete_sat, expert1):
    for row in rank(complete_sat, CHOICES, expert1).rows:
        assert row.score == sum(c.contribution for c in row.contributions)


def test_contributions_weight_the_lower_bounds(complete_sat, expert1):
    report = rank(complete_sat, CHOICES, expert1)
    by_choice = {row.choice: row for row in report.rows}
    for row in by_choice.values():
        for c in row.contributions:
            if c.bound is None:
                assert c.contribution == 0
            else:
                assert c.contribution == c.weight * c.bound
                assert c.bound == complete_sat.interval(row.choice, _atom(c.attribute)).lo


def _atom(name):
    from fdlb.model import Atom

    return Atom(name)


def test_scaling_weights_scales_scores(complete_sat, expert1):
    doubled = UtilityBox(expert1.expert_id, tuple((a, 2 * w) for a, w in expert1.entries))
    base = rank(complete_sat, CHOICES, expert1)
    scaled = rank(complete_sat, CHOICES, doubled)
    assert [r.choice for r in scaled.rows] == [r.choice for r in base.rows]
    for b, s in zip(base.rows, scaled.rows):
        assert s.score == 2 * b.score


def score_of(sat, choice, box):
    return rank(sat, (choice,), box).rows[0].score


def crisp_score_of(sat, choice, box):
    """The sum of weights of the attributes the choice fully belongs to."""
    row = rank(sat, (choice,), box).rows[0]
    return sum((c.weight for c in row.contributions if c.bound == 1), start=Fraction(0))


def test_crisp_kb_reduces_to_counting_weights(crisp_sat, expert1, expert2):
    # with only full or absent memberships, the weighted score equals the
    # crisp sum over satisfied attributes
    for box in (expert1, expert2):
        for choice in CHOICES:
            assert score_of(crisp_sat, choice, box) == crisp_score_of(crisp_sat, choice, box)


def test_graded_memberships_break_crisp_reduction(complete_sat, expert1):
    assert score_of(complete_sat, "tab_3", expert1) != crisp_score_of(complete_sat, "tab_3", expert1)


def test_more_membership_never_hurts(fuzzy_sat, complete_sat, expert1):
    # the completed base only adds entailments, so scores can only go up
    for choice in CHOICES:
        assert score_of(complete_sat, choice, expert1) >= score_of(fuzzy_sat, choice, expert1)


def test_undecided_attribute_contributes_nothing(fuzzy_sat, expert1):
    report = rank(fuzzy_sat, CHOICES, expert1)
    row = next(r for r in report.rows if r.choice == "tab_2")
    light = next(c for c in row.contributions if c.attribute == "LightweightTablet")
    assert light.bound is None and light.contribution == 0
    assert ("tab_2", "LightweightTablet") in report.undecided


def test_ranking_order_and_tiebreak(complete_sat, expert1):
    report = rank(complete_sat, CHOICES, expert1)
    scores = [row.score for row in report.rows]
    assert scores == sorted(scores, reverse=True)
    # tie: equal scores fall back to name order
    flat = UtilityBox("flat", (("Tablet", Fraction(1)),))
    tied = rank(complete_sat, CHOICES, flat)
    assert [r.choice for r in tied.rows] == ["tab_1", "tab_2", "tab_3"]
    assert len({r.score for r in tied.rows}) == 1


def test_ideal_choice_matches_top_row(complete_sat, expert1, expert2):
    assert rank(complete_sat, CHOICES, expert1).ideal == "tab_3"
    assert rank(complete_sat, CHOICES, expert2).ideal == "tab_2"


def test_choice_subset_restricts_ranking(complete_sat, expert1):
    report = rank(complete_sat, ("tab_1", "tab_2"), expert1)
    assert [r.choice for r in report.rows] == ["tab_1", "tab_2"]


def test_empty_choice_set_rejected(complete_sat, expert1):
    with pytest.raises(EmptyChoiceSetError):
        rank(complete_sat, (), expert1)


def test_duplicate_choice_rejected(complete_sat, expert1):
    with pytest.raises(FdlbError, match="choice 'tab_1' is listed twice"):
        rank(complete_sat, ("tab_1", "tab_1", "tab_2"), expert1)


def test_unknown_attribute_rejected(complete_sat):
    box = UtilityBox("oops", (("NoSuchClass", Fraction(5)),))
    with pytest.raises(UnknownAttributeError, match="NoSuchClass"):
        rank(complete_sat, CHOICES, box)


def test_unknown_choice_rejected(complete_sat, expert1):
    with pytest.raises(Exception):
        rank(complete_sat, ("tab_1", "tab_9"), expert1)


def test_completeness_report(fuzzy_sat, complete_sat, expert1):
    before = rank(fuzzy_sat, CHOICES, expert1).undecided
    assert set(before) == {("tab_2", "LightweightTablet"), ("tab_3", "InexpensiveTablet")}
    assert rank(complete_sat, CHOICES, expert1).undecided == ()


def test_negative_weight_rejected():
    with pytest.raises(Exception):
        UtilityBox("bad", (("A", Fraction(-1)),))


def test_duplicate_attribute_rejected():
    with pytest.raises(Exception):
        UtilityBox("bad", (("A", Fraction(1)), ("A", Fraction(2))))


def test_decided_zero_counts_as_complete():
    # a hard 0 lower bound with matching upper bound is decided, not missing
    result = parse_kb("""
        concept Good;
        axiom Good SUBSUMED-BY BOTTOM;
        assert a : Thing;
        assert b : Thing;
    """)
    assert result.ok
    sat = saturate(result.kb)
    box = UtilityBox("e", (("Good", Fraction(3)),))
    assert rank(sat, ("a", "b"), box).undecided == ()
    assert score_of(sat, "a", box) == 0
