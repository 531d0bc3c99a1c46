import random
from fractions import Fraction

import pytest

from fdlb.decision import (
    EmptyChoiceSetError,
    UnknownAttributeError,
    UtilityBox,
    rank,
)
from fdlb.kbtext import parse_kb
from fdlb.model import Atom, FdlbError, build_kb
from fdlb.reasoner import (
    InconsistencyError,
    UnknownIndividualError,
    saturate,
)
from kbgen import random_kb
from kbtools import reference_rank

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
                assert c.bound == complete_sat.instance_interval(row.choice, _atom(c.attribute)).lo


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


def test_bound_is_none_only_when_the_interval_is_vacuous(fuzzy_sat):
    box = UtilityBox("e", (("LightweightTablet", Fraction(2)), ("UpperclassTablet", Fraction(3))))
    report = rank(fuzzy_sat, CHOICES, box)
    rows = {row.choice: {c.attribute: c for c in row.contributions} for row in report.rows}
    vacuous = rows["tab_2"]["LightweightTablet"]
    assert (vacuous.bound, vacuous.contribution) == (None, 0)
    decided = rows["tab_3"]["LightweightTablet"]
    assert (decided.bound, decided.contribution) == (Fraction(3, 5), Fraction(6, 5))
    # a known upper bound below 1 with lower bound 0 is decided at 0, not vacuous
    capped = rows["tab_2"]["UpperclassTablet"]
    assert fuzzy_sat.instance_interval("tab_2", _atom("UpperclassTablet")).hi < 1
    assert (capped.bound, capped.contribution) == (0, 0)
    assert ("tab_2", "UpperclassTablet") not in report.undecided


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


# -- rank against its per-pair Fraction definition

WEIGHTS = (Fraction(0), Fraction(1, 3), Fraction(7, 8), Fraction(1), Fraction(5, 2))
UNMENTIONED = ("Unmentioned", "Spare")  # declared, in no statement: closure rows all the same


def _with_unmentioned(kb):
    return build_kb(kb.roles.values(), kb.gcis, kb.assertions, kb.role_assertions, kb.concrete_facts,
                    kb.declared_concepts | set(UNMENTIONED))


def _assert_same_report(got, want):
    assert (got.expert_id, len(got.rows)) == (want.expert_id, len(want.rows))
    for row, ref in zip(got.rows, want.rows):
        assert (row.choice, row.score, type(row.score)) == (ref.choice, ref.score, Fraction)
        assert len(row.contributions) == len(ref.contributions)
        for c, r in zip(row.contributions, ref.contributions):
            assert (c.attribute, c.weight, c.bound, c.contribution) == (r.attribute, r.weight, r.bound, r.contribution)
            assert type(c.contribution) is Fraction and (c.bound is None or type(c.bound) is Fraction)


def _check_against_reference(kb, rng):
    kb = _with_unmentioned(kb)
    names = sorted(kb.concept_names)
    rng.shuffle(names)
    box = UtilityBox("e", tuple((name, WEIGHTS[i % len(WEIGHTS)]) for i, name in enumerate(names)))
    choices = list(kb.individuals)
    rng.shuffle(choices)
    try:
        sat, ref_sat = saturate(kb), saturate(kb)
    except InconsistencyError:
        return False
    _assert_same_report(rank(sat, choices, box), reference_rank(ref_sat, choices, box))
    assert sat.closure == ref_sat.closure
    assert all(Atom(name) in sat.closure for name in UNMENTIONED)
    return True


def test_rank_equals_the_per_pair_reference_on_random_bases():
    consistent = sum(_check_against_reference(random_kb(seed), random.Random(seed)) for seed in range(200))
    assert consistent > 80  # 95 of the 200 bases are consistent


@pytest.mark.parametrize("name", ["tablet_crisp.fdlb", "tablet_fuzzy.fdlb", "tablet_complete.fdlb", "clash.fdlb"])
def test_rank_equals_the_per_pair_reference_on_the_fixtures(name, fixtures_dir, expert1, expert2):
    kb = parse_kb((fixtures_dir / name).read_text(encoding="utf-8")).kb
    assert _check_against_reference(kb, random.Random(name)) == (name != "clash.fdlb")
    if name != "clash.fdlb":
        sat, ref_sat = saturate(kb), saturate(kb)
        for box in (expert1, expert2):
            _assert_same_report(rank(sat, CHOICES, box), reference_rank(ref_sat, CHOICES, box))


def test_an_empty_utility_box_scores_every_choice_zero(complete_sat):
    # with no attribute every choice is still checked, wherever it is listed
    empty = UtilityBox("nobody", ())
    for choices in (("tab_3", "tab_9", "tab_1"), ("tab_9", "tab_1")):
        with pytest.raises(UnknownIndividualError, match="individual 'tab_9' does not occur"):
            rank(complete_sat, choices, empty)
    report = rank(complete_sat, ("tab_3", "tab_2", "tab_1"), empty)
    assert [(row.choice, row.score, row.contributions) for row in report.rows] == [
        ("tab_1", 0, ()), ("tab_2", 0, ()), ("tab_3", 0, ())
    ]


# -- error precedence: every choice is checked; every attribute is a closure
# row, so rank never saturates again

@pytest.fixture
def open_sat(complete_kb):
    return saturate(_with_unmentioned(complete_kb))


OPEN_BOX = UtilityBox("open", (("Tablet", Fraction(1)), ("Unmentioned", Fraction(1, 3)), ("Spare", Fraction(7, 8))))


def test_an_unknown_first_choice_raises_before_any_growth(open_sat):
    closure = open_sat.closure
    with pytest.raises(UnknownIndividualError, match="individual 'tab_9' does not occur"):
        rank(open_sat, ("tab_9", "tab_1"), OPEN_BOX)
    assert open_sat.closure is closure


def test_an_unknown_later_choice_leaves_the_closure_unchanged(open_sat):
    closure = open_sat.closure
    assert all(Atom(name) in closure for name in UNMENTIONED)
    with pytest.raises(UnknownIndividualError, match="individual 'tab_9' does not occur"):
        rank(open_sat, ("tab_1", "tab_9"), OPEN_BOX)
    assert open_sat.closure is closure


def test_argument_errors_keep_their_messages(complete_sat, expert1):
    with pytest.raises(EmptyChoiceSetError, match="^no choices to rank$"):
        rank(complete_sat, (), expert1)
    with pytest.raises(FdlbError, match="^choice 'tab_2' is listed twice$"):
        rank(complete_sat, ("tab_2", "tab_9", "tab_2"), expert1)
    box = UtilityBox("oops", (("Tablet", Fraction(1)), ("NoSuchClass", Fraction(5))))
    with pytest.raises(UnknownAttributeError) as unknown:
        rank(complete_sat, ("tab_9",), box)
    assert str(unknown.value) == (
        "attribute 'NoSuchClass' in utility box 'oops' is not a concept of the knowledge base"
    )
