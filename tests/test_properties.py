"""Cross-checks against an independent brute-force engine, plus invariants
that should hold for any input: order independence, idempotence, monotone
growth of bounds, and the closed set of derivable degree values."""

from fractions import Fraction

import pytest

import random

from fdlb.model import Atom, FuzzyAssertion, Not, build_kb
from fdlb.reasoner import InconsistencyError, build_closure, check_consistency, saturate

from kbgen import random_concept, random_kb
from kbtools import interval_map
from naive_engine import NaiveEngine, naive_saturate, negate

SEEDS = range(140)

ZERO, ONE = Fraction(0), Fraction(1)


def engine_outcome(kb):
    try:
        return True, interval_map(saturate(kb))
    except InconsistencyError:
        return False, None


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_agrees_with_naive_sweep(seed):
    kb = random_kb(seed)
    verdict, intervals = engine_outcome(kb)
    naive_verdict, naive_intervals = naive_saturate(kb)
    assert verdict == naive_verdict, f"seed {seed}: verdicts differ"
    if verdict:
        assert intervals == naive_intervals, f"seed {seed}: bounds differ"


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_fixtures_agree_with_naive_sweep(fixture, request):
    kb = request.getfixturevalue(fixture)
    verdict, intervals = naive_saturate(kb)
    assert verdict
    assert interval_map(saturate(kb)) == intervals


@pytest.mark.parametrize("seed", range(40))
def test_statement_order_is_irrelevant(seed):
    kb = random_kb(seed)
    reordered = build_kb(
        roles=tuple(kb.roles.values()),
        gcis=tuple(reversed(kb.gcis)),
        assertions=tuple(sorted(kb.assertions, key=lambda a: (a.individual, a.degree))),
        role_assertions=tuple(reversed(kb.role_assertions)),
        concrete_facts=tuple(reversed(kb.concrete_facts)),
        declared_concepts=tuple(kb.declared_concepts),
    )
    assert engine_outcome(kb) == engine_outcome(reordered)


@pytest.mark.parametrize("seed", range(60))
def test_saturation_reaches_a_fixpoint(seed):
    # pushing the engine's final bounds through one full naive sweep must
    # change nothing: the result is saturated, not just where a queue dried up
    kb = random_kb(seed)
    verdict, intervals = engine_outcome(kb)
    if not verdict:  # no bounds to sweep: the naive sweep must reach a clash as well
        assert not naive_saturate(kb)[0]
        return
    naive = NaiveEngine(kb)
    naive.preset(intervals)
    naive.sweep()
    assert naive.interval_map() == intervals


@pytest.mark.parametrize("seed", range(60))
def test_extra_assertions_only_tighten(seed):
    kb = random_kb(seed)
    verdict, before = engine_outcome(kb)
    extended = build_kb(
        roles=tuple(kb.roles.values()),
        gcis=kb.gcis,
        assertions=kb.assertions + (FuzzyAssertion("x1", Atom("A"), Fraction(1, 2)),),
        role_assertions=kb.role_assertions,
        concrete_facts=kb.concrete_facts,
        declared_concepts=tuple(kb.declared_concepts),
    )
    if not verdict:  # a clash stays a clash
        assert not engine_outcome(extended)[0]
        return
    verdict, after = engine_outcome(extended)
    if not verdict:
        return  # tightened all the way into a clash
    for (ind, expr), interval in before.items():
        got = after.get((ind, expr))
        assert got is not None
        assert got.lo >= interval.lo and got.hi <= interval.hi


def kb_degrees(kb):
    degrees = {ZERO, ONE}
    for gci in kb.gcis:
        degrees.add(gci.degree)
    for assertion in kb.assertions:
        degrees.add(assertion.degree)
    return degrees


def test_derived_degrees_stay_in_input_closure():
    # every derived bound is an input degree, a complement of one, or 0/1 --
    # the calculus never invents new numbers, so saturation must terminate
    seen = set()
    for seed in SEEDS:
        kb = random_kb(seed)
        verdict, intervals = engine_outcome(kb)
        if not verdict:
            continue
        allowed = kb_degrees(kb)
        allowed |= {ONE - d for d in allowed}
        for interval in intervals.values():
            assert interval.lo in allowed and interval.hi in allowed
            seen.update((interval.lo, interval.hi))
    assert {ZERO, ONE} <= seen
    assert any(ZERO < d < ONE for d in seen)  # genuinely graded output


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_bounds_never_contradict_the_complemented_form(fixture, request):
    # these bases all have a literal intended interpretation, so the bounds
    # derived for an expression and for its pushed-in complement must be
    # satisfiable together: lo(e) + lo(NOT e) <= 1 <= hi(e) + hi(NOT e)
    kb = request.getfixturevalue(fixture)
    sat = saturate(kb)
    closure_set = set(sat.closure)
    for expr in sat.closure:
        complement = Not(expr)
        assert complement in closure_set
        for ind in kb.individuals:
            mine = sat.instance_interval(ind, expr)
            theirs = sat.instance_interval(ind, complement)
            assert mine.lo + theirs.lo <= ONE
            assert mine.hi + theirs.hi >= ONE


@pytest.mark.parametrize("block", range(4))
def test_dual_is_the_normalized_negation_normal_form(block):
    # Not's stack-built negation normal form against the recursive rewrite
    rng = random.Random(block)
    for seed in range(block * 50, block * 50 + 50):
        exprs = list(build_closure(random_kb(seed))) + [random_concept(rng, depth=4) for _ in range(10)]
        for expr in exprs:
            assert Not(expr) is negate(expr), expr


def test_closure_is_deterministic_and_self_contained(fuzzy_kb):
    first = build_closure(fuzzy_kb)
    assert first == build_closure(fuzzy_kb)
    assert len(set(first)) == len(first)
    from fdlb.model import sub_expressions

    members = set(first)
    for expr in first:
        for sub in sub_expressions(expr):
            assert sub in members


def test_consistency_verdicts_split_meaningfully():
    verdicts = [check_consistency(random_kb(seed)) is None for seed in SEEDS]
    assert any(verdicts) and not all(verdicts)
