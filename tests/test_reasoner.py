import gc
import hashlib
import random
from fractions import Fraction
from unittest.mock import patch

import pytest

from fdlb.kbtext import format_conflict, format_explanation, parse_kb, render_concept
from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    ConcretePredicate,
    DegreeInterval,
    Exists,
    FdlbError,
    Forall,
    Not,
    Or,
    Quantity,
    TOP,
    build_kb,
)
from fdlb.reasoner import (
    InconsistencyError,
    NoDerivationError,
    SaturatedKb,
    UnknownIndividualError,
    saturate,
)

from kbtools import conflict_of, evaluate, explanations, interval_map, stacked_diamonds

ZERO, ONE = Fraction(0), Fraction(1)


def sat_of(text, *queries):
    result = parse_kb(text)
    assert result.ok, result.diagnostics
    return saturate(result.kb, queries)


def iv(sat, ind, concept):
    interval = sat.instance_interval(ind, concept)
    return (interval.lo, interval.hi)


# -- single rules


def test_kd_inclusion_chain():
    sat = sat_of("""
        axiom A SUBSUMED-BY B @ 0.7;
        axiom B SUBSUMED-BY C @ 0.8;
        assert x : A @ 0.9;
    """)
    assert iv(sat, "x", Atom("A")) == (Fraction(9, 10), ONE)
    assert iv(sat, "x", Atom("B")) == (Fraction(7, 10), ONE)
    assert iv(sat, "x", Atom("C")) == (Fraction(4, 5), ONE)


def test_kd_inclusion_below_threshold_stays_silent():
    # membership 0.3 does not clear 1 - 0.7
    sat = sat_of("axiom A SUBSUMED-BY B @ 0.7;\nassert x : A @ 0.3;")
    assert iv(sat, "x", Atom("B")) == (ZERO, ONE)


def test_kd_degree_one_inclusion_jumps_to_full():
    # any positive membership in the body forces the head completely
    sat = sat_of("axiom Convertible SUBSUMED-BY Upperclass;\nassert t : Convertible @ 0.8;")
    assert iv(sat, "t", Atom("Upperclass")) == (ONE, ONE)


def test_no_contrapositive_propagation():
    # an upper bound on the head says nothing about the body here
    sat = sat_of("axiom A SUBSUMED-BY B;\nassert x : NOT B;")
    assert iv(sat, "x", Atom("B")) == (ZERO, ZERO)
    assert iv(sat, "x", Atom("A")) == (ZERO, ONE)


def test_negation_mirrors_bounds():
    sat = sat_of("assert x : NOT A @ 0.7;\nassert x : A @ 0.2;")
    assert iv(sat, "x", Atom("A")) == (Fraction(1, 5), Fraction(3, 10))
    assert iv(sat, "x", Not(Atom("A"))) == (Fraction(7, 10), Fraction(4, 5))


def test_conjunction_bounds():
    sat = sat_of("assert x : A AND B @ 0.6;\nassert x : A @ 0.9;\nassert x : NOT B @ 0.3;")
    assert iv(sat, "x", Atom("A"))[0] == Fraction(9, 10)
    assert iv(sat, "x", Atom("B")) == (Fraction(3, 5), Fraction(7, 10))
    assert iv(sat, "x", And(Atom("A"), Atom("B"))) == (Fraction(3, 5), Fraction(7, 10))


def test_disjunction_bounds():
    sat = sat_of("assert x : NOT A @ 0.6; assert x : NOT B @ 0.7; assert x : B @ 0.1;", Or(Atom("A"), Atom("B")))
    assert iv(sat, "x", Or(Atom("A"), Atom("B"))) == (Fraction(1, 10), Fraction(2, 5))


def test_exists_witness():
    sat = sat_of("""
        role r : abstract;
        assert (x, y) : r;
        assert (x, z) : r;
        assert y : C @ 0.4;
        assert z : C @ 0.7;
    """, Exists("r", Atom("C")))
    assert iv(sat, "x", Exists("r", Atom("C")))[0] == Fraction(7, 10)


def test_forall_pushes_to_fillers():
    sat = sat_of("role r : abstract;\nassert (x, y) : r;\nassert x : FORALL r . C @ 0.6;")
    assert iv(sat, "y", Atom("C"))[0] == Fraction(3, 5)


def test_forall_over_closed_role_aggregates_fillers():
    sat = sat_of("""
        role s : abstract closed;
        assert (x, y) : s;
        assert (x, z) : s;
        assert y : C @ 0.8;
        assert z : C @ 0.5;
        assert lone : A;
    """, Forall("s", Atom("C")))
    assert iv(sat, "x", Forall("s", Atom("C")))[0] == Fraction(1, 2)
    # no fillers at all: vacuously full membership
    assert iv(sat, "lone", Forall("s", Atom("C"))) == (ONE, ONE)


def test_forall_over_open_role_stays_unknown():
    sat = sat_of("role r : abstract;\nassert (x, y) : r;\nassert y : C;\nassert x : A;", Forall("r", Atom("C")))
    assert iv(sat, "x", Forall("r", Atom("C"))) == (ZERO, ONE)


def test_concrete_restrictions_pin_crisply():
    le900 = Exists("m", ConcretePredicate("<=", Quantity(Fraction(900), "u")))
    gt900 = Exists("m", ConcretePredicate(">", Quantity(Fraction(900), "u")))
    sat = sat_of("""
        role m : concrete(u);
        assert (x, 710 u) : m;
        assert bare : A;
    """, le900, gt900)
    assert iv(sat, "x", le900) == (ONE, ONE)
    assert iv(sat, "x", gt900) == (ZERO, ZERO)
    assert iv(sat, "bare", le900) == (ZERO, ONE)  # no fact, no verdict


@pytest.mark.parametrize("op,keyword", [(">", "GT"), (">=", "GE"), ("<", "LT"), ("<=", "LE")])
def test_fractional_values_and_thresholds_pin_as_their_comparison_says(op, keyword):
    # values and thresholds of different denominators, some equal: the base's restriction is seeded as an
    # axiom side, the others as queries
    values = ("499.75", "499.7", "500", "500.5", "0.125")
    thresholds = ("499.7", "499.75", "500", "0.1", "1000")
    restrictions = [Exists("m", ConcretePredicate(op, Quantity(Fraction(t), "u"))) for t in thresholds]
    sat = sat_of("role m : concrete(u);\n" + "".join(f"assert (v{i}, {v} u) : m;\n" for i, v in enumerate(values))
                 + f"axiom EXISTS m . {keyword} 499.7 u SUBSUMED-BY A;", *restrictions)
    for threshold, restriction in zip(thresholds, restrictions):
        for i, v in enumerate(values):
            verdict = evaluate(restriction.target, Quantity(Fraction(v), "u"))
            assert iv(sat, f"v{i}", restriction) == (verdict, verdict), (threshold, v)


def test_disjointness_caps_partner():
    sat = sat_of("axiom A AND B SUBSUMED-BY BOTTOM;\nassert x : A @ 0.7;")
    assert iv(sat, "x", Atom("B")) == (ZERO, ZERO)


def test_graded_disjointness_caps_at_complement():
    sat = sat_of("axiom A AND B SUBSUMED-BY BOTTOM @ 0.6;\nassert x : A @ 0.5;")
    # 0.5 > 1 - 0.6, so B is capped at 0.4
    assert iv(sat, "x", Atom("B")) == (ZERO, Fraction(2, 5))


def test_simple_empty_head_caps_unconditionally():
    sat = sat_of("axiom A SUBSUMED-BY BOTTOM @ 0.7;\nassert x : B;")
    assert iv(sat, "x", Atom("A")) == (ZERO, Fraction(3, 10))


def test_degree_zero_axiom_acts_as_complement():
    sat = sat_of("axiom A SUBSUMED-BY B @ 0;\nassert x : A @ 0.8;")
    assert iv(sat, "x", Atom("B")) == (ZERO, ZERO)


def test_top_and_bottom_are_pinned():
    sat = sat_of("assert x : A;")
    assert iv(sat, "x", TOP) == (ONE, ONE)
    assert iv(sat, "x", BOTTOM) == (ZERO, ZERO)


# -- consistency


def test_clash_fixture_reports_conflict(fixtures_dir):
    result = parse_kb((fixtures_dir / "clash.fdlb").read_text())
    conflict = conflict_of(result.kb)
    assert conflict is not None
    assert conflict.individual == "e_1"
    assert format_conflict(conflict) == (
        "conflict on 'e_1' in PoorEquip: membership forced >= 1 and <= 0\n"
        "lower bound:\n"
        "  lo(e_1, PoorEquip) >= 1   [assertion; assert e_1 : PoorEquip;]\n"
        "upper bound:\n"
        "  hi(e_1, PoorEquip) <= 0   [disjoint; axiom PoorEquip AND WellEquip SUBSUMED-BY BOTTOM;]\n"
        "    lo(e_1, WellEquip) >= 1   [assertion; assert e_1 : WellEquip;]"
    )


def test_asserting_bottom_is_inconsistent():
    result = parse_kb("assert x : BOTTOM @ 0.5;")
    assert conflict_of(result.kb) is not None


def test_check_consistency_on_consistent_kb(crisp_kb):
    assert conflict_of(crisp_kb) is None


def test_saturate_raises_on_inconsistency():
    result = parse_kb("axiom A AND B SUBSUMED-BY BOTTOM;\nassert x : A;\nassert x : B;")
    with pytest.raises(InconsistencyError) as excinfo:
        saturate(result.kb)
    assert excinfo.value.conflict.individual == "x"


def test_statement_order_does_not_change_entailment(fuzzy_kb):
    base = interval_map(saturate(fuzzy_kb))
    shuffled = build_kb(
        roles=tuple(fuzzy_kb.roles.values()),
        gcis=tuple(reversed(fuzzy_kb.gcis)),
        assertions=tuple(reversed(fuzzy_kb.assertions)),
        role_assertions=tuple(reversed(fuzzy_kb.role_assertions)),
        concrete_facts=tuple(reversed(fuzzy_kb.concrete_facts)),
        declared_concepts=tuple(fuzzy_kb.declared_concepts),
    )
    assert interval_map(saturate(shuffled)) == base


# -- fixture entailments


def test_crisp_fixture_memberships(crisp_kb):
    sat = saturate(crisp_kb)
    assert iv(sat, "tab_1", Atom("ExpensiveTablet")) == (ONE, ONE)
    assert iv(sat, "tab_1", Atom("InexpensiveTablet")) == (ZERO, ZERO)
    assert iv(sat, "tab_2", Atom("InexpensiveTablet")) == (ONE, ONE)
    assert iv(sat, "tab_2", Atom("UpperclassTablet")) == (ZERO, ZERO)
    assert iv(sat, "tab_3", Atom("UpperclassTablet")) == (ONE, ONE)
    # the convertible's equipment must be good although never asserted
    assert iv(sat, "equipment_3", Atom("WellEquip")) == (ONE, ONE)


def test_fuzzy_fixture_graded_memberships(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    assert iv(sat, "tab_3", Atom("LightweightTablet")) == (Fraction(3, 5), ONE)
    assert iv(sat, "tab_3", Atom("UpperclassTablet")) == (ONE, ONE)
    assert iv(sat, "tab_2", Atom("LightweightTablet")) == (ZERO, ONE)
    assert iv(sat, "tab_3", Atom("InexpensiveTablet")) == (ZERO, ONE)


# -- queries and explanations


def test_an_expression_outside_the_closure_raises_and_changes_nothing(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    novel = Or(Atom("LightweightTablet"), Atom("UpperclassTablet"))
    assert novel not in set(sat.closure)
    state, closure, records, lo = dict(vars(sat)), sat.closure, dict(sat.records), list(sat.lo)
    asks = [
        lambda: sat.instance_interval("tab_3", novel),
        lambda: sat.explain("tab_3", novel),
        lambda: sat.explain("tab_3", novel, "hi"),
        lambda: sat.scaled_bounds(["tab_1", "tab_3"], [Atom("Tablet"), novel]),
    ]
    for ask in asks:
        with pytest.raises(FdlbError, match="'LightweightTablet OR UpperclassTablet' .*pass it to saturate"):
            ask()
    # an unknown individual is reported before the expression
    with pytest.raises(UnknownIndividualError):
        sat.scaled_bounds(["tab_1", "nobody"], [novel])
    with pytest.raises(UnknownIndividualError):
        sat.explain("nobody", novel)
    assert vars(sat) == state and sat.closure is closure and sat.records == records and sat.lo == lo
    # passed to saturate, the query is answered, and moves no bound the base entails
    sat = saturate(fuzzy_kb, [novel])
    assert sat.instance_interval("tab_3", novel).lo == ONE
    assert sat.instance_interval("tab_3", Atom("LightweightTablet")).lo == Fraction(3, 5)


def test_queries_given_as_a_generator_are_taken_once(fuzzy_kb):
    # saturate reads its queries once, so a generator's are checked and then kept
    query = Or(Atom("LightweightTablet"), Atom("Convertible"))
    listed, generated = saturate(fuzzy_kb, [query]), saturate(fuzzy_kb, (q for q in [query]))
    assert query in generated.closure and generated.closure == listed.closure
    for individual in fuzzy_kb.individuals:
        assert generated.instance_interval(individual, query) == listed.instance_interval(individual, query)


def test_unknown_individual_rejected(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    with pytest.raises(UnknownIndividualError):
        sat.instance_interval("tab_9", Atom("Tablet"))


def test_explain_convertible_chain(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    explanation = sat.explain("tab_3", Atom("UpperclassTablet"))
    assert explanation.value == ONE
    text = format_explanation(explanation)
    assert "gci" in text
    assert "Convertible" in text
    assert "assert tab_3 : Convertible @ 0.8;" in text


def test_explain_descends_to_assertions(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    explanation = sat.explain("equipment_3", Atom("WellEquip"))
    text = format_explanation(explanation)
    assert "forall-down" in text
    leaves = [line for line in text.splitlines() if "assertion" in line]
    assert leaves  # bottoms out at asserted facts


def test_explain_upper_bound(crisp_kb):
    sat = saturate(crisp_kb)
    explanation = sat.explain("tab_2", Atom("UpperclassTablet"), "hi")
    assert explanation.value == ZERO
    assert "disjoint" in format_explanation(explanation)


def test_explain_vacuous_bound_raises(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    with pytest.raises(NoDerivationError):
        sat.explain("tab_2", Atom("LightweightTablet"))


def test_explain_rejects_bad_kind(fuzzy_kb):
    with pytest.raises(ValueError):
        saturate(fuzzy_kb).explain("tab_1", Atom("Tablet"), "mid")


# -- derivation graph sanity


def key(node):
    return node.individual, node.expr, node.kind


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_derivations_are_closed_and_acyclic(fixture, request):
    sat = saturate(request.getfixturevalue(fixture))
    graph = {}  # each derived bound -> the bounds its derivation reads
    for explanation in explanations(sat):
        steps = explanation.steps
        assert all(0 <= p < len(steps) for node in steps for p in node.premises)
        graph[key(steps[0])] = [key(steps[p]) for p in steps[0].premises]
    for node, premises in graph.items():
        for premise in premises:
            assert premise in graph, f"{node} premise {premise} has no derivation"
    state = {}  # 1 = on stack, 2 = done

    def visit(bound):
        if state.get(bound) == 2:
            return
        assert state.get(bound) != 1, f"cycle through {bound}"
        state[bound] = 1
        for premise in graph[bound]:
            visit(premise)
        state[bound] = 2

    for bound in graph:
        visit(bound)


def recompute(sat, node, steps):
    """The value ``node``'s rule gives from the current bounds; its premises index into ``steps``."""
    kb, a, e = sat.kb, node.individual, node.expr
    if node.kind == "hi":  # the record of the dual's lower bound
        return ONE - recompute(sat, node._replace(expr=Not(e), kind="lo"), steps)
    lo = lambda i, c: sat.instance_interval(i, c).lo
    fillers = lambda i, role: sorted({ra.filler for ra in kb.role_assertions
                                      if ra.subject == i and ra.role == role})
    rule = node.rule
    if rule == "top":
        return ONE
    if rule == "assertion":
        return node.source.degree
    if rule == "concrete":  # on the restriction when it holds, on its NOT when it fails
        if isinstance(e, Not):
            return ONE - evaluate(e.body.target, node.source.value)
        return evaluate(e.target, node.source.value)
    if rule == "conj-up":
        return min(lo(a, c) for c in e.parts)
    if rule == "conj-down":
        return lo(a, steps[node.premises[0]].expr)
    if rule == "disj-up":
        return max(lo(a, c) for c in e.parts)
    if rule == "exists-up":
        return max(lo(b, e.target) for b in fillers(a, e.role))
    if rule == "forall-down":
        premise = steps[node.premises[0]]
        return lo(premise.individual, premise.expr)
    if rule == "forall-up":
        return min((lo(b, e.body) for b in fillers(a, e.role)), default=ONE)
    if rule == "gci":
        assert lo(a, node.source.lhs) > ONE - node.source.degree
        return node.source.degree
    if rule == "disjoint":  # raises the dual of the capped part to the degree
        cap = ONE - node.source.degree
        lhs = node.source.lhs
        parts = lhs.parts if isinstance(lhs, And) else (lhs,)
        assert Not(e) in parts
        if len(parts) > 1:
            others = [c for c in parts if c is not Not(e)]
            assert min(lo(a, c) for c in others) > cap
        return node.source.degree
    raise AssertionError(f"unknown rule {rule}")


def assert_replays(sat, *context):
    """Recomputing each derived bound from the current bounds gives exactly the value it records."""
    for explanation in explanations(sat):
        node = explanation.steps[0]
        assert recompute(sat, node, explanation.steps) == node.value, (*context, node.rule, node.individual)


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_final_derivations_replay_exactly(fixture, request):
    # at the fixpoint, recomputing any recorded step from the final bounds
    # reproduces exactly the bound it recorded
    assert_replays(saturate(request.getfixturevalue(fixture)))


def test_random_derivations_replay_exactly():
    # the same replay on varied degree sets guards the engine's scaled-integer
    # arithmetic: every recorded value is the exact Fraction its rule gives
    from kbgen import random_kb

    replayed = 0
    for seed in range(50):
        try:
            sat = saturate(random_kb(seed))
        except InconsistencyError:
            continue
        assert_replays(sat, seed)
        replayed += 1
    assert replayed >= 25


# -- one saturation per rank, indexed quantifier triggers, bound storage, hashes


def test_rank_saturates_once_per_out_of_closure_attribute(monkeypatch):
    import fdlb.reasoner
    from fdlb.decision import UtilityBox, rank
    from fdlb.model import FULL_INTERVAL

    choices = [f"t{i}" for i in range(10)]
    text = "concept Open1;\nconcept Open2;\n" + "".join(
        f"assert {c} : Good @ 0.{i + 1};\n" for i, c in enumerate(choices)
    )
    kb = parse_kb(text).kb
    box = UtilityBox("x", (("Good", Fraction(3)), ("Open1", Fraction(2)), ("Open2", Fraction(1))))
    calls = []
    real = fdlb.reasoner.saturate

    def counting(base):
        calls.append(base)
        return real(base)

    monkeypatch.setattr(fdlb.reasoner, "saturate", counting)
    report = rank(fdlb.reasoner.saturate(kb), choices, box)
    assert calls == [kb]  # Open1 and Open2 are declared, so they are closure rows from the start
    monkeypatch.undo()
    for row in report.rows:
        for c in row.contributions:
            # a fresh saturation per pair, so no memo is shared
            interval = saturate(kb).instance_interval(row.choice, Atom(c.attribute))
            if interval == FULL_INTERVAL:
                assert (c.bound, c.contribution) == (None, ZERO)
            else:
                assert (c.bound, c.contribution) == (interval.lo, c.weight * interval.lo)
    assert len(report.undecided) == 20


# -- queries given to saturate join the closure


def query_over(rng, kb, closure, depth=2):
    """A random query over a base's atoms, closure expressions, roles and an atom it never mentions."""
    abstract = sorted(name for name, decl in kb.roles.items() if decl.kind == "abstract")
    atoms = sorted(kb.concept_names) + ["Unmentioned"]
    pick = rng.random()
    if depth == 0 or pick < 0.35:
        return rng.choice(closure) if rng.random() < 0.5 else Atom(rng.choice(atoms))
    if pick < 0.45:
        return Not(query_over(rng, kb, closure, depth - 1))
    if pick < 0.65:
        return And(query_over(rng, kb, closure, depth - 1), query_over(rng, kb, closure, depth - 1))
    if pick < 0.85 or not abstract:
        return Or(query_over(rng, kb, closure, depth - 1), query_over(rng, kb, closure, depth - 1))
    quantifier = Exists if pick < 0.93 else Forall
    return quantifier(rng.choice(abstract), query_over(rng, kb, closure, depth - 1))


def check_extensions(kb, queries):
    """Saturate the base with each prefix of ``queries`` and compare it with the base that asserts them.

    That base asserts every query of the prefix at degree 0, which brings
    them into the closure and raises no bound; the closure, answers, bounds
    and records are those of ``saturate(kb, prefix)``.  Stops at the first
    clash.  Returns how many queries outside the base's closure joined a
    consistent saturation.
    """
    from naive_engine import with_queries

    base = set(saturate(kb).closure)
    checked = 0
    for k, query in enumerate(queries, 1):
        try:
            fresh = saturate(with_queries(kb, queries[:k]))
        except InconsistencyError:
            fresh = None
        try:
            sat = saturate(kb, queries[:k])
        except InconsistencyError:
            assert fresh is None, query
            return checked
        assert fresh is not None, query
        assert set(sat.closure) == set(fresh.closure)
        for individual in kb.individuals:
            for expr in fresh.closure:
                answer = sat.instance_interval(individual, expr)
                assert answer == fresh.instance_interval(individual, expr), (individual, expr)
        assert (sat.lo, sat.records) == (fresh.lo, fresh.records)
        assert_replays(sat, query)
        checked += query not in base
    return checked


@pytest.mark.parametrize("block", range(20))
def test_extension_matches_a_fresh_saturation_on_random_bases(block):
    from kbgen import random_concept, random_kb

    checked = 0
    for seed in range(block * 30, block * 30 + 30):
        kb = random_kb(seed)
        try:
            closure = list(saturate(kb).closure)
        except InconsistencyError:
            continue
        rng = random.Random(seed)
        queries = [random_concept(rng) for _ in range(4)] + [query_over(rng, kb, closure) for _ in range(4)]
        checked += check_extensions(kb, queries)
    assert checked >= 30


@pytest.mark.parametrize("name", ["clash.fdlb", "tablet_crisp.fdlb", "tablet_fuzzy.fdlb", "tablet_complete.fdlb"])
def test_extension_matches_a_fresh_saturation_on_fixtures(name, fixtures_dir):
    from fdlb.reasoner import build_closure
    from naive_engine import with_queries

    kb = parse_kb((fixtures_dir / name).read_text(encoding="utf-8")).kb
    rng = random.Random(name)
    queries = [query_over(rng, kb, list(build_closure(kb))) for _ in range(16)]
    if name == "clash.fdlb":  # nothing to extend, and no query removes the clash
        for query in queries:
            with pytest.raises(InconsistencyError):
                saturate(with_queries(kb, [query]))
    else:
        assert check_extensions(kb, queries) >= 6


def catalogue_text(fixtures_dir, tablets):
    """The completed tablet TBox with ``tablets`` tablets, and one declared atom no statement uses."""
    tbox = (fixtures_dir / "tablet_complete.fdlb").read_text(encoding="utf-8").split("\nassert ")[0]
    lines = [tbox, "concept Unmentioned;"]
    for k in range(tablets):
        lines += [
            f"assert tab_{k} : Tablet;",
            f"assert (tab_{k}, {250 + 7 * k % 900} EUR) : hasPrice;",
            f"assert (tab_{k}, {600 + 11 * k % 700} g) : hasWeight;",
            f"assert eq_{k} : {'WellEquip' if k % 2 else 'PoorEquip'};",
            f"assert (tab_{k}, eq_{k}) : equipped;",
        ]
    return "\n".join(lines)


def test_unmentioned_atom_costs_two_closure_entries_and_one_saturation(fixtures_dir, tmp_path, monkeypatch, capsys):
    # a declared atom is a closure row from the start, so ranking by it saturates once
    from fdlb.cli import main

    text = catalogue_text(fixtures_dir, 150)
    kb = parse_kb(text).kb
    sat = saturate(kb)
    assert {Atom("Unmentioned"), Not(Atom("Unmentioned"))} <= set(sat.closure)
    # a row no statement mentions adds no derivation and moves no step
    assert saturation_digest(kb) == saturation_digest(parse_kb(text.replace("concept Unmentioned;", "")).kb)
    closure = sat.closure
    assert sat.instance_interval("tab_3", Atom("Unmentioned")) == DegreeInterval(ZERO, ONE)
    assert sat.closure is closure

    runs, run = [], SaturatedKb._run
    monkeypatch.setattr(SaturatedKb, "_run", lambda sat: runs.append(sat) or run(sat))
    (tmp_path / "catalogue.fdlb").write_text(text, encoding="utf-8")
    (tmp_path / "open.ubox").write_text("ubox e {\n    Tablet = 1;\n    Unmentioned = 2;\n}\n", encoding="utf-8")
    for command, code in (("rank", 0), ("complete", 3)):
        runs.clear()
        assert main([command, str(tmp_path / "catalogue.fdlb"), "--ubox", str(tmp_path / "open.ubox")]) == code
        assert len(runs) == 1
    assert "tab_3 / Unmentioned" in capsys.readouterr().out

    # a compound concept outside the base's closure is saturated with the base, once per request
    query = Or(Atom("Tablet"), Atom("Unmentioned"))
    assert query not in closure
    runs.clear()
    assert main(["check", str(tmp_path / "catalogue.fdlb")]) == 0
    assert len(runs) == 1
    runs.clear()
    assert main(["explain", str(tmp_path / "catalogue.fdlb"), "-i", "tab_3", "-c", "Tablet OR Unmentioned"]) == 0
    assert len(runs) == 1 and "disj-up" in capsys.readouterr().out
    runs.clear()
    explanation = saturate(kb, [query]).explain("tab_3", query)
    assert len(runs) == 1
    assert explanation.value == sat.instance_interval("tab_3", Atom("Tablet")).lo
    assert explanation.steps[0].rule == "disj-up"
    assert all(0 <= p < len(explanation.steps) for node in explanation.steps for p in node.premises)


def saturation_digest(kb):
    """A digest of every record, raised bound and the step count of a saturation of ``kb``, and of its clash if any.

    A bound, and each premise of a record, is named by its individual and
    rendered expression, not by its number, so rows that no rule reads
    leave the digest as it is wherever the closure places them.
    """
    runs, run = [], SaturatedKb._run
    # the constructor saturates, so the run keeps the object, which a clash would not return
    with patch.object(SaturatedKb, "_run", lambda sat: runs.append(sat) or run(sat)):
        try:
            SaturatedKb(kb)
            conflict = None
        except InconsistencyError as clash:
            conflict = clash.conflict
    [sat] = runs

    def name(b):
        x, a = divmod(b, sat.n)
        return sat.names[a], render_concept(sat.closure[x])

    records = sorted((name(b), rule, value, tuple(map(name, premises)), source, note, step)
                     for b, (rule, value, premises, source, note, step) in sat.records.items())
    bounds = sorted((name(b), value) for b, value in enumerate(sat.lo) if value)
    steps = max((record[5] for record in sat.records.values()), default=0)  # the last step made a record
    state = (records, bounds, steps, conflict)
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


# Digests of saturations by the rule loop before it was rewritten for speed:
# the firing order, and with it every record and step number, is kept.
FIRING_ORDER_DIGESTS = {
    "clash.fdlb": "fbdb1e8e826cd7e4",
    "tablet_crisp.fdlb": "dc8600aa0af1c5fb",
    "tablet_fuzzy.fdlb": "90517723fc351fac",
    "tablet_complete.fdlb": "f7992d0c5090e502",
    "catalogue 150": "55d9d023bee7450e",
    "random_kb 0-99": "70e327daf26433d4",
}


def test_saturation_keeps_its_firing_order(fixtures_dir):
    from kbgen import random_kb

    digests = {name: saturation_digest(parse_kb((fixtures_dir / name).read_text(encoding="utf-8")).kb)
               for name in ("clash.fdlb", "tablet_crisp.fdlb", "tablet_fuzzy.fdlb", "tablet_complete.fdlb")}
    digests["catalogue 150"] = saturation_digest(parse_kb(catalogue_text(fixtures_dir, 150)).kb)
    seeds = " ".join(saturation_digest(random_kb(seed)) for seed in range(100))
    digests["random_kb 0-99"] = hashlib.sha256(seeds.encode()).hexdigest()[:16]
    assert digests == FIRING_ORDER_DIGESTS


def test_a_saturated_base_is_saturated_when_built(fixtures_dir):
    # the constructor runs the one saturation: it answers as saturate's base does, or clashes as it does
    from kbgen import random_kb

    def outcome(build, kb):
        try:
            sat = build(kb)
        except InconsistencyError as clash:
            return clash.conflict
        return sat.lo, sat.records

    kbs = [parse_kb((fixtures_dir / name).read_text(encoding="utf-8")).kb
           for name in ("clash.fdlb", "tablet_crisp.fdlb", "tablet_fuzzy.fdlb", "tablet_complete.fdlb")]
    for kb in kbs + [random_kb(seed) for seed in range(50)]:
        assert outcome(SaturatedKb, kb) == outcome(saturate, kb)
    assert SaturatedKb(kbs[2]).instance_interval("tab_3", Atom("UpperclassTablet")) == DegreeInterval(ONE, ONE)


def test_a_saturated_base_checks_the_roles_of_its_queries(fuzzy_kb):
    from fdlb.model import ModelError

    with pytest.raises(ModelError, match="not declared"):
        SaturatedKb(fuzzy_kb, [Exists("nosuch", Atom("A"))])


def test_each_fact_is_recorded_once(fixtures_dir):
    # an upper bound is the dual's lower bound, so no fact is derived twice
    sat = saturate(parse_kb(catalogue_text(fixtures_dir, 150)).kb)
    assert len(sat.records) <= 6750  # one per distinct lower-bound fact


def test_rows_no_rule_reads_feed_the_queries_that_read_them():
    # before the queries no rule reads A or B, so their raised bounds were never queued
    from naive_engine import with_queries

    kb = parse_kb("role r : abstract; assert x : A @ 0.7; assert x : B @ 0.2; assert (y, x) : r;").kb
    sat = saturate(kb)
    assert not any(sat.live[sat.expr_ids[e]] for e in (Atom("A"), Atom("B")))
    queries = [
        ("x", Or(Atom("A"), Atom("C")), Fraction(7, 10)),
        ("x", And(Atom("A"), Atom("B")), Fraction(1, 5)),
        ("y", Exists("r", Atom("A")), Fraction(7, 10)),
    ]
    for k in range(1, len(queries) + 1):
        asked = [query for _, query, _ in queries[:k]]
        sat = saturate(kb, asked)
        for individual, query, lo in queries[:k]:
            assert sat.instance_interval(individual, query).lo == lo
        fresh = saturate(with_queries(kb, asked))
        assert set(sat.closure) == set(fresh.closure)
        for a in kb.individuals:
            for expr in fresh.closure:
                assert sat.instance_interval(a, expr) == fresh.instance_interval(a, expr), (a, expr)
    steps = sat.explain("x", Or(Atom("A"), Atom("C"))).steps
    assert [node.rule for node in steps] == ["disj-up", "assertion"]
    assert steps[1].expr == Atom("A") and steps[1].source.degree == Fraction(7, 10)


def test_concrete_seeding_compares_no_fraction_per_fact(fixtures_dir, monkeypatch):
    # a threshold test returns the ONE or ZERO constant itself, so seeding tests identity
    counts = []
    for tablets in (10, 100):
        kb = parse_kb(catalogue_text(fixtures_dir, tablets)).kb
        compared, fraction_eq = [], Fraction.__eq__
        monkeypatch.setattr(Fraction, "__eq__", lambda f, g: compared.append(f) or fraction_eq(f, g))
        saturate(kb)
        monkeypatch.undo()
        counts.append(len(compared))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("block", range(10))
def test_answers_do_not_depend_on_query_order(block):
    from kbgen import random_concept, random_kb

    compared = 0
    for seed in range(block * 40, block * 40 + 40):
        kb = random_kb(seed)
        try:
            closure = list(saturate(kb).closure)
        except InconsistencyError:
            continue
        rng = random.Random(seed)
        queries = [random_concept(rng) if rng.random() < 0.5 else query_over(rng, kb, closure) for _ in range(8)]
        shuffled = rng.sample(queries, len(queries))

        def outcome(order):
            try:
                sat = saturate(kb, order)
            except InconsistencyError as clash:
                return None, clash.conflict
            return sat.closure, (sat.lo, sat.records)

        forward = outcome(queries)
        assert forward == outcome(shuffled) == outcome(queries[::-1]), seed
        compared += forward[0] is not None
    assert compared >= 10


def test_failed_queries_leave_the_closure_unchanged(fuzzy_kb):
    from fdlb.model import ModelError

    sat = saturate(fuzzy_kb)
    closure = sat.closure
    with pytest.raises(ModelError, match="not declared"):
        saturate(fuzzy_kb, [Or(Atom("Unmentioned"), Exists("undeclared", Atom("Tablet")))])
    with pytest.raises(ModelError, match="not declared"):
        saturate(fuzzy_kb, [Atom("Unmentioned"), Forall("undeclared", Atom("Unmentioned"))])
    with pytest.raises(UnknownIndividualError):
        sat.instance_interval("nobody", Atom("Unmentioned"))
    with pytest.raises(UnknownIndividualError):
        sat.explain("nobody", Atom("Unmentioned"))
    with pytest.raises(ValueError):
        sat.explain("tab_3", Atom("Unmentioned"), "mid")
    assert sat.closure is closure
    assert saturate(fuzzy_kb, [Atom("Unmentioned")]).instance_interval("tab_3", Atom("Unmentioned")) == DegreeInterval(ZERO, ONE)


def test_quantifier_triggers_on_shared_roles_match_naive_engine():
    from naive_engine import naive_saturate

    kb = parse_kb("""
        role o : abstract;
        role c : abstract closed;
        axiom EXISTS o . A SUBSUMED-BY G1;
        axiom EXISTS o . B SUBSUMED-BY G2 @ 0.7;
        axiom FORALL o . (A OR B) SUBSUMED-BY G3;
        axiom EXISTS c . A SUBSUMED-BY G4 @ 0.8;
        axiom EXISTS c . B SUBSUMED-BY G5;
        axiom FORALL c . A SUBSUMED-BY G6;
        axiom FORALL c . (B AND A) SUBSUMED-BY G7 @ 0.6;
        assert (s, f1) : o;
        assert (s, f2) : o;
        assert (s, f1) : c;
        assert (s, f2) : c;
        assert (u, f2) : c;
        assert (u, f3) : o;
        assert v : FORALL o . A @ 0.4;
        assert f1 : A @ 0.9;
        assert f1 : B @ 0.3;
        assert f2 : A @ 0.6;
        assert f2 : B @ 0.8;
        assert f3 : A;
        assert s : FORALL o . B @ 0.5;
        assert u : FORALL c . A @ 0.2;
    """).kb
    sat = saturate(kb)
    verdict, intervals = naive_saturate(kb)
    assert verdict
    assert interval_map(sat) == intervals
    assert iv(sat, "s", Exists("c", Atom("A"))) == (Fraction(9, 10), ONE)
    assert iv(sat, "s", Forall("c", Atom("A"))) == (Fraction(3, 5), ONE)
    assert iv(sat, "v", Forall("c", Atom("A"))) == (ONE, ONE)  # closed role, no fillers
    assert iv(sat, "s", Exists("o", Atom("B"))) == (Fraction(4, 5), ONE)


def test_interval_map_holds_only_non_vacuous_intervals(fuzzy_kb):
    from fdlb.model import DegreeInterval, FULL_INTERVAL

    sat = saturate(fuzzy_kb)
    intervals = interval_map(sat)
    assert intervals
    assert all(isinstance(v, DegreeInterval) and v != FULL_INTERVAL for v in intervals.values())
    assert isinstance(sat.instance_interval("tab_1", Atom("Tablet")), DegreeInterval)
    assert sat.instance_interval("tab_2", Atom("LightweightTablet")) == FULL_INTERVAL
    assert ("tab_2", Atom("LightweightTablet")) not in intervals
    for (ind, expr), value in intervals.items():
        assert sat.instance_interval(ind, expr) == value


def test_saturation_hashes_no_fraction(fuzzy_kb, monkeypatch):
    # the cycle collector may free a concrete restriction an earlier test left, and the node table
    # hashes its key, threshold and all, to forget it: collect first, and not again while patched
    hashed, fraction_hash = [], Fraction.__hash__
    gc.collect()
    gc.disable()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__hash__", lambda f: hashed.append(f) or fraction_hash(f))
            intervals = interval_map(saturate(fuzzy_kb))
    finally:
        gc.enable()
    assert intervals and hashed == []


def test_equal_expressions_hash_equal():
    import pickle

    from naive_engine import negate

    def build():
        price = ConcretePredicate("<=", Quantity(Fraction(500), "EUR"))
        return And(
            Or(Atom("A"), Not(Forall("r", Atom("B")))),
            And(Exists("p", price), Exists("r", And(Atom("C"), TOP))),
            And(Atom("D"), Not(Atom("E")), Or(Atom("F"), Atom("G"), Atom("H"))),
        )

    first, second = build(), build()
    assert first is second
    assert first == second and hash(first) == hash(second)
    assert negate(negate(build())) is first
    assert Not(Not(first)) is first and Not(first) is negate(first)
    assert hash(And(Atom("A"), Atom("B"))) != hash(Or(Atom("A"), Atom("B")))
    copy = pickle.loads(pickle.dumps(first))
    assert copy is first


def test_thousand_way_conjunction_stays_flat():
    from fdlb.reasoner import build_closure

    from kbtools import kb_equal, serialize_kb

    n = 1000
    names = [f"A{i}" for i in range(n)]
    lines = [f"axiom {' AND '.join(names)} SUBSUMED-BY G @ 0.8;"]
    lines += [f"assert x : {name} @ {'0.3' if name == 'A7' else '0.9'};" for name in names]
    result = parse_kb("\n".join(lines))
    assert result.ok, result.diagnostics
    kb = result.kb
    conjunction = kb.gcis[0].lhs
    assert isinstance(conjunction, And) and len(conjunction.parts) == n
    again = parse_kb(serialize_kb(kb))
    assert again.ok and kb_equal(kb, again.kb)
    assert len(build_closure(kb)) == 2 * n + 6
    sat = saturate(kb)
    assert iv(sat, "x", conjunction) == (Fraction(3, 10), ONE)
    assert iv(sat, "x", Atom("G")) == (Fraction(4, 5), ONE)


def nested_and_or(pairs):
    """``B AND (C OR (...))`` around ``A``, two levels of nesting per pair."""
    expr = Atom("A")
    for _ in range(pairs):
        expr = And(Atom("B"), Or(Atom("C"), expr))
    return expr


def test_deep_base_closure_is_fast():
    import gc
    import time

    from fdlb.reasoner import build_closure

    deep = render_concept(nested_and_or(49))  # 98 levels, inside the parser's limit
    text = f"axiom {deep} SUBSUMED-BY G @ 0.8;\naxiom G SUBSUMED-BY {deep} @ 0.6;\nassert a : {deep} @ 0.7;"
    best = float("inf")
    for _ in range(5):  # each on freshly built nodes
        gc.collect()
        kb = parse_kb(text).kb
        start = time.perf_counter()
        closure = build_closure(kb)
        best = min(best, time.perf_counter() - start)
        del kb
    assert len(closure) == 206
    assert best < 0.1


def test_nesting_past_the_recursion_limit_saturates():
    from fdlb.model import FuzzyAssertion, FuzzyGci

    deep = nested_and_or(150)  # 300 levels
    sat = saturate(build_kb(gcis=[FuzzyGci(deep, Atom("G"), Fraction(4, 5))], assertions=[FuzzyAssertion("a", deep)]))
    assert iv(sat, "a", Atom("G")) == (Fraction(4, 5), ONE)
    assert iv(sat, "a", deep.parts[1]) == (ONE, ONE)


def test_explain_long_chain_lists_each_step_once():
    n = 500
    lines = [f"axiom A{i} SUBSUMED-BY A{i + 1};" for i in range(n)] + ["assert x : A0;"]
    explanation = sat_of("\n".join(lines)).explain("x", Atom(f"A{n}"))
    assert len(explanation.steps) == n + 1
    assert [step.expr for step in explanation.steps] == [Atom(f"A{i}") for i in range(n, -1, -1)]
    assert len(format_explanation(explanation).splitlines()) == n + 1


def test_explain_stacked_diamonds_stays_linear():
    # every D_k is reached along 2^(n-k) paths, but listed once
    n = 18
    explanation = sat_of(stacked_diamonds(n)).explain("x", Atom(f"D{n}"))
    keys = [(s.individual, s.expr, s.kind) for s in explanation.steps]
    assert len(keys) == len(set(keys)) == 4 * n + 1
    assert all(0 <= p < len(keys) for s in explanation.steps for p in s.premises)
    premises = sum(len(s.premises) for s in explanation.steps)
    text = format_explanation(explanation).splitlines()
    assert len(text) <= len(keys) + premises
    assert sum("(see above)" in line for line in text) == n


def test_explain_cycle_ends_at_the_repeated_step():
    sat = sat_of("axiom A SUBSUMED-BY B @ 0.9;\naxiom B SUBSUMED-BY A @ 0.5;\nassert a : B @ 0.6;")
    assert format_explanation(sat.explain("a", Atom("B"))).splitlines() == [
        "lo(a, B) >= 0.9   [gci; axiom A SUBSUMED-BY B @ 0.9;]",
        "  lo(a, A) >= 0.5   [gci; axiom B SUBSUMED-BY A @ 0.5;]",
        "    lo(a, B) >= 0.9   [gci; axiom A SUBSUMED-BY B @ 0.9;]  (see above)",
    ]


def test_mixed_precision_degrees_stay_exact():
    from naive_engine import naive_saturate

    kb = parse_kb("""
        role r : abstract;
        axiom A SUBSUMED-BY B @ 0.5;
        axiom B AND C SUBSUMED-BY BOTTOM @ 0.25;
        axiom EXISTS r . B SUBSUMED-BY D @ 0.3;
        axiom C OR D SUBSUMED-BY E @ 0.125;
        axiom NOT A SUBSUMED-BY F @ 0.333;
        assert x : A @ 0.000001;
        assert y : A @ 0.9;
        assert y : B @ 0.8;
        assert y : C @ 0.6;
        assert z : NOT A @ 0.999999;
        assert w : C OR D @ 0.9;
        assert (x, y) : r;
    """).kb
    sat = saturate(kb)
    verdict, intervals = naive_saturate(kb)
    assert verdict
    assert interval_map(sat) == intervals
    for explanation in explanations(sat):
        for node in explanation.steps:
            assert type(node.value) is Fraction and ZERO <= node.value <= ONE, node
    assert iv(sat, "y", Atom("C")) == (Fraction(3, 5), Fraction(3, 4))
    assert iv(sat, "x", Atom("D")) == (Fraction(3, 10), ONE)
    assert iv(sat, "x", Atom("A")) == (Fraction(1, 1000000), ONE)
    assert iv(sat, "z", Atom("F")) == (Fraction(333, 1000), ONE)
    assert iv(sat, "z", Atom("A")) == (ZERO, Fraction(1, 1000000))
    assert iv(sat, "w", Atom("E")) == (Fraction(1, 8), ONE)

    clash = parse_kb("""
        axiom A AND B SUBSUMED-BY BOTTOM @ 0.333;
        assert y : B @ 0.7;
        assert y : A @ 0.000001;
        assert y : A @ 0.125;
        assert y : A @ 0.667001;
    """).kb
    with pytest.raises(InconsistencyError) as caught:
        saturate(clash)
    conflict = caught.value.conflict
    assert (conflict.lo_value, conflict.hi_value) == (Fraction(667001, 1000000), Fraction(667, 1000))
    assert type(conflict.lo_value) is Fraction and type(conflict.hi_value) is Fraction
    assert conflict.expr == Atom("A")
    assert "0.667001" in format_conflict(conflict)


# -- derivation nodes are built when read


def count_nodes(monkeypatch):
    import fdlb.reasoner

    built = []
    real = fdlb.reasoner.DerivationNode

    def counting(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(fdlb.reasoner, "DerivationNode", counting)
    return built


def test_saturate_builds_no_derivation_node(fuzzy_kb, monkeypatch):
    built = count_nodes(monkeypatch)
    sat = saturate(fuzzy_kb)
    assert sat.records
    assert built == []


def test_explain_builds_only_the_steps_it_returns(fuzzy_kb, monkeypatch):
    sat = saturate(fuzzy_kb)
    built = count_nodes(monkeypatch)
    explanation = sat.explain("tab_1", Atom("UpperclassTablet"))
    assert len(explanation.steps) == 4
    assert sorted(map(id, built)) == sorted(map(id, explanation.steps))
