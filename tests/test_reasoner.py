from fractions import Fraction

import pytest

from fdlb.kbtext import parse_kb
from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    ConcretePredicate,
    Exists,
    FdlbError,
    Forall,
    Not,
    Or,
    Quantity,
    TOP,
    build_kb,
    normalize,
)
from fdlb.reasoner import (
    InconsistencyError,
    NoDerivationError,
    UnknownIndividualError,
    check_consistency,
    format_conflict,
    format_explanation,
    saturate,
)

ZERO, ONE = Fraction(0), Fraction(1)


def sat_of(text):
    result = parse_kb(text)
    assert result.ok, result.diagnostics
    return saturate(result.kb)


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
    sat = sat_of("assert x : NOT A @ 0.6; assert x : NOT B @ 0.7; assert x : B @ 0.1;")
    assert iv(sat, "x", Or(Atom("A"), Atom("B"))) == (Fraction(1, 10), Fraction(2, 5))


def test_exists_witness():
    sat = sat_of("""
        role r : abstract;
        assert (x, y) : r;
        assert (x, z) : r;
        assert y : C @ 0.4;
        assert z : C @ 0.7;
    """)
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
    """)
    assert iv(sat, "x", Forall("s", Atom("C")))[0] == Fraction(1, 2)
    # no fillers at all: vacuously full membership
    assert iv(sat, "lone", Forall("s", Atom("C"))) == (ONE, ONE)


def test_forall_over_open_role_stays_unknown():
    sat = sat_of("role r : abstract;\nassert (x, y) : r;\nassert y : C;\nassert x : A;")
    assert iv(sat, "x", Forall("r", Atom("C"))) == (ZERO, ONE)


def test_concrete_restrictions_pin_crisply():
    sat = sat_of("""
        role m : concrete(u);
        assert (x, 710 u) : m;
        assert bare : A;
    """)
    le900 = Exists("m", ConcretePredicate("<=", Quantity(Fraction(900), "u")))
    gt900 = Exists("m", ConcretePredicate(">", Quantity(Fraction(900), "u")))
    assert iv(sat, "x", le900) == (ONE, ONE)
    assert iv(sat, "x", gt900) == (ZERO, ZERO)
    assert iv(sat, "bare", le900) == (ZERO, ONE)  # no fact, no verdict


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
    report = check_consistency(result.kb)
    assert not report.consistent
    conflict = report.conflicts[0]
    assert conflict.individual == "e_1"
    text = format_conflict(conflict)
    assert "PoorEquip AND WellEquip SUBSUMED-BY BOTTOM" in text
    assert "disjoint" in text


def test_asserting_bottom_is_inconsistent():
    result = parse_kb("assert x : BOTTOM @ 0.5;")
    assert not check_consistency(result.kb).consistent


def test_check_consistency_on_consistent_kb(crisp_kb):
    report = check_consistency(crisp_kb)
    assert report.consistent and report.conflicts == ()


def test_saturate_raises_on_inconsistency():
    result = parse_kb("axiom A AND B SUBSUMED-BY BOTTOM;\nassert x : A;\nassert x : B;")
    with pytest.raises(InconsistencyError) as excinfo:
        saturate(result.kb)
    assert not excinfo.value.report.consistent


def test_statement_order_does_not_change_entailment(fuzzy_kb):
    base = saturate(fuzzy_kb).interval_map()
    shuffled = build_kb(
        roles=tuple(fuzzy_kb.roles.values()),
        gcis=tuple(reversed(fuzzy_kb.gcis)),
        assertions=tuple(reversed(fuzzy_kb.assertions)),
        role_assertions=tuple(reversed(fuzzy_kb.role_assertions)),
        concrete_facts=tuple(reversed(fuzzy_kb.concrete_facts)),
        declared_concepts=tuple(fuzzy_kb.declared_concepts),
    )
    assert saturate(shuffled).interval_map() == base


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


def test_instance_interval_outside_closure_extends(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    novel = Or(Atom("LightweightTablet"), Atom("UpperclassTablet"))
    assert normalize(novel) not in set(sat.closure)
    assert sat.instance_interval("tab_3", novel).lo == ONE
    # and the extension is invisible to in-closure answers
    assert sat.instance_interval("tab_3", Atom("LightweightTablet")).lo == Fraction(3, 5)


def test_interval_is_strict_about_closure(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    with pytest.raises(FdlbError, match="outside the saturated closure"):
        sat.interval("tab_3", Or(Atom("Device"), Atom("Equip")))


def test_unknown_individual_rejected(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    with pytest.raises(UnknownIndividualError):
        sat.instance_interval("tab_9", Atom("Tablet"))


def test_entailed_lower_bound_none_iff_vacuous(fuzzy_kb):
    sat = saturate(fuzzy_kb)
    assert sat.entailed_lower_bound("tab_2", Atom("LightweightTablet")) is None
    assert sat.entailed_lower_bound("tab_3", Atom("LightweightTablet")) == Fraction(3, 5)
    # a known upper bound with lower bound 0 is decided, not vacuous
    assert sat.entailed_lower_bound("tab_2", Atom("UpperclassTablet")) == ZERO


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


def graph_of(sat):
    return dict(sat._derivations)


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_derivations_are_closed_and_acyclic(fixture, request):
    sat = saturate(request.getfixturevalue(fixture))
    graph = graph_of(sat)
    for node in graph.values():
        for premise in node.premises:
            assert premise in graph, f"{node.rule} premise {premise} has no derivation"
    state = {}  # 1 = on stack, 2 = done

    def visit(key):
        if state.get(key) == 2:
            return
        assert state.get(key) != 1, f"cycle through {key}"
        state[key] = 1
        for premise in graph[key].premises:
            visit(premise)
        state[key] = 2

    for key in graph:
        visit(key)


def recompute(sat, node):
    from fdlb.model import conjuncts, disjuncts

    kb, a, e = sat.kb, node.individual, node.expr
    lo = lambda i, c: sat.interval(i, c).lo
    hi = lambda i, c: sat.interval(i, c).hi
    fillers = lambda i, role: sorted({ra.filler for ra in kb.role_assertions
                                      if ra.subject == i and ra.role == role})
    rule = node.rule
    if rule == "top":
        return ONE
    if rule == "bottom":
        return ZERO
    if rule == "assertion":
        return node.source.degree
    if rule == "concrete":
        return e.target.evaluate(node.source.value)
    if rule == "negation":
        partner = node.premises[0][1]
        return ONE - hi(a, partner) if node.kind == "lo" else ONE - lo(a, partner)
    if rule == "conj-up":
        return min(lo(a, c) for c in conjuncts(e))
    if rule == "conj-hi":
        return min(hi(a, c) for c in conjuncts(e))
    if rule == "conj-down":
        return lo(a, node.premises[0][1])
    if rule == "disj-up":
        return max(lo(a, c) for c in disjuncts(e))
    if rule == "disj-hi":
        return max(hi(a, c) for c in disjuncts(e))
    if rule == "exists-up":
        return max(lo(b, e.target) for b in fillers(a, e.role))
    if rule == "forall-down":
        src, forall_expr, _ = node.premises[0]
        return lo(src, forall_expr)
    if rule == "forall-up":
        return min((lo(b, e.body) for b in fillers(a, e.role)), default=ONE)
    if rule == "gci":
        assert lo(a, node.source.lhs) > ONE - node.source.degree
        return node.source.degree
    if rule == "disjoint":
        cap = ONE - node.source.degree
        parts = conjuncts(node.source.lhs)
        if len(parts) > 1:
            others = [c for c in parts if c != e]
            assert min(lo(a, c) for c in others) > cap
        return cap
    raise AssertionError(f"unknown rule {rule}")


@pytest.mark.parametrize("fixture", ["crisp_kb", "fuzzy_kb", "complete_kb"])
def test_final_derivations_replay_exactly(fixture, request):
    # at the fixpoint, recomputing any recorded step from the final bounds
    # reproduces exactly the bound it recorded
    sat = saturate(request.getfixturevalue(fixture))
    for node in graph_of(sat).values():
        assert recompute(sat, node) == node.value, (node.rule, node.individual)


# -- memoized extensions, indexed quantifier triggers, bound storage, hashes


def test_rank_saturates_once_per_out_of_closure_attribute(monkeypatch):
    import fdlb.reasoner
    from fdlb.decision import UtilityBox, attribute_utility, rank

    choices = [f"t{i}" for i in range(10)]
    text = "concept Open1;\nconcept Open2;\n" + "".join(
        f"assert {c} : Good @ 0.{i + 1};\n" for i, c in enumerate(choices)
    )
    kb = parse_kb(text).kb
    box = UtilityBox("x", (("Good", Fraction(3)), ("Open1", Fraction(2)), ("Open2", Fraction(1))))
    calls = []
    real = fdlb.reasoner.saturate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("extra_concepts", ()))
        return real(*args, **kwargs)

    monkeypatch.setattr(fdlb.reasoner, "saturate", counting)
    report = rank(fdlb.reasoner.saturate(kb), choices, box)
    assert calls == [(), (Atom("Open1"),), (Atom("Open2"),)]
    monkeypatch.undo()
    for row in report.rows:
        for c in row.contributions:
            # a fresh saturation per pair, so no memo is shared
            assert c == attribute_utility(saturate(kb), row.choice, c.attribute, c.weight)
    assert len(report.undecided) == 20


def test_memoized_extension_serves_explain_and_intervals():
    sat = sat_of("""
        axiom A SUBSUMED-BY B @ 0.7;
        assert x : A @ 0.9;
        assert y : A @ 0.2;
    """)
    query = Or(Atom("B"), Atom("C"))
    assert iv(sat, "x", query) == (Fraction(7, 10), ONE)
    assert iv(sat, "y", query) == (ZERO, ONE)
    assert sat.explain("x", query).value == Fraction(7, 10)
    assert list(sat._extensions) == [normalize(query)]


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
    assert sat.interval_map() == intervals
    assert iv(sat, "s", Exists("c", Atom("A"))) == (Fraction(9, 10), ONE)
    assert iv(sat, "s", Forall("c", Atom("A"))) == (Fraction(3, 5), ONE)
    assert iv(sat, "v", Forall("c", Atom("A"))) == (ONE, ONE)  # closed role, no fillers
    assert iv(sat, "s", Exists("o", Atom("B"))) == (Fraction(4, 5), ONE)


def test_interval_map_holds_only_non_vacuous_intervals(fuzzy_kb):
    from fdlb.model import DegreeInterval, FULL_INTERVAL

    sat = saturate(fuzzy_kb)
    intervals = sat.interval_map()
    assert intervals
    assert all(isinstance(v, DegreeInterval) and v != FULL_INTERVAL for v in intervals.values())
    assert isinstance(sat.interval("tab_1", Atom("Tablet")), DegreeInterval)
    assert sat.interval("tab_2", Atom("LightweightTablet")) == FULL_INTERVAL
    assert ("tab_2", Atom("LightweightTablet")) not in intervals
    for (ind, expr), value in intervals.items():
        assert sat.interval(ind, expr) == value


def test_equal_expressions_hash_equal():
    import pickle

    from fdlb.model import to_negation_normal_form

    def build():
        price = ConcretePredicate("<=", Quantity(Fraction(500), "EUR"))
        return And(
            Or(Atom("A"), Not(Forall("r", Atom("B")))),
            And(Exists("p", price), Exists("r", And(Atom("C"), TOP))),
        )

    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash(first)  # memoized value is stable
    canonical = normalize(to_negation_normal_form(first))
    again = normalize(to_negation_normal_form(normalize(to_negation_normal_form(build()))))
    assert again == canonical and hash(again) == hash(canonical)
    twice = to_negation_normal_form(Not(to_negation_normal_form(Not(first))))
    assert twice == to_negation_normal_form(first)
    assert hash(twice) == hash(to_negation_normal_form(first))
    assert hash(And(Atom("A"), Atom("B"))) != hash(Or(Atom("A"), Atom("B")))
    copy = pickle.loads(pickle.dumps(first))
    assert "_hash" not in vars(copy)  # the memo never leaves the process
    assert copy == first and hash(copy) == hash(first)
