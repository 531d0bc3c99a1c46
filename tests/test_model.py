import copy
import gc
import pickle
from fractions import Fraction

import pytest

import fdlb.model as model
from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    ConcreteFact,
    ConcretePredicate,
    DegreeInterval,
    DegreeRangeError,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyGci,
    IntervalConflictError,
    ModelError,
    Not,
    Or,
    Quantity,
    RoleAssertion,
    RoleDecl,
    TOP,
    UnitMismatchError,
    build_kb,
    dual,
    kb_equal,
    make_degree,
    normalize,
    sort_key,
    sub_expressions,
)

H = Fraction(1, 2)


# -- degrees and intervals


def test_make_degree_bounds():
    assert make_degree("0.5") == H
    with pytest.raises(DegreeRangeError):
        make_degree(Fraction(3, 2))
    with pytest.raises(DegreeRangeError):
        make_degree(-1)


def test_interval_conflict():
    with pytest.raises(IntervalConflictError):
        DegreeInterval(Fraction(3, 4), Fraction(1, 4))


# -- quantities and predicates


def test_quantity_comparison_checks_units():
    assert Quantity(Fraction(710), "g") < Quantity(Fraction(900), "g")
    with pytest.raises(UnitMismatchError):
        Quantity(Fraction(1), "g") < Quantity(Fraction(1), "EUR")


@pytest.mark.parametrize("op,value,expected", [
    (">", 501, 1), (">", 500, 0),
    (">=", 500, 1), (">=", 499, 0),
    ("<", 499, 1), ("<", 500, 0),
    ("<=", 500, 1), ("<=", 501, 0),
])
def test_predicate_evaluation_is_crisp(op, value, expected):
    pred = ConcretePredicate(op, Quantity(Fraction(500), "u"))
    assert pred.evaluate(Quantity(Fraction(value), "u")) == Fraction(expected)


# -- normalization


def test_normalize_flattens_sorts_dedupes():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    left = And(And(c, a), And(b, a))
    right = And(a, And(b, c))
    assert normalize(left) == normalize(right)
    assert normalize(And(a, a)) == a
    assert normalize(Or(b, Or(a, b))) == normalize(Or(a, b))
    assert normalize(left) == And(a, b, c)  # one n-ary node


def test_normalize_keeps_and_or_apart():
    a, b = Atom("A"), Atom("B")
    assert normalize(And(a, b)) != normalize(Or(a, b))


def test_normalize_no_double_negation_collapse():
    # structural form only; the reasoner links NOT NOT A to NOT A itself
    a = Atom("A")
    assert normalize(Not(Not(a))) == Not(Not(a))


def test_sort_key_total_on_distinct_shapes():
    exprs = [TOP, BOTTOM, Atom("A"), Not(Atom("A")),
             Exists("m", ConcretePredicate(">", Quantity(Fraction(1), "u"))),
             Exists("r", Atom("A")), Forall("r", Atom("A")),
             And(Atom("A"), Atom("B")), Or(Atom("A"), Atom("B"))]
    keys = [sort_key(e) for e in exprs]
    assert len(set(keys)) == len(keys)


def test_normal_form_and_sort_key_are_set_once_per_node():
    expr = Atom("D")
    for _ in range(49):  # B AND (C OR (...)), 98 levels of parentheses
        expr = And(Atom("B"), Or(Atom("C"), expr))
    assert normalize(expr) is expr  # built normalized: its normal form is itself
    inner = expr.parts[1]
    assert sort_key(expr) == (7, 2, (2, "B"), sort_key(inner))
    assert sort_key(expr)[3] is sort_key(inner)  # a node's key holds its children's keys, not copies
    messy = And(Or(expr, Atom("C")), And(TOP, Or(Atom("C"), expr)))
    assert normalize(messy) is And(TOP, Or(Atom("C"), expr))
    assert pickle.loads(pickle.dumps(expr)) is expr


# -- interning


def test_equal_expressions_are_one_node():
    price = ConcretePredicate("<=", Quantity(Fraction(500), "EUR"))
    assert Exists("p", price) is Exists("p", ConcretePredicate("<=", Quantity(Fraction(500), "EUR")))
    assert And(Atom("A"), Atom("B")) is not And(Atom("B"), Atom("A"))  # built as given; normalize sorts
    assert normalize(And(Atom("A"), Atom("B"))) is normalize(And(Atom("B"), Atom("A")))
    with pytest.raises(AttributeError):
        Atom("A").name = "B"


def test_pickle_and_deepcopy_return_the_interned_node():
    expr = normalize(And(Atom("A"), Exists("r", Or(Atom("B"), Not(Atom("C")))), Forall("s", TOP)))
    assert pickle.loads(pickle.dumps(expr)) is expr
    assert copy.deepcopy(expr) is expr and copy.copy(expr) is expr
    kb = build_kb(roles=_roles(),
                  gcis=[FuzzyGci(expr, Exists("m", ConcretePredicate(">", Quantity(Fraction(1), "u"))), H)],
                  assertions=[FuzzyAssertion("x", Not(expr))])
    again = pickle.loads(pickle.dumps(kb))
    assert kb_equal(again, kb) and again.gcis[0].lhs is expr


def test_the_table_drops_nodes_nothing_else_holds():
    from kbgen import random_kb
    from fdlb.reasoner import InconsistencyError, saturate

    gc.collect()
    before = len(model._INTERNED)
    for seed in range(50):
        kb = random_kb(seed)
        try:
            saturate(kb).instance_interval(kb.individuals[0], Atom("Unmentioned"))
        except InconsistencyError:
            pass
    del kb
    gc.collect()
    assert len(model._INTERNED) == before


# -- duals


def test_dual_de_morgan_and_quantifiers():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert dual(And(a, b)) is Or(Not(a), Not(b))
    assert dual(Or(a, b)) is And(Not(a), Not(b))
    assert dual(And(a, b, c)) is Or(Not(a), Not(b), Not(c))
    assert dual(Exists("r", a)) is Forall("r", Not(a))
    assert dual(Forall("r", a)) is Exists("r", Not(a))
    assert dual(Not(a)) is a
    assert dual(TOP) is BOTTOM


def test_dual_keeps_negated_threshold_restrictions():
    restriction = Exists("m", ConcretePredicate("<=", Quantity(Fraction(900), "g")))
    assert dual(restriction) is Not(restriction)
    assert dual(Not(restriction)) is restriction


def test_sub_expressions_covers_nested():
    expr = normalize(And(Atom("A"), Exists("r", Or(Atom("B"), Not(Atom("C"))))))
    names = {e.name for e in sub_expressions(expr) if isinstance(e, Atom)}
    assert names == {"A", "B", "C"}


# -- knowledge-base construction


def _roles():
    return (RoleDecl("r", "abstract"),
            RoleDecl("s", "abstract", closed=True),
            RoleDecl("m", "concrete", unit="u"))


def test_build_kb_desugars_degree_zero_inclusions():
    kb = build_kb(roles=_roles(),
                  gcis=[FuzzyGci(Atom("A"), Atom("B"), Fraction(0)),
                        FuzzyGci(Atom("A"), Not(Atom("C")), Fraction(0))])
    assert kb.gcis == (FuzzyGci(Atom("A"), Not(Atom("B")), Fraction(1)),
                       FuzzyGci(Atom("A"), Atom("C"), Fraction(1)))


def test_build_kb_registers_names():
    kb = build_kb(roles=_roles(),
                  gcis=[FuzzyGci(Atom("A"), Exists("r", Atom("B")))],
                  assertions=[FuzzyAssertion("x", Atom("C"), H)],
                  role_assertions=[RoleAssertion("x", "y", "r")],
                  concrete_facts=[ConcreteFact("x", Quantity(Fraction(5), "u"), "m")])
    assert kb.concept_names == {"A", "B", "C"}
    assert kb.individuals == ("x", "y")


@pytest.mark.parametrize("bad", [
    lambda: build_kb(gcis=[FuzzyGci(Atom("A"), Exists("r", Atom("B")))]),
    lambda: build_kb(roles=_roles(), gcis=[FuzzyGci(Atom("A"), Exists("m", Atom("B")))]),
    lambda: build_kb(roles=_roles(), gcis=[FuzzyGci(Atom("A"), Forall("m", Atom("B")))]),
    lambda: build_kb(roles=_roles(), gcis=[FuzzyGci(Atom("A"), Exists("r", ConcretePredicate(">", Quantity(Fraction(1), "u"))))]),
    lambda: build_kb(roles=_roles() + (RoleDecl("r", "abstract"),)),
    lambda: build_kb(roles=_roles(), role_assertions=[RoleAssertion("x", "y", "m")]),
    lambda: build_kb(roles=_roles(), concrete_facts=[ConcreteFact("x", Quantity(Fraction(1), "EUR"), "m")]),
    lambda: build_kb(roles=_roles(), concrete_facts=[ConcreteFact("x", Quantity(Fraction(1), "u"), "m"),
                                                     ConcreteFact("x", Quantity(Fraction(2), "u"), "m")]),
])
def test_build_kb_rejects_ill_formed(bad):
    with pytest.raises(ModelError):
        bad()


def test_build_kb_rejects_unit_mismatch_in_threshold():
    pred = ConcretePredicate(">", Quantity(Fraction(1), "EUR"))
    with pytest.raises(ModelError):
        build_kb(roles=_roles(), gcis=[FuzzyGci(Exists("m", pred), Atom("A"))])


def test_kb_equal_ignores_statement_order():
    kwargs = dict(
        roles=_roles(),
        gcis=[FuzzyGci(Atom("A"), Atom("B"), H), FuzzyGci(Atom("B"), Atom("C"))],
        assertions=[FuzzyAssertion("x", Atom("A")), FuzzyAssertion("y", Atom("B"), H)],
    )
    kb1 = build_kb(**kwargs)
    kb2 = build_kb(**{**kwargs,
                      "gcis": list(reversed(kwargs["gcis"])),
                      "assertions": list(reversed(kwargs["assertions"]))})
    assert kb_equal(kb1, kb2)
    kb3 = build_kb(**{**kwargs, "assertions": [FuzzyAssertion("x", Atom("A"))]})
    assert not kb_equal(kb1, kb3)
