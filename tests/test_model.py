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
    build_kb,
    make_degree,
    sort_key,
    sub_expressions,
)

from kbtools import evaluate, kb_equal

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


@pytest.mark.parametrize("op,value,expected", [
    (">", 501, 1), (">", 500, 0),
    (">=", 500, 1), (">=", 499, 0),
    ("<", 499, 1), ("<", 500, 0),
    ("<=", 500, 1), ("<=", 501, 0),
])
def test_predicate_evaluation_is_crisp(op, value, expected):
    pred = ConcretePredicate(op, Quantity(Fraction(500), "u"))
    assert evaluate(pred, Quantity(Fraction(value), "u")) == Fraction(expected)


# -- normal form


def test_constructors_flatten_sort_dedupe():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert And(And(c, a), And(b, a)) is And(a, And(b, c)) is And(a, b, c)  # one n-ary node
    assert And(c, a, b).parts == (a, b, c)
    assert And(a, a) is a and Or(a) is a
    assert Or(b, Or(a, b)) is Or(a, b)
    assert Not(And(b, a)) is Or(Not(a), Not(b))  # negation normal form
    assert And().parts == () and And() is not Or()


def test_constructors_keep_and_or_apart():
    a, b = Atom("A"), Atom("B")
    assert And(a, b) is not Or(a, b)
    assert And(a, Or(a, b)).parts == (a, Or(a, b))  # no absorption: only the same kind is lifted


def test_constructors_keep_double_negation():
    # NOT of a NOT node is its body: NOT NOT A is A itself
    a = Atom("A")
    assert Not(Not(a)) is a


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
    inner = expr.parts[1]
    assert sort_key(expr) == (7, 2, (2, "B"), sort_key(inner))
    assert sort_key(expr)[3] is sort_key(inner)  # a node's key holds its children's keys, not copies
    assert And(Or(expr, Atom("C")), And(TOP, Or(Atom("C"), expr))) is And(TOP, Or(Atom("C"), expr))
    assert pickle.loads(pickle.dumps(expr)) is expr


# -- interning


def test_equal_expressions_are_one_node():
    price = ConcretePredicate("<=", Quantity(Fraction(500), "EUR"))
    assert Exists("p", price) is Exists("p", ConcretePredicate("<=", Quantity(Fraction(500), "EUR")))
    assert And(Atom("A"), Atom("B")) is And(Atom("B"), Atom("A"))  # built in normal form
    with pytest.raises(AttributeError):
        Atom("A").name = "B"


def test_ill_formed_constructor_fields_raise_model_error():
    price = ConcretePredicate(">", Quantity(Fraction(1), "u"))
    calls = [
        (lambda: Exists("r", "A"), "Exists: target must be"),
        (lambda: Forall("r", price), "Forall: body must be"),
        (lambda: And(Atom("A"), "B"), "And: parts must be"),
        (lambda: Not("A"), "Not: body must be"),
    ]
    for call, message in calls:
        with pytest.raises(ModelError, match=f"^{message}"):
            call()


def test_a_new_connective_is_normalized_once(monkeypatch):
    calls = []
    new = model._Connective.__new__
    monkeypatch.setattr(model._Connective, "__new__", lambda cls, *parts: calls.append(cls) or new(cls, *parts))
    parts = [Atom(f"OnceNormalized{i}") for i in range(3)]
    expr = And(*parts)
    assert calls == [And]  # its dual is built from the parts' duals, not normalized again
    dual = Not(expr)
    assert type(dual) is Or and dual.parts == tuple(sorted(map(Not, parts), key=sort_key))
    assert Or(*reversed(dual.parts)) is dual and Not(dual) is expr


def test_pickle_and_deepcopy_return_the_interned_node():
    expr = And(Atom("A"), Exists("r", Or(Atom("B"), Not(Atom("C")))), Forall("s", TOP))
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
            saturate(kb, [Atom("Unmentioned")]).instance_interval(kb.individuals[0], Atom("Unmentioned"))
        except InconsistencyError:
            pass
    del kb
    gc.collect()
    assert len(model._INTERNED) == before


# -- duals


def test_dual_de_morgan_and_quantifiers():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert Not(And(a, b)) is Or(Not(a), Not(b))
    assert Not(Or(a, b)) is And(Not(a), Not(b))
    assert Not(And(a, b, c)) is Or(Not(a), Not(b), Not(c))
    assert Not(Exists("r", a)) is Forall("r", Not(a))
    assert Not(Forall("r", a)) is Exists("r", Not(a))
    assert Not(Not(a)) is a
    assert Not(TOP) is BOTTOM and Not(BOTTOM) is TOP


def test_dual_keeps_negated_threshold_restrictions():
    restriction = Exists("m", ConcretePredicate("<=", Quantity(Fraction(900), "g")))
    assert Not(restriction).body is restriction
    assert Not(Not(restriction)) is restriction


def test_not_is_an_involution_and_stands_only_over_literals():
    import random

    from kbgen import random_concept
    from test_kbtext import _chain

    rng = random.Random(16)
    # and a 3000-level expression built in code, each level with its dual
    for expr in [*(random_concept(rng, depth=4) for _ in range(2000)), _chain(3000)[-1]]:
        assert Not(Not(expr)) is expr, expr
        for sub in sub_expressions(Not(expr)):
            if isinstance(sub, Not):
                assert isinstance(sub.body, Atom) or isinstance(sub.body.target, ConcretePredicate), sub


def test_sub_expressions_covers_nested():
    expr = And(Atom("A"), Exists("r", Or(Atom("B"), Not(Atom("C")))))
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


# -- records: every value type other than a concept expression is a NamedTuple


RECORD_NAMES = (
    "DegreeInterval", "Quantity", "ConcretePredicate", "RoleDecl", "FuzzyGci", "FuzzyAssertion", "RoleAssertion",
    "ConcreteFact", "KnowledgeBase", "SourceSpan", "ParseDiagnostic", "ParseResult", "UboxParseResult",
    "ConceptParseResult", "DerivationNode", "Explanation", "Conflict", "UtilityBox", "AttributeContribution",
    "ChoiceScore", "DecisionReport",
)


def _records():
    """One instance of every record class, by class name, with the arguments it was built from.

    Built per test: a node held for the whole session would keep its dual alive.
    """
    from fdlb import decision, kbtext, reasoner
    q = Quantity(Fraction(710), "g")
    gci = FuzzyGci(Atom("A"), Atom("B"), H)
    kb = build_kb(roles=_roles(), gcis=[gci], assertions=[FuzzyAssertion("x", Atom("A"))],
                  role_assertions=[RoleAssertion("x", "y", "r")])
    node = reasoner.DerivationNode("gci", "x", Atom("B"), "lo", H, (1,), gci, "", 2)
    premise = reasoner.DerivationNode("assertion", "x", Atom("A"), "lo", Fraction(1), (), kb.assertions[0], "", 1)
    explanation = reasoner.Explanation("x", Atom("B"), "lo", H, (node, premise))
    contribution = decision.AttributeContribution("A", Fraction(5), H, Fraction(5, 2))
    score = decision.ChoiceScore("x", Fraction(5, 2), (contribution,))
    ubox = decision.UtilityBox("e", (("A", Fraction(5)),))
    span = kbtext.SourceSpan(3, 7, 2)
    args = {
        DegreeInterval: (Fraction(1, 4), Fraction(3, 4)),
        Quantity: (Fraction(710), "g"),
        ConcretePredicate: (">", q),
        RoleDecl: ("s", "abstract", None, True),
        FuzzyGci: (Atom("A"), Atom("B"), H),
        FuzzyAssertion: ("x", Atom("A"), H),
        RoleAssertion: ("x", "y", "r"),
        model.ConcreteFact: ("x", q, "m"),
        model.KnowledgeBase: tuple(kb),
        kbtext.SourceSpan: (3, 7, 2),
        kbtext.ParseDiagnostic: ("error", "bad", span),
        kbtext.ParseResult: (kb, ()),
        kbtext.UboxParseResult: (ubox, ()),
        kbtext.ConceptParseResult: (Atom("A"), (kbtext.ParseDiagnostic("warning", "w"),)),
        reasoner.DerivationNode: tuple(node),
        reasoner.Explanation: tuple(explanation),
        reasoner.Conflict: ("x", Atom("B"), H, Fraction(1, 4), explanation, explanation),
        decision.UtilityBox: ("e", (("A", Fraction(5)),)),
        decision.AttributeContribution: tuple(contribution),
        decision.ChoiceScore: tuple(score),
        decision.DecisionReport: ("e", (score,)),
    }
    return {cls.__name__: (cls(*a), a) for cls, a in args.items()}


def _hashable(record):
    # a knowledge base's roles are a dict, as they always were
    return not any(isinstance(value, model.KnowledgeBase) for value in (record, *record))


def test_the_record_list_covers_every_record_class():
    from fdlb import decision, kbtext, reasoner
    classes = {
        obj for module in (model, kbtext, reasoner, decision) for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert sorted(cls.__name__ for cls in classes) == sorted(_records()) == sorted(RECORD_NAMES)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_construction_by_position_keyword_and_default(name):
    record, args = _records()[name]
    cls = type(record)
    assert cls.__name__ == name and tuple(record) == args
    assert cls(**dict(zip(cls._fields, args))) == record
    required = len(cls._fields) - len(cls._field_defaults)
    if cls._field_defaults:
        partial = cls(*args[:required])
        assert tuple(partial)[required:] == tuple(cls._field_defaults.values())
    with pytest.raises(TypeError):
        cls(*args[:required - 1])


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_equality_and_hash_are_by_value(name):
    record, args = _records()[name]
    cls = type(record)
    again = cls(*copy.deepcopy(args))
    assert again == record and not again != record
    if _hashable(record):
        assert hash(again) == hash(record) and len({record, again}) == 1
    assert record._replace(**{cls._fields[-1]: None}) != record
    # a record is a tuple: it unpacks, and equals a plain tuple of its values
    *rest, last = record
    assert (*rest, last) == args and record == args


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_attributes_cannot_be_assigned(name):
    record, args = _records()[name]
    cls = type(record)
    for field in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, cls._fields[0])
    assert tuple(record) == args


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_pickle_and_copy_round_trips(name):
    record, _ = _records()[name]
    cls = type(record)
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(again) is cls and again == record
        if isinstance(record, model.KnowledgeBase):
            assert kb_equal(again, record)


@pytest.mark.parametrize("build, error, message", [
    (lambda: DegreeInterval(Fraction(3, 4), Fraction(1, 4)), IntervalConflictError,
     "empty degree interval: lo 3/4 > hi 1/4"),
    (lambda: DegreeInterval(lo=Fraction(3, 2), hi=Fraction(2)), DegreeRangeError, "degree 3/2 is outside [0, 1]"),
    (lambda: ConcretePredicate("!=", Quantity(Fraction(1), "u")), ModelError, "unknown comparator '!='"),
    (lambda: RoleDecl("r", "fuzzy"), ModelError, "role r: unknown kind 'fuzzy'"),
    (lambda: RoleDecl("m", kind="concrete"), ModelError, "concrete role m needs a unit"),
    (lambda: RoleDecl("r", "abstract", "u"), ModelError, "abstract role r cannot carry a unit"),
    (lambda: RoleDecl("m", "concrete", unit="u", closed=True), ModelError, "concrete role m cannot be closed"),
])
def test_record_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_utility_box_validation_errors_and_unpickling_validates_again():
    from fdlb.decision import UtilityBox
    from fdlb.model import FdlbError
    with pytest.raises(FdlbError, match="^attribute 'A' weighted twice$"):
        UtilityBox("e", (("A", Fraction(1)), ("A", Fraction(2))))
    negative = (("A", Fraction(-1)),)
    with pytest.raises(FdlbError, match="^weight -1 is negative$"):
        UtilityBox(expert_id="e", entries=negative)
    unchecked = pickle.dumps(UtilityBox._make(("e", negative)))  # _make skips the check
    with pytest.raises(FdlbError, match="is negative"):
        pickle.loads(unchecked)


def test_build_kb_stores_every_degree_as_a_fraction():
    kb = build_kb(gcis=[FuzzyGci(Atom("A"), Atom("B"), 1)], assertions=[FuzzyAssertion("x", Atom("A"), "0.5")])
    assert [type(s.degree) for s in (*kb.gcis, *kb.assertions)] == [Fraction, Fraction]
    assert kb.assertions == (FuzzyAssertion("x", Atom("A"), H),)
