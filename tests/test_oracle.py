"""A rule-independent soundness oracle: entailed bounds against enumerated models.

The engine's rules and ``tests/naive_engine.py`` share their reading of the
semantics, so a rule that is unsound in both passes every comparison
between them.  This module checks the engine against models instead.  Its
bases are tiny: named individuals ``x`` and ``y``, atoms ``A``, ``B`` and
``C``, the open role ``r``, the closed role ``s`` and the concrete role
``m``, concepts of depth 2, and degrees from {0, 1/4, 1/2, 3/4, 1}.  Each
named individual has one ``m`` value, except that every fourth base drops
the value of one of them.  A threshold restriction is crisp at a named
individual with a value.  For one without, each family is taken once with
no value (every ``EXISTS m . P`` is 0 there) and once with each of
``VALUES``.  That is exact: ``VALUES`` has one point in each of the seven
regions that ``THRESHOLDS`` cut under ``>``, ``>=``, ``<`` and ``<=``, and
every value in a region satisfies the same restrictions.

An interpretation gives each of the six (individual, atom) pairs a degree
from the pool: 5**6 = 15,625 of them.  They are evaluated all at once,
under Zadeh semantics (Straccia, *Reasoning within Fuzzy Description
Logics*, JAIR 2001): for each expression, individual and level ``t`` in
1..4, one Python ``int`` holds bit ``k`` when the expression is at least
``t/4`` under interpretation ``k``.  ``AND`` is then ``&``, ``OR`` is
``|``, ``NOT`` is the complement of the mirrored level, and a quantifier
combines its fillers.  An interpretation is kept when it satisfies every
inclusion of ``kb.gcis`` (already desugared) at every individual, as
``max(1 - C(a), D(a)) >= t``, and every assertion.  Each kept
interpretation is a model, so:

* an entailed interval that misses a kept model's value is unsound (gate 1);
* an "inconsistent" verdict, from saturation or from a query that grows
  it, must keep no model (gate 2).

Two families of models are checked.  In the first, each role holds exactly
its asserted edges.  In the second, each named individual also has an
``r``-edge to one unnamed individual ``u``, which has its own three atoms,
no edges and no ``m`` value; the open role may have fillers no statement
names, and only this family shows a rule that forgets it.  ``u``'s 125
atom assignments are evaluated the same way, and grouped by the values
``u`` gives the bodies of the ``r``-quantifiers, which are all the named
individuals see of it.

Bases called consistent that keep no model are counted, not gated: the
engine leaves bounds open by design, and a model may need more than these
families hold.  ``PYTHONPATH=src python tests/test_oracle.py [SEEDS]`` prints the counts.
"""

import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest

from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    ConcreteFact,
    ConcretePredicate,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyGci,
    Not,
    Or,
    Quantity,
    RoleAssertion,
    RoleDecl,
    TOP,
    build_kb,
    sub_expressions,
)
from fdlb.reasoner import InconsistencyError, build_closure, saturate

ATOMS = ("A", "B", "C")
NAMED = ("x", "y")
UNNAMED = "u"
LEVELS = 4  # a degree is k / LEVELS
POOL = [Fraction(k, LEVELS) for k in range(LEVELS + 1)]
ROLES = (
    RoleDecl("r", "abstract"),
    RoleDecl("s", "abstract", closed=True),
    RoleDecl("m", "concrete", unit="u"),
)
THRESHOLDS = (10, 20, 30)
VALUES = (5, 10, 15, 20, 25, 30, 35)


# -- the generator


def oracle_concept(rng, depth=2):
    pick = rng.random()
    if depth == 0 or pick < 0.35:
        roll = rng.random()
        if roll < 0.75:
            return Atom(rng.choice(ATOMS))
        if roll < 0.85:
            return rng.choice((TOP, BOTTOM))
        op = rng.choice((">", ">=", "<", "<="))
        return Exists("m", ConcretePredicate(op, Quantity(Fraction(rng.choice(THRESHOLDS)), "u")))
    if pick < 0.5:
        return Not(oracle_concept(rng, depth - 1))
    if pick < 0.65:
        return And(oracle_concept(rng, depth - 1), oracle_concept(rng, depth - 1))
    if pick < 0.8:
        return Or(oracle_concept(rng, depth - 1), oracle_concept(rng, depth - 1))
    quantifier = Exists if pick < 0.9 else Forall
    return quantifier(rng.choice("rs"), oracle_concept(rng, depth - 1))


def oracle_base(seed):
    """A tiny base and two queries for it, from ``seed``."""
    rng = random.Random(seed)
    gcis = [
        FuzzyGci(oracle_concept(rng), BOTTOM if rng.random() < 0.15 else oracle_concept(rng), rng.choice(POOL))
        for _ in range(rng.randint(1, 4))
    ]
    assertions = [
        FuzzyAssertion(rng.choice(NAMED), oracle_concept(rng), rng.choice(POOL[1:]))
        for _ in range(rng.randint(1, 4))
    ]
    edges = [
        RoleAssertion(a, b, role) for role in "rs" for a in NAMED for b in NAMED if rng.random() < 0.3
    ]
    facts = [ConcreteFact(a, Quantity(Fraction(rng.choice(VALUES)), "u"), "m") for a in NAMED]
    queries = [oracle_concept(rng) for _ in range(2)]
    if seed % 4 == 0:  # drawn last, so the other bases stay as they were
        named = sorted({fa.individual for fa in assertions} | {n for ra in edges for n in (ra.subject, ra.filler)})
        unvalued = rng.choice(named)  # still named by a statement, so still an individual of the base
        facts = [cf for cf in facts if cf.subject != unvalued]
    kb = build_kb(roles=ROLES, gcis=gcis, assertions=assertions, role_assertions=edges, concrete_facts=facts)
    return kb, queries


# -- the models


def _level_sets(slots):
    """Per atom slot, the LEVELS sets of assignments (over ``slots`` slots) that give it at least t/LEVELS."""
    size = (LEVELS + 1) ** slots
    out = []
    for j in range(slots):
        digits = [k // (LEVELS + 1) ** j % (LEVELS + 1) for k in range(size)]
        bits = lambda t: int("".join("1" if d >= t else "0" for d in reversed(digits)), 2)
        out.append(tuple(bits(t) for t in range(1, LEVELS + 1)))
    return (1 << size) - 1, out


NAMED_SPACE = _level_sets(len(NAMED) * len(ATOMS))
UNNAMED_SPACE = _level_sets(len(ATOMS))


def constant(full, degree_level):
    return tuple(full if degree_level >= t else 0 for t in range(1, LEVELS + 1))


class Models:
    """Every interpretation of one family at once: ``value(a, e)`` is a tuple of LEVELS sets.

    ``atoms`` maps (individual, atom name) to its level sets, ``edges``
    (individual, role) to the fillers, ``values`` (individual, role) to
    the concrete value.
    """

    def __init__(self, full, atoms, edges, values):
        self.full, self.atoms, self.edges, self.values = full, atoms, edges, values
        self.memo = {}

    def value(self, a, e):
        v = self.memo.get((a, e))
        if v is None:
            v = self.memo[(a, e)] = self._evaluate(a, e)
        return v

    def _evaluate(self, a, e):
        if e is TOP or e is BOTTOM:
            return constant(self.full, LEVELS if e is TOP else 0)
        if isinstance(e, Atom):
            return self.atoms[(a, e.name)]
        if isinstance(e, Not):  # 1 - v >= t/L exactly when v >= (L + 1 - t)/L fails
            body = self.value(a, e.body)
            return tuple(self.full ^ body[LEVELS - t] for t in range(1, LEVELS + 1))
        if isinstance(e, (And, Or)):
            op, unit = (and_, self.full) if isinstance(e, And) else (or_, 0)
            parts = [self.value(a, p) for p in e.parts]
            return tuple(reduce(op, (p[i] for p in parts), unit) for i in range(LEVELS))
        if isinstance(e, Exists) and isinstance(e.target, ConcretePredicate):
            value = self.values.get((a, e.role))
            return constant(self.full, LEVELS if value is not None and e.target.evaluate(value) else 0)
        body = e.target if isinstance(e, Exists) else e.body
        op, unit = (or_, 0) if isinstance(e, Exists) else (and_, self.full)
        fillers = [self.value(b, body) for b in self.edges.get((a, e.role), ())]
        return tuple(reduce(op, (f[i] for f in fillers), unit) for i in range(LEVELS))

    def at_least(self, a, e, degree):
        t = level(degree)
        return self.full if t == 0 else self.value(a, e)[t - 1]

    def satisfying(self, a, gci):
        """The interpretations where ``max(1 - lhs(a), rhs(a)) >= degree``."""
        t = level(gci.degree)
        if t == 0:
            return self.full
        return (self.full ^ self.value(a, gci.lhs)[LEVELS - t]) | self.value(a, gci.rhs)[t - 1]

    def outside(self, a, e, lo, hi):
        """The interpretations where ``e`` at ``a`` lies outside [lo, hi]."""
        below = self.full ^ self.at_least(a, e, lo)
        above = self.value(a, e)[level(hi)] if hi < 1 else 0
        return below | above


def level(degree):
    t = degree * LEVELS
    assert t.denominator == 1, degree
    return int(t)


def model_families(kb, exprs):
    """(models, kept set) per family: roles as asserted, then with ``u`` as an extra ``r``-filler of each named one.

    ``exprs`` lists every expression whose value will be read, so that the
    second family holds one member per distinct view of ``u``.  Each family
    is taken once per choice of ``m`` values for the named individuals
    without one: none, or one of ``VALUES``.
    """
    edges = {}
    for ra in kb.role_assertions:
        edges.setdefault((ra.subject, ra.role), []).append(ra.filler)
    given = {(cf.subject, cf.role): cf.value for cf in kb.concrete_facts}
    unvalued = [a for a in NAMED if (a, "m") not in given]
    choices = [None] + [Quantity(Fraction(v), "u") for v in VALUES]
    value_sets = [
        {**given, **{(a, "m"): v for a, v in zip(unvalued, picked) if v is not None}}
        for picked in product(choices, repeat=len(unvalued))
    ]
    full, slots = NAMED_SPACE
    atoms = {(a, name): slots[i * len(ATOMS) + j] for i, a in enumerate(NAMED) for j, name in enumerate(ATOMS)}

    def kept(models, individuals, assertions):
        held = [models.satisfying(a, gci) for gci in kb.gcis for a in individuals]
        held += [models.at_least(fa.individual, fa.concept, fa.degree) for fa in assertions]
        return reduce(and_, held, models.full)

    families = [Models(full, atoms, edges, values) for values in value_sets]
    u_full, u_slots = UNNAMED_SPACE
    alone = Models(u_full, {(UNNAMED, name): u_slots[j] for j, name in enumerate(ATOMS)}, {}, {})
    feasible = kept(alone, [UNNAMED], ())
    quantified = [e for e in exprs if isinstance(e, (Exists, Forall)) and e.role == "r"]
    bodies = list({e.target if isinstance(e, Exists) else e.body for e in quantified})
    views = {}
    for k in range(u_full.bit_length()):
        if feasible >> k & 1:
            view = tuple(sum(v >> k & 1 for v in alone.value(UNNAMED, b)) for b in bodies)
            views.setdefault(view, k)
    with_u = {key: fillers + [UNNAMED] if key[1] == "r" else fillers for key, fillers in edges.items()}
    with_u.update({(a, "r"): [UNNAMED] for a in NAMED if (a, "r") not in edges})
    for k in views.values():
        digits = [k // (LEVELS + 1) ** j % (LEVELS + 1) for j in range(len(ATOMS))]
        u_atoms = {(UNNAMED, name): constant(full, d) for name, d in zip(ATOMS, digits)}
        families += (Models(full, {**atoms, **u_atoms}, with_u, values) for values in value_sets)
    return [(models, kept(models, NAMED, kb.assertions)) for models in families]


# -- the check


def check_base(seed):
    """Check one base's verdict, bounds and query answers against its models.

    Returns (violations, verdict, kept): the gate failures found, whether
    the engine called the base consistent, and whether any model is kept.
    """
    kb, queries = oracle_base(seed)
    exprs = set(build_closure(kb))
    for query in queries:
        exprs.update(sub_expressions(query))
    families = model_families(kb, exprs)
    any_kept = any(kept for _, kept in families)
    violations = []
    try:
        sat = saturate(kb)
    except InconsistencyError as clash:
        if any_kept:
            violations.append(f"seed {seed}: inconsistent, yet a model is kept ({clash.conflict.expr!r})")
        return violations, False, any_kept
    for a in NAMED:
        for e in sat.closure:
            interval = sat.instance_interval(a, e)
            if any(models.outside(a, e, *interval) & kept for models, kept in families):
                violations.append(f"seed {seed}: {a} in {e!r} lies outside {tuple(interval)} in a kept model")
    for query in queries:
        try:
            for a in NAMED:
                interval = sat.instance_interval(a, query)
                if any(models.outside(a, query, *interval) & kept for models, kept in families):
                    violations.append(f"seed {seed}: query {query!r} at {a} lies outside {tuple(interval)}")
        except InconsistencyError:
            if any_kept:
                violations.append(f"seed {seed}: query {query!r} clashes, yet a model is kept")
            break
    return violations, True, any_kept


@pytest.mark.parametrize("block", range(8))
def test_entailed_bounds_hold_in_every_enumerated_model(block):
    violations = []
    for seed in range(block * 75, block * 75 + 75):
        violations += check_base(seed)[0]
    assert violations == []


def test_the_model_families_separate_open_from_closed_roles():
    # r-edge x -> y, A at y is 1: FORALL r . A at x is at least 1 only if r has no other filler
    kb = build_kb(
        roles=ROLES,
        assertions=[FuzzyAssertion("y", Atom("A"))],
        role_assertions=[RoleAssertion("x", "y", "r"), RoleAssertion("x", "y", "s")],
        concrete_facts=[ConcreteFact(a, Quantity(Fraction(5), "u"), "m") for a in NAMED],
    )
    closed, opened = Forall("s", Atom("A")), Forall("r", Atom("A"))
    families = model_families(kb, [closed, opened])
    assert all(models.outside("x", closed, Fraction(1), Fraction(1)) & kept == 0 for models, kept in families)
    first, *rest = families
    assert first[0].outside("x", opened, Fraction(1), Fraction(1)) & first[1] == 0
    assert any(models.outside("x", opened, Fraction(1), Fraction(1)) & kept for models, kept in rest)


def test_an_individual_without_a_value_is_taken_with_none_and_with_each_value():
    kb = build_kb(
        roles=ROLES,
        assertions=[FuzzyAssertion("y", Atom("A"))],
        concrete_facts=[ConcreteFact("x", Quantity(Fraction(5), "u"), "m")],
    )
    above = Exists("m", ConcretePredicate(">", Quantity(Fraction(10), "u")))
    families = model_families(kb, [above])
    # roles as asserted, then with u; each once with no value for y and once per value, in VALUES order
    assert [models.value("y", above)[0] == models.full for models, _ in families] == 2 * ([False] * 3 + [True] * 5)
    assert all(models.value("x", above)[0] == 0 for models, _ in families)


def survey(seeds):
    """Counts over ``seeds``: bases, inconsistent verdicts, consistent bases keeping no model, violations."""
    counts = {"bases": 0, "inconsistent": 0, "consistent_without_model": 0, "violations": 0}
    for seed in seeds:
        violations, verdict, kept = check_base(seed)
        counts["bases"] += 1
        counts["inconsistent"] += not verdict
        counts["consistent_without_model"] += verdict and not kept
        counts["violations"] += len(violations)
        for line in violations:
            print(line)
    return counts


if __name__ == "__main__":
    print(survey(range(int(sys.argv[1]) if len(sys.argv) > 1 else 600)))
