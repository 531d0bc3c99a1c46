"""Brute-force reference implementation of interval saturation.

Deliberately dumb: a dense lower/upper bound table over every (individual,
closure expression) pair, and full passes that try every rule on every pair
until nothing moves.  No worklist, no indexes, no provenance.  The package
engine and this one share only the closure definition and the normalized
expression types; the rule logic here is written directly from the
min/max/complement semantics so the two can check each other.

:func:`to_negation_normal_form` is the recursive tree rewrite that
``fdlb.model.dual`` replaced; it stays here as that function's reference.
"""

from fractions import Fraction

from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    ConcretePredicate,
    DegreeInterval,
    Exists,
    Forall,
    FuzzyAssertion,
    Not,
    Or,
    TOP,
    Top,
    build_kb,
)
from fdlb.reasoner import build_closure

ZERO = Fraction(0)
ONE = Fraction(1)


class Inconsistent(Exception):
    pass


def to_negation_normal_form(expr):
    """Push negation inward (De Morgan, quantifier duals, involution).

    Negation directly above a concrete restriction stays put: threshold
    predicates have no complemented comparator form, and the interval
    semantics handles the outer negation exactly.
    """
    if isinstance(expr, (Top, Bottom, Atom)):
        return expr
    if isinstance(expr, (And, Or)):
        return type(expr)(*map(to_negation_normal_form, expr.parts))
    if isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            return expr
        return Exists(expr.role, to_negation_normal_form(expr.target))
    if isinstance(expr, Forall):
        return Forall(expr.role, to_negation_normal_form(expr.body))
    body = expr.body  # a Not
    if isinstance(body, Top):
        return BOTTOM
    if isinstance(body, Bottom):
        return TOP
    if isinstance(body, Atom):
        return expr
    if isinstance(body, Not):
        return to_negation_normal_form(body.body)
    if isinstance(body, (And, Or)):
        dual = Or if isinstance(body, And) else And
        return dual(*(to_negation_normal_form(Not(c)) for c in body.parts))
    if isinstance(body, Exists):
        if isinstance(body.target, ConcretePredicate):
            return expr  # negation retained above the concrete restriction
        return Forall(body.role, to_negation_normal_form(Not(body.target)))
    return Exists(body.role, to_negation_normal_form(Not(body.body)))  # a Forall


def with_queries(kb, queries):
    """``kb`` with each query asserted at degree 0 on its first individual.

    A degree-0 assertion raises no bound, so the base entails what it did;
    it only brings the query and its closure into the saturation.
    """
    extra = tuple(FuzzyAssertion(kb.individuals[0], query, Fraction(0)) for query in queries)
    return build_kb(
        roles=tuple(kb.roles.values()),
        gcis=kb.gcis,
        assertions=kb.assertions + extra,
        role_assertions=kb.role_assertions,
        concrete_facts=kb.concrete_facts,
        declared_concepts=tuple(kb.declared_concepts),
    )


class NaiveEngine:
    def __init__(self, kb):
        self.kb = kb
        self.closure = build_closure(kb)
        self.individuals = list(kb.individuals)
        self.lo = {(a, e): ZERO for a in self.individuals for e in self.closure}
        self.hi = {(a, e): ONE for a in self.individuals for e in self.closure}
        self.fillers = {}
        for ra in kb.role_assertions:
            self.fillers.setdefault((ra.subject, ra.role), set()).add(ra.filler)
        self.values = {(cf.subject, cf.role): cf.value for cf in kb.concrete_facts}

    def preset(self, interval_map):
        """Start from someone else's bounds instead of the vacuous table."""
        for (a, e), iv in interval_map.items():
            if (a, e) in self.lo:
                self.lo[(a, e)] = iv.lo
                self.hi[(a, e)] = iv.hi

    def _tlo(self, a, e, v):
        if v > self.lo[(a, e)]:
            self.lo[(a, e)] = v
            if v > self.hi[(a, e)]:
                raise Inconsistent()
            return True
        return False

    def _thi(self, a, e, v):
        if v < self.hi[(a, e)]:
            self.hi[(a, e)] = v
            if v < self.lo[(a, e)]:
                raise Inconsistent()
            return True
        return False

    def sweep(self):
        """One full pass of every rule over every pair; True if anything moved."""
        kb, lo, hi = self.kb, self.lo, self.hi
        changed = False
        for a in self.individuals:
            changed |= self._tlo(a, TOP, ONE)
            changed |= self._thi(a, BOTTOM, ZERO)
        for fa in kb.assertions:
            changed |= self._tlo(fa.individual, fa.concept, fa.degree)
        for a in self.individuals:
            for e in self.closure:
                if isinstance(e, Not):
                    changed |= self._tlo(a, e, ONE - hi[(a, e.body)])
                    changed |= self._thi(a, e, ONE - lo[(a, e.body)])
                    changed |= self._tlo(a, e.body, ONE - hi[(a, e)])
                    changed |= self._thi(a, e.body, ONE - lo[(a, e)])
                elif isinstance(e, And):
                    parts = e.parts
                    changed |= self._tlo(a, e, min(lo[(a, c)] for c in parts))
                    changed |= self._thi(a, e, min(hi[(a, c)] for c in parts))
                    for c in parts:
                        changed |= self._tlo(a, c, lo[(a, e)])
                elif isinstance(e, Or):
                    parts = e.parts
                    changed |= self._tlo(a, e, max(lo[(a, c)] for c in parts))
                    changed |= self._thi(a, e, max(hi[(a, c)] for c in parts))
                elif isinstance(e, Exists):
                    if isinstance(e.target, ConcretePredicate):
                        value = self.values.get((a, e.role))
                        if value is not None:
                            verdict = e.target.evaluate(value)
                            changed |= self._tlo(a, e, verdict)
                            changed |= self._thi(a, e, verdict)
                    else:
                        fils = self.fillers.get((a, e.role), ())
                        if fils:
                            changed |= self._tlo(a, e, max(lo[(b, e.target)] for b in fils))
                elif isinstance(e, Forall):
                    fils = self.fillers.get((a, e.role), ())
                    for b in fils:
                        changed |= self._tlo(b, e.body, lo[(a, e)])
                    decl = kb.roles.get(e.role)
                    if decl is not None and decl.closed:
                        candidate = min((lo[(b, e.body)] for b in fils), default=ONE)
                        changed |= self._tlo(a, e, candidate)
        for gci in kb.gcis:
            cap = ONE - gci.degree
            if gci.rhs == BOTTOM:
                parts = gci.lhs.parts if isinstance(gci.lhs, And) else None
                for a in self.individuals:
                    if parts is None:
                        changed |= self._thi(a, gci.lhs, cap)
                    else:
                        for j, cj in enumerate(parts):
                            others = parts[:j] + parts[j + 1 :]
                            if min(lo[(a, c)] for c in others) > cap:
                                changed |= self._thi(a, cj, cap)
            else:
                for a in self.individuals:
                    if lo[(a, gci.lhs)] > cap:
                        changed |= self._tlo(a, gci.rhs, gci.degree)
        return changed

    def run(self):
        """Sweep to the fixpoint; False when the bounds crossed somewhere."""
        try:
            while self.sweep():
                pass
        except Inconsistent:
            return False
        return True

    def interval_map(self):
        """Non-vacuous intervals, in the same shape the package engine reports."""
        out = {}
        for key, low in self.lo.items():
            high = self.hi[key]
            if low != ZERO or high != ONE:
                out[key] = DegreeInterval(low, high)
        return out


def naive_saturate(kb, extra=()):
    """(consistent, non-vacuous interval map or None), with the ``extra`` query expressions in the closure."""
    engine = NaiveEngine(with_queries(kb, extra) if extra else kb)
    if not engine.run():
        return False, None
    return True, engine.interval_map()
