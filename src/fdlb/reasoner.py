"""Interval entailment for fuzzy knowledge bases.

Saturation computes, for every individual and every concept expression in
the knowledge base's closure, an interval of membership degrees that is
guaranteed in every model.  Bounds only ever tighten (the rules are
monotone), every rule is sound under min/max/complement semantics with
graded inclusions read as ``max(1 - lhs(x), rhs(x)) >= degree``, and the
result is the least fixpoint — independent of statement order.

Rules, by the name recorded on each derivation:

* ``top`` / ``bottom`` — the universal and empty classes are pinned.
* ``assertion`` — an asserted membership is a lower bound.
* ``concrete`` — a known quantity decides a threshold restriction crisply.
* ``negation`` — bounds mirror between an expression and its complement.
* ``conj-up`` / ``conj-hi`` / ``conj-down`` — a conjunction sits at the
  minimum of its conjuncts; its lower bound passes down to each conjunct.
* ``disj-up`` / ``disj-hi`` — a disjunction sits at the maximum of its
  disjuncts.
* ``exists-up`` — a named filler witnesses an existential from below.
* ``forall-down`` — a value restriction's lower bound passes to fillers.
* ``forall-up`` — on a closed role the filler set is complete, so the
  minimum over fillers bounds the restriction from below (1 when empty).
* ``gci`` — from ``max(1 - C(x), D(x)) >= t``: once ``C(x)`` is known to
  exceed ``1 - t``, ``D(x) >= t`` follows.
* ``disjoint`` — an inclusion with an empty right side caps its left side
  at ``1 - t``; for a conjunctive left side, once all but one conjunct
  exceed ``1 - t``, the remaining one is capped.

Inclusions never propagate right-to-left (no contrapositive rule): what the
knowledge base does not determine stays at the vacuous interval [0, 1]
rather than being guessed.

Closure: the pinned classes, the axiom sides and asserted concepts, and all
they reach through subexpressions and duals (:func:`~fdlb.model.dual`, the
normalized negation normal form of the complement).  Expressions are
interned, so building it is one worklist of identity lookups.

Bound storage: closure expression ``x`` and individual ``i`` (in
``kb.individuals`` order) own the bound ``b = x * n + i``, ``n`` being the
number of individuals, held in two flat integer lists ``lo[b]``/``hi[b]``
as degrees scaled by ``L``, the least common denominator of the base's
asserted and inclusion degrees.  Saturation only reaches 0, 1, those
degrees and their complements, so every bound is an exact integer and
``1 - x`` is ``L - v``.  Rules are triggered through indexes by expression
id, and the worklist holds the signed bound ``s``: ``b`` for a raised
lower bound and ``~b`` for a lowered upper one.  Each improvement
overwrites one compact record under its signed bound — rule, scaled value,
premises as signed bounds, source, note and step number.
:class:`SaturatedKb` keeps both lists and the records, and builds a
:class:`DegreeInterval` only when a query first returns its pair of
bounds and a :class:`DerivationNode`, with its exact
:class:`~fractions.Fraction` value, only when an explanation, a conflict
or ``_derivations`` reads it.

Extensions: a query on an expression outside the closure extends the
saturation instead of re-running it.  The closure expressions the query
adds are numbered after the old ones, so every old bound, record and
premise keeps its number; they get index entries and seeds of their own,
the old bounds that trigger a rule concluding a new expression are queued
again, and the worklist runs from the parent's fixpoint to the new one.
The rules are monotone and the parent's bounds lie below the least
fixpoint of the larger rule set, so the bounds equal those of a fresh
saturation of the base with the query asserted at degree 0 (the
additions-only case of Kazakov & Klinov, *Incremental Reasoning in OWL EL
without Bookkeeping*, ISWC 2013).  Step numbers continue the parent's, the
derivation recorded for a bound may differ from a fresh run's, and the
parent's lists, records and indexes never change.  Each
:class:`SaturatedKb` memoizes its extensions per normalized expression,
shared by ``instance_interval`` and ``explain``, so an attribute no
statement mentions costs its two closure entries and no derivation.
"""

from __future__ import annotations

from collections import ChainMap, deque
from collections.abc import Iterator, Mapping, MutableMapping
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import NamedTuple, Sequence

from .kbtext import render_concept
from .model import (
    And,
    BOTTOM,
    ConceptExpression,
    ConcretePredicate,
    DegreeInterval,
    Exists,
    FdlbError,
    Forall,
    FULL_INTERVAL,
    FuzzyGci,
    KnowledgeBase,
    Not,
    ONE,
    Or,
    TOP,
    check_concept_roles,
    dual,
    normalize,
    sort_key,
    sub_expressions,
)

Bound = str  # "lo" | "hi"
Key = tuple[str, ConceptExpression, Bound]


class UnknownIndividualError(FdlbError):
    """A query named an individual the knowledge base never mentions."""


class NoDerivationError(FdlbError):
    """The queried bound is still at its default; there is nothing to explain."""


class DerivationNode(NamedTuple):
    """One recorded bound improvement.

    ``premises`` are (individual, expression, bound-side) references into
    the final derivation map; ``source`` is the statement that licensed the
    step (an inclusion, an assertion, a role assertion, or a quantity
    fact), if any.  ``step`` is the global order in which improvements were
    recorded.
    """

    rule: str
    individual: str
    expr: ConceptExpression
    kind: Bound
    value: Fraction
    premises: tuple[Key, ...]
    source: object | None = None
    note: str = ""
    step: int = 0


class Explanation(NamedTuple):
    """The derivations behind one bound, each listed once.

    ``steps[0]`` derives the explained bound itself; the rest are every
    derivation reachable from it through ``premises``, in depth-first
    order.  A premise that refers to an earlier step (a shared step, or a
    back-reference in a cycle) is not listed again.
    """

    individual: str
    expr: ConceptExpression
    kind: Bound
    value: Fraction
    steps: tuple[DerivationNode, ...]


class Conflict(NamedTuple):
    """Two derivations that squeeze one membership into an empty interval."""

    individual: str
    expr: ConceptExpression
    lo_value: Fraction
    hi_value: Fraction
    lo_explanation: Explanation
    hi_explanation: Explanation


class InconsistencyError(FdlbError):
    """Saturation found bounds that cannot be satisfied together.

    ``conflict`` holds the two clashing derivations of the first bound that
    became empty.
    """

    def __init__(self, conflict: Conflict):
        self.conflict = conflict
        super().__init__(
            f"inconsistent knowledge base: membership of {conflict.individual!r} is forced "
            f"both >= {conflict.lo_value} and <= {conflict.hi_value} in the same class"
        )


# --------------------------------------------------------------------------
# Closure


def build_closure(kb: KnowledgeBase) -> tuple[ConceptExpression, ...]:
    """Every expression saturation tracks (see Closure in the module docstring), in a deterministic order.

    Sharing one closure across individuals keeps interval keys comparable everywhere.
    """
    sides = (side for gci in kb.gcis for side in (gci.lhs, gci.rhs))
    return tuple(sorted(_close([TOP, BOTTOM, *sides, *(fa.concept for fa in kb.assertions)], set()), key=sort_key))


def _close(todo: list[ConceptExpression], seen: set[ConceptExpression]) -> set[ConceptExpression]:
    """Add to ``seen``, a closed set, all that ``todo`` reaches through subexpressions and duals.

    One worklist: each expression not seen yet is walked once, and its dual queued.  Returns ``seen``.
    """
    while todo:
        todo += map(dual, sub_expressions(todo.pop(), seen))
    return seen


# --------------------------------------------------------------------------
# Saturation engine


class _Saturation:
    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.names = kb.individuals
        self.individual_ids = {a: i for i, a in enumerate(self.names)}
        self.n = len(self.names)
        # a degree d (a Fraction: see build_kb) is scaled where it is used, as
        # d.numerator * (scale // d.denominator), so no Fraction is hashed
        degrees = [*(fa.degree for fa in kb.assertions), *(g.degree for g in kb.gcis)]
        self.scale = scale = lcm(*{d.denominator for d in degrees})
        # every degree saturation can reach: 0, 1, and each input degree and its complement
        levels = {d.numerator * (scale // d.denominator) for d in degrees}
        self.fractions = {v: Fraction(v, scale) for v in chain((0, scale), levels, (scale - v for v in levels))}
        # (lo, hi) scaled -> its DegreeInterval, built on the first query that
        # returns it; extensions keep the scale and share this table
        self.intervals = {(0, scale): FULL_INTERVAL}
        # signed bound -> (rule, scaled value, signed premises, source, note, step) of its latest improvement
        self.records: MutableMapping[int, tuple] = {}
        self.queue: deque[int] = deque()  # b: lo[b] rose; ~b: hi[b] fell
        self.step = 0
        self._index_roles()
        self.closure: tuple[ConceptExpression, ...] = ()
        self.expr_ids: dict[ConceptExpression, int] = {}
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.neg_partners: list[list[int]] = []
        self.conj_parents: list[list[tuple[int, tuple[int, ...]]]] = []
        self.disj_parents: list[list[tuple[int, tuple[int, ...]]]] = []
        self.conj_down: list[tuple[int, ...]] = []
        self.forall_down: list[tuple[str, int] | None] = []
        self.exists_up: dict[tuple[str, int], int] = {}
        self.forall_up: dict[tuple[str, int], int] = {}
        self.closed_foralls: dict[str, list[int]] = {}
        self.concrete_nodes: list[int] = []
        # gci: (inclusion, scaled cap = 1 - degree, rhs row, scaled degree)
        self.gcis_by_lhs: list[list[tuple[FuzzyGci, int, int, int]]] = []
        self.bottom_by_conjunct: list[list[tuple[FuzzyGci, int, tuple[int, ...]]]] = []
        self._add_expressions(build_closure(kb))
        self._index_gcis()

    # -- indexes: by expression id, or individual id for role edges; an
    # entry names an expression by its row x * n, so individual a's bound
    # in it is row + a

    def _index_roles(self) -> None:
        individual = self.individual_ids
        self.fillers: dict[tuple[int, str], list[int]] = {}
        self.pointing_at: list[list[tuple[int, str]]] = [[] for _ in self.names]
        self.role_fact: dict[tuple[int, int, str], object] = {}
        for ra in self.kb.role_assertions:
            subject, filler = individual[ra.subject], individual[ra.filler]
            key = (subject, ra.role)
            if filler not in self.fillers.setdefault(key, []):
                self.fillers[key].append(filler)
                self.pointing_at[filler].append(key)
                self.role_fact[(subject, filler, ra.role)] = ra

        self.values_by_role: dict[str, list[tuple[int, object]]] = {}
        for cf in self.kb.concrete_facts:
            self.values_by_role.setdefault(cf.role, []).append((individual[cf.subject], cf))

    def _add_expressions(self, exprs: Sequence[ConceptExpression]) -> set[int]:
        """Number ``exprs`` after the closure, with default bounds and their index entries.

        Every table is replaced rather than changed in place, so an engine
        this one was copied from keeps its own.  Returns the expressions
        whose bounds trigger a newly indexed rule.
        """
        first, n = len(self.closure), self.n
        new = range(first, first + len(exprs))
        self.closure += tuple(exprs)
        self.expr_ids = ids = {**self.expr_ids, **dict(zip(exprs, new))}
        self.lo = self.lo + [0] * (n * len(new))
        self.hi = self.hi + [self.scale] * (n * len(new))
        self.neg_partners, self.conj_parents, self.disj_parents = (
            [list(entries) for entries in table] + [[] for _ in new]
            for table in (self.neg_partners, self.conj_parents, self.disj_parents)
        )
        self.conj_down = self.conj_down + [()] * len(new)
        self.forall_down = self.forall_down + [None] * len(new)
        self.gcis_by_lhs = self.gcis_by_lhs + [[] for _ in new]
        self.bottom_by_conjunct = self.bottom_by_conjunct + [[] for _ in new]
        self.exists_up, self.forall_up = dict(self.exists_up), dict(self.forall_up)
        self.closed_foralls = {role: list(nodes) for role, nodes in self.closed_foralls.items()}
        self.concrete_nodes = list(self.concrete_nodes)
        triggers: set[int] = set()
        for x in new:
            e, row = self.closure[x], x * n
            if isinstance(e, Not):
                body = ids[e.body]
                self.neg_partners[body].append(row)
                self.neg_partners[x].append(body * n)
                triggers.add(body)
            elif isinstance(e, (And, Or)):
                parts = tuple(ids[c] for c in e.parts)
                rows = tuple(c * n for c in parts)
                parents = self.conj_parents if isinstance(e, And) else self.disj_parents
                for c in parts:
                    parents[c].append((row, rows))
                triggers.update(parts)
                if isinstance(e, And):
                    self.conj_down[x] = rows
            elif isinstance(e, Exists):
                if isinstance(e.target, ConcretePredicate):
                    self.concrete_nodes.append(x)
                else:
                    self.exists_up[(e.role, ids[e.target])] = row
                    triggers.add(ids[e.target])
            elif isinstance(e, Forall):
                self.forall_down[x] = (e.role, ids[e.body] * n)
                decl = self.kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, ids[e.body])] = row
                    self.closed_foralls.setdefault(e.role, []).append(x)
                    triggers.add(ids[e.body])
        # expressions whose lower bound on a filler can move a quantifier
        self.quantified = {target for _, target in self.exists_up} | {body for _, body in self.forall_up}
        return triggers

    def _index_gcis(self) -> None:
        ids, n = self.expr_ids, self.n
        self.bottom_simple: list[tuple[FuzzyGci, int]] = []
        for gci in self.kb.gcis:
            degree = gci.degree.numerator * (self.scale // gci.degree.denominator)
            cap = self.scale - degree
            if gci.rhs == BOTTOM:
                if isinstance(gci.lhs, And):
                    parts = [ids[c] for c in gci.lhs.parts]
                    rows = tuple(c * n for c in parts)
                    for c in set(parts):
                        self.bottom_by_conjunct[c].append((gci, cap, rows))
                else:
                    self.bottom_simple.append((gci, cap))
            else:
                self.gcis_by_lhs[ids[gci.lhs]].append((gci, cap, ids[gci.rhs] * n, degree))

    # -- bound updates

    def _conflict(self, b: int) -> Conflict:
        # The losing side's current bound must itself be derived: a default
        # bound (0 or 1) can never be crossed by a value inside [0, 1].
        x, a = divmod(b, self.n)
        ind, expr = self.names[a], self.closure[x]
        derivations = _Derivations(self)
        lo = _explanation(derivations, (ind, expr, "lo"))
        hi = _explanation(derivations, (ind, expr, "hi"))
        return Conflict(ind, expr, lo.value, hi.value, lo, hi)

    def set_lo(
        self, b: int, value: int, rule: str, premises: tuple[int, ...], source: object | None = None, note: str = ""
    ) -> None:
        if value <= self.lo[b]:
            return
        self.step += 1
        self.records[b] = (rule, value, premises, source, note, self.step)
        if value > self.hi[b]:
            raise InconsistencyError(self._conflict(b))
        self.lo[b] = value
        self.queue.append(b)

    def set_hi(
        self, b: int, value: int, rule: str, premises: tuple[int, ...], source: object | None = None, note: str = ""
    ) -> None:
        if value >= self.hi[b]:
            return
        self.step += 1
        self.records[~b] = (rule, value, premises, source, note, self.step)
        if value < self.lo[b]:
            raise InconsistencyError(self._conflict(b))
        self.hi[b] = value
        self.queue.append(~b)

    # -- seeds

    def seed(self, first: int = 0) -> None:
        """Set the bounds no rule derives from other bounds.

        With ``first`` > 0 only expressions from id ``first`` on are seeded
        (an extension's new ones): statements were seeded with the rest.
        """
        n, scale, ids = self.n, self.scale, self.expr_ids
        if not first:
            top, bottom = ids[TOP] * n, ids[BOTTOM] * n
            for a in range(n):
                self.set_lo(top + a, scale, "top", ())
                self.set_hi(bottom + a, 0, "bottom", ())
            for fa in self.kb.assertions:
                b = ids[fa.concept] * n + self.individual_ids[fa.individual]
                self.set_lo(b, fa.degree.numerator * (scale // fa.degree.denominator), "assertion", (), source=fa)
        for x in self.concrete_nodes:
            if x < first:
                continue
            node = self.closure[x]
            for a, cf in self.values_by_role.get(node.role, ()):
                hit = node.target.evaluate(cf.value)  # type: ignore[union-attr]
                if hit == ONE:
                    self.set_lo(x * n + a, scale, "concrete", (), source=cf)
                else:
                    self.set_hi(x * n + a, 0, "concrete", (), source=cf)
        if not first:
            for gci, cap in self.bottom_simple:
                lhs = ids[gci.lhs] * n
                for a in range(n):
                    self.set_hi(lhs + a, cap, "disjoint", (), source=gci)
        for role, nodes in self.closed_foralls.items():
            for x in nodes:
                if x < first:
                    continue
                for a in range(n):
                    if not self.fillers.get((a, role)):
                        self.set_lo(x * n + a, scale, "forall-up", (), note="closed role with no fillers")

    # -- propagation
    #
    # Each rule below first checks whether its candidate can improve the
    # bound it targets and only then builds premises and a witness: most
    # firings improve nothing, and set_lo/set_hi would drop them anyway.

    def run(self) -> "_Saturation":
        self.seed()
        self.propagate()
        return self

    def extended(self, e: ConceptExpression) -> "_Saturation":
        """A copy of this saturated engine with ``e`` added, resumed to the new fixpoint.

        See Extensions in the module docstring.  The copy writes its records
        over a view of these, and no list, record or table of this engine
        changes.
        """
        new = _close([e], set(self.expr_ids)).difference(self.expr_ids)
        child = object.__new__(_Saturation)  # a shallow copy
        vars(child).update(vars(self))
        child.records = ChainMap({}, self.records)
        child.queue = deque()
        first, n, scale = len(self.closure), self.n, self.scale
        triggers = child._add_expressions(sorted(new, key=sort_key))
        child.seed(first)
        lo, hi, queue = child.lo, child.hi, child.queue
        # a bound still at its default (0 below, 1 above) moves no rule's conclusion
        for x in sorted(t for t in triggers if t < first):
            for b in range(x * n, x * n + n):
                if lo[b]:
                    queue.append(b)
                if hi[b] != scale:
                    queue.append(~b)
        child.propagate()
        return child

    def propagate(self) -> None:
        queue = self.queue
        while queue:
            b = queue.popleft()
            if b >= 0:
                self._lo_changed(b)
            else:
                self._hi_changed(~b)

    def _lo_changed(self, b: int) -> None:
        x, a = divmod(b, self.n)
        lo = self.lo
        value = lo[b]
        premise = (b,)
        for partner in self.neg_partners[x]:
            self.set_hi(partner + a, self.scale - value, "negation", premise)
        for parent, parts in self.conj_parents[x]:
            current = lo[parent + a]
            if value <= current:
                continue  # the minimum over the parts is at most value
            candidate = min(lo[c + a] for c in parts)
            if candidate > current:
                self.set_lo(parent + a, candidate, "conj-up", tuple(c + a for c in parts))
        for parent, parts in self.disj_parents[x]:
            candidate = max(lo[c + a] for c in parts)
            if candidate > lo[parent + a]:
                witness = next(c for c in parts if lo[c + a] == candidate)
                self.set_lo(parent + a, candidate, "disj-up", (witness + a,))
        for c in self.conj_down[x]:
            self.set_lo(c + a, value, "conj-down", premise)
        if self.forall_down[x] is not None:
            role, body = self.forall_down[x]
            for f in self.fillers.get((a, role), ()):
                self.set_lo(body + f, value, "forall-down", premise, source=self.role_fact[(a, f, role)])
        if x in self.quantified:
            self._quantifiers_up(a, x, value)
        for gci, cap, rhs, degree in self.gcis_by_lhs[x]:
            if lo[b] > cap:  # live: an inclusion of e into itself raises it
                self.set_lo(rhs + a, degree, "gci", premise, source=gci)
        for gci, cap, parts in self.bottom_by_conjunct[x]:
            self._apply_disjoint(a, gci, cap, parts)

    def _quantifiers_up(self, a: int, x: int, value: int) -> None:
        # individual a's lower bound in expression x rose: revisit the
        # quantifiers over x on every role edge that ends at a.
        lo, row = self.lo, x * self.n
        for subject, role in self.pointing_at[a]:
            node = self.exists_up.get((role, x))
            if node is not None:
                fils = self.fillers[(subject, role)]
                candidate = max(lo[row + f] for f in fils)
                if candidate > lo[node + subject]:
                    witness = next(f for f in fils if lo[row + f] == candidate)
                    self.set_lo(
                        node + subject, candidate, "exists-up", (row + witness,),
                        source=self.role_fact[(subject, witness, role)],
                    )
            node = self.forall_up.get((role, x))
            if node is not None:
                current = lo[node + subject]
                if value <= current:
                    continue  # the minimum over the fillers is at most value
                fils = self.fillers[(subject, role)]
                candidate = min(lo[row + f] for f in fils)
                if candidate > current:
                    self.set_lo(
                        node + subject, candidate, "forall-up", tuple(row + f for f in fils),
                        note="closed role: the listed fillers are all fillers",
                    )

    def _apply_disjoint(self, a: int, gci: FuzzyGci, cap: int, parts: tuple[int, ...]) -> None:
        # A conjunct is capped once every other conjunct exceeds the cap.
        above = [self.lo[c + a] > cap for c in parts]
        below = above.count(False)
        if below > 1:
            return
        for j, cj in enumerate(parts):
            if below == 1 and above[j]:
                continue
            if cap < self.hi[cj + a]:
                others = parts[:j] + parts[j + 1 :]
                self.set_hi(cj + a, cap, "disjoint", tuple(c + a for c in others), source=gci)

    def _hi_changed(self, b: int) -> None:
        x, a = divmod(b, self.n)
        hi = self.hi
        value = hi[b]
        for partner in self.neg_partners[x]:
            self.set_lo(partner + a, self.scale - value, "negation", (~b,))
        for parent, parts in self.conj_parents[x]:
            candidate = min(hi[c + a] for c in parts)
            if candidate < hi[parent + a]:
                witness = next(c for c in parts if hi[c + a] == candidate)
                self.set_hi(parent + a, candidate, "conj-hi", (~(witness + a),))
        for parent, parts in self.disj_parents[x]:
            current = hi[parent + a]
            if value >= current:
                continue  # the maximum over the parts is at least value
            candidate = max(hi[c + a] for c in parts)
            if candidate < current:
                self.set_hi(parent + a, candidate, "disj-hi", tuple(~(c + a) for c in parts))


# --------------------------------------------------------------------------
# Public API


class SaturatedKb:
    """A knowledge base together with its saturated bounds, built from the engine that saturated it.

    ``_engine`` is the saturation that reached the fixpoint, kept so that
    an extension can resume from it.  Closure expression ``x`` and
    individual ``i`` (in ``kb.individuals`` order) own its bound
    ``b = x * n + i``, whose scaled degrees ``lo[b]`` and ``hi[b]`` become a
    :class:`DegreeInterval` on demand, one per distinct pair, kept by the
    engine.  ``_derivations`` reads the compact record of each improved
    bound by ``(individual, expression, side)`` and builds its
    :class:`DerivationNode` on first read.  ``_extensions`` memoizes the
    saturations with one out-of-closure query expression added, by
    expression.  Equality is identity.
    """

    def __init__(self, engine: _Saturation):
        self.kb = engine.kb
        self.closure = engine.closure
        self._derivations: Mapping[Key, DerivationNode] = _Derivations(engine)
        self._engine = engine
        self._extensions: dict[ConceptExpression, SaturatedKb] = {}

    def interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed interval for an in-closure expression (no extension)."""
        i = self._check_individual(individual)
        e = normalize(expr)
        x = self._engine.expr_ids.get(e)
        if x is None:
            raise FdlbError(f"{_describe(e)} is outside the saturated closure; use instance_interval")
        return self._interval(x * self._engine.n + i)

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in any concept.

        Expressions outside the closure are answered by an extension (see
        the module docstring), which never loosens anything already
        entailed and is memoized per expression, for any individual.  If
        the query exposes a contradiction the knowledge base was
        inconsistent all along and :class:`InconsistencyError` is raised.
        """
        i = self._check_individual(individual)
        e = normalize(expr)
        x = self._engine.expr_ids.get(e)
        if x is not None:
            return self._interval(x * self._engine.n + i)
        return self._extension(e).interval(individual, e)

    def entailed_lower_bound(self, individual: str, expr: ConceptExpression) -> Fraction | None:
        """The entailed lower membership bound, or None when undecided.

        Undecided means the knowledge base says nothing at all: the
        entailed interval is exactly the vacuous [0, 1].
        """
        interval = self.instance_interval(individual, expr)
        if interval == FULL_INTERVAL:
            return None
        return interval.lo

    def interval_map(self) -> dict[tuple[str, ConceptExpression], DegreeInterval]:
        """All non-vacuous entailed intervals, keyed by (individual, expression)."""
        n, lo, hi, scale = self._engine.n, self._engine.lo, self._engine.hi, self._engine.scale
        return {
            (name, expr): self._interval(x * n + i)
            for i, name in enumerate(self.kb.individuals)
            for x, expr in enumerate(self.closure)
            if lo[x * n + i] or hi[x * n + i] != scale
        }

    def explain(self, individual: str, expr: ConceptExpression, kind: Bound = "lo") -> Explanation:
        """The derivations behind one bound, each listed once.

        Out-of-closure expressions are explained from the same memoized
        extension :meth:`instance_interval` uses (see the module docstring).
        Raises :class:`NoDerivationError` when the bound is still at its
        default (0 from below, 1 from above) — there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        self._check_individual(individual)
        e = normalize(expr)
        if e not in self._engine.expr_ids:
            return self._extension(e).explain(individual, e, kind)
        key = (individual, e, kind)
        if key not in self._derivations:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(e)}"
            )
        return _explanation(self._derivations, key)

    def _interval(self, b: int) -> DegreeInterval:
        engine = self._engine
        lo, hi = engine.lo[b], engine.hi[b]
        interval = engine.intervals.get((lo, hi))
        if interval is None:
            interval = engine.intervals[lo, hi] = DegreeInterval(engine.fractions[lo], engine.fractions[hi])
        return interval

    def _extension(self, e: ConceptExpression) -> "SaturatedKb":
        extended = self._extensions.get(e)
        if extended is None:
            check_concept_roles(e, self.kb.roles, "query")
            extended = self._extensions[e] = SaturatedKb(self._engine.extended(e))
        return extended

    def _check_individual(self, individual: str) -> int:
        i = self._engine.individual_ids.get(individual)
        if i is None:
            raise UnknownIndividualError(f"individual {individual!r} does not occur in the knowledge base")
        return i


class _Derivations(Mapping[Key, DerivationNode]):
    """A saturation's records read as derivation nodes, by (individual, expression, side).

    A record becomes a :class:`DerivationNode` on its first read, and that
    node is kept.  Iteration follows the order bounds were first improved.
    """

    def __init__(self, engine: _Saturation):
        self._records = engine.records
        self._names, self._closure, self._fractions, self._n = engine.names, engine.closure, engine.fractions, engine.n
        self._individual_ids, self._expr_ids = engine.individual_ids, engine.expr_ids
        self._nodes: dict[int, DerivationNode] = {}

    def _signed(self, key: object) -> int | None:
        if not (isinstance(key, tuple) and len(key) == 3):
            return None
        individual, expr, kind = key
        a, x = self._individual_ids.get(individual), self._expr_ids.get(expr)
        if a is None or x is None or kind not in ("lo", "hi"):
            return None
        b = x * self._n + a
        return b if kind == "lo" else ~b

    def _key(self, s: int) -> Key:
        x, a = divmod(s if s >= 0 else ~s, self._n)
        return (self._names[a], self._closure[x], "lo" if s >= 0 else "hi")

    def __getitem__(self, key: Key) -> DerivationNode:
        s = self._signed(key)
        if s not in self._records:
            raise KeyError(key)
        node = self._nodes.get(s)
        if node is None:
            rule, value, premises, source, note, step = self._records[s]
            node = self._nodes[s] = DerivationNode(
                rule, *self._key(s), self._fractions[value], tuple(map(self._key, premises)), source, note, step
            )
        return node

    def __iter__(self) -> Iterator[Key]:
        return map(self._key, self._records)

    def __len__(self) -> int:
        return len(self._records)


def _describe(expr: ConceptExpression) -> str:
    return f"concept '{render_concept(expr)}'"


def _explanation(derivations: Mapping[Key, DerivationNode], key: Key) -> Explanation:
    """Every derivation reachable from ``key``, once each, in depth-first order."""
    steps: list[DerivationNode] = []
    seen: set[Key] = set()
    stack = [key]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        node = derivations[current]
        steps.append(node)
        stack.extend(reversed(node.premises))
    root = steps[0]
    return Explanation(root.individual, root.expr, root.kind, root.value, tuple(steps))


def saturate(kb: KnowledgeBase) -> SaturatedKb:
    """Run saturation to its fixpoint.

    Returns the saturated knowledge base, or raises
    :class:`InconsistencyError` as soon as any membership interval becomes
    empty; its ``conflict`` holds the two clashing derivations.
    """
    return SaturatedKb(_Saturation(kb).run())


def check_consistency(kb: KnowledgeBase) -> Conflict | None:
    """Saturate without raising: the :class:`Conflict` found, or None when consistent."""
    try:
        saturate(kb)
    except InconsistencyError as exc:
        return exc.conflict
    return None

