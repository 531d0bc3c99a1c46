"""Interval entailment for fuzzy knowledge bases.

Saturation computes, for every individual and every concept expression in
the knowledge base's closure, an interval of membership degrees that is
guaranteed in every model.  Bounds only ever tighten (the rules are
monotone), every rule is sound under min/max/complement semantics with
graded inclusions read as ``max(1 - lhs(x), rhs(x)) >= degree``, and the
result is the least fixpoint — independent of statement order.

Only lower bounds are derived.  Under min/max/``1 - x`` semantics the
upper bound of an expression is one minus the lower bound of its ``NOT``
(its dual, in negation normal form), so ``hi(e) = 1 - lo(NOT e)``, and a
clash is ``lo(e) + lo(NOT e) > 1``.  Rules, by the name recorded on each
derivation:

* ``top`` — the universal class is pinned at 1, and so the empty class,
  its dual, at 0.
* ``assertion`` — an asserted membership is a lower bound.
* ``concrete`` — a known quantity decides a threshold restriction crisply:
  the restriction is raised to 1 when it holds, its ``NOT`` when it fails.
* ``conj-up`` / ``conj-down`` — a conjunction sits at least at the minimum
  of its conjuncts; its lower bound passes down to each conjunct.
* ``disj-up`` — a disjunction sits at least at the maximum of its
  disjuncts.
* ``exists-up`` — a named filler witnesses an existential from below.
* ``forall-down`` — a value restriction's lower bound passes to fillers.
* ``forall-up`` — on a closed role the filler set is complete, so the
  minimum over fillers bounds the restriction from below (1 when empty).
* ``gci`` — from ``max(1 - C(x), D(x)) >= t``: once ``C(x)`` is known to
  exceed ``1 - t``, ``D(x) >= t`` follows.
* ``disjoint`` — an inclusion with an empty right side caps its left side
  at ``1 - t``, by raising the left side's ``NOT`` to ``t``; for a
  conjunctive left side, once all but one conjunct exceed ``1 - t``, the
  remaining one is capped.

On the dual, each rule also bounds from above: ``disj-up`` on ``NOT A OR
NOT B`` caps ``A AND B`` at the least of its conjuncts' caps, ``conj-up``
on a dual caps a disjunction at the greatest, ``conj-down`` on a dual caps
each disjunct of a capped disjunction, ``exists-up`` on ``EXISTS r . NOT
C`` caps ``FORALL r . C`` at the least cap of a filler, ``forall-down`` on
``FORALL r . NOT C`` caps each filler's ``C`` at the cap of ``EXISTS r .
C``, and ``forall-up`` on a closed role caps ``EXISTS r . C`` at the
greatest cap of a filler (0 when there is none).

Inclusions never propagate right-to-left (no contrapositive rule): what the
knowledge base does not determine stays at the vacuous interval [0, 1]
rather than being guessed.

Closure: the pinned classes, the axiom sides and asserted concepts, and all
they reach through subexpressions and ``NOT`` (:class:`~fdlb.model.Not`
builds negation normal form, so ``NOT`` of any closure expression is its
dual, and the dual of that is the expression again).  Expressions are
interned and built in normal form, so building it is one worklist of
identity lookups, and a query names its closure row as it is given.

Bound storage: closure expression ``x`` and individual ``i`` (in
``kb.individuals`` order) own the bound ``b = x * n + i``, ``n`` being the
number of individuals, held in one flat integer list ``lo[b]`` as degrees
scaled by ``L``, the least common denominator of the base's asserted and
inclusion degrees.  Saturation only reaches 0, 1, those degrees and their
complements, so every bound is an exact integer and ``1 - x`` is ``L -
v``.  ``dual_rows[x]`` is the row of ``NOT closure[x]``, so the upper
bound of ``b`` is ``L - lo[dual_rows[x] + i]``.  Rules are triggered
through indexes by expression id, and the worklist holds the bounds that
rose.  Each improvement overwrites one compact record under its bound —
rule, scaled value, premises as bounds, source, note and step number; that
record also explains the upper bound of the dual.  :class:`SaturatedKb`
keeps the list and the records, and builds a :class:`DegreeInterval` only
when a query first returns its pair of bounds and a
:class:`DerivationNode`, with its exact :class:`~fractions.Fraction`
value, only when an explanation, a conflict or ``_derivations`` reads it.

Extensions: a query on an expression outside the closure grows the
saturation in place instead of re-running it.  The closure expressions the
query adds are numbered after the old ones, so every old bound, record and
premise keeps its number; they get index entries and seeds of their own,
the old lower bounds that trigger a rule concluding a new expression are
queued again, and the worklist runs from the old fixpoint to the new one.  The
rules are monotone and the old bounds lie below the least fixpoint of the
larger rule set, so the bounds equal those of a fresh saturation of the
base with every query so far asserted at degree 0, in any order (the
additions-only case of Kazakov & Klinov, *Incremental Reasoning in OWL EL
without Bookkeeping*, ISWC 2013).  The query's expressions stay in the
closure, step numbers continue across queries, and the derivation recorded
for a bound may differ from a fresh run's.  An attribute no statement
mentions costs its two closure entries and no derivation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
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

    One worklist: each expression not seen yet is walked once, and its ``NOT`` queued.  Returns ``seen``.
    """
    while todo:
        todo += map(Not, sub_expressions(todo.pop(), seen))
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
        # (lo, hi) scaled -> its DegreeInterval, built on the first query that returns it
        self.intervals = {(0, scale): FULL_INTERVAL}
        # bound -> (rule, scaled value, premises, source, note, step) of its latest improvement
        self.records: dict[int, tuple] = {}
        self.queue: deque[int] = deque()  # bounds whose lower bound rose
        self.step = 0
        self._index_roles()
        self.closure: tuple[ConceptExpression, ...] = ()
        self.expr_ids: dict[ConceptExpression, int] = {}
        self.lo: list[int] = []
        self.dual_rows: list[int] = []  # x -> the row of NOT closure[x]
        self.conj_parents: list[list[tuple[int, tuple[int, ...]]]] = []
        self.disj_parents: list[list[tuple[int, tuple[int, ...]]]] = []
        self.conj_down: list[tuple[int, ...]] = []
        self.forall_down: list[tuple[str, int] | None] = []
        self.exists_up: dict[tuple[str, int], int] = {}
        self.forall_up: dict[tuple[str, int], int] = {}
        self.closed_foralls: dict[str, list[int]] = {}
        self.concrete_nodes: list[int] = []
        # expressions whose lower bound on a filler can move a quantifier
        self.quantified: set[int] = set()
        # gci: (inclusion, scaled cap = 1 - degree, rhs row, scaled degree)
        self.gcis_by_lhs: list[list[tuple[FuzzyGci, int, int, int]]] = []
        # disjoint: (inclusion, cap, conjunct rows, their dual rows)
        self.bottom_by_conjunct: list[list[tuple[FuzzyGci, int, tuple[int, ...], tuple[int, ...]]]] = []
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

        Returns the expressions whose bounds trigger a newly indexed rule.
        """
        first, n = len(self.closure), self.n
        new = range(first, first + len(exprs))
        self.closure += tuple(exprs)
        ids = self.expr_ids
        ids.update(zip(exprs, new))
        self.lo += [0] * (n * len(new))
        self.dual_rows += [ids[Not(e)] * n for e in exprs]
        for table in (self.conj_parents, self.disj_parents, self.gcis_by_lhs, self.bottom_by_conjunct):
            table += ([] for _ in new)
        self.conj_down += [()] * len(new)
        self.forall_down += [None] * len(new)
        triggers: set[int] = set()
        for x in new:
            e, row = self.closure[x], x * n
            if isinstance(e, (And, Or)):
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
                    self.quantified.add(ids[e.target])
                    triggers.add(ids[e.target])
            elif isinstance(e, Forall):
                self.forall_down[x] = (e.role, ids[e.body] * n)
                decl = self.kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, ids[e.body])] = row
                    self.closed_foralls.setdefault(e.role, []).append(x)
                    self.quantified.add(ids[e.body])
                    triggers.add(ids[e.body])
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
                    entry = (gci, cap, tuple(c * n for c in parts), tuple(self.dual_rows[c] for c in parts))
                    for c in parts:
                        self.bottom_by_conjunct[c].append(entry)
                else:
                    self.bottom_simple.append((gci, degree))
            else:
                self.gcis_by_lhs[ids[gci.lhs]].append((gci, cap, ids[gci.rhs] * n, degree))

    # -- bound updates

    def dual_bound(self, b: int) -> int:
        """The bound of the same individual in the dual expression."""
        x, a = divmod(b, self.n)
        return self.dual_rows[x] + a

    def _conflict(self, b: int) -> Conflict:
        # lo(e) + lo(NOT e) > 1 holds only when both bounds rose, so both have records
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
        d = self.dual_bound(b)
        if value + self.lo[d] > self.scale:  # reported on whichever of the pair comes first in the closure
            raise InconsistencyError(self._conflict(min(b, d)))
        self.lo[b] = value
        self.queue.append(b)

    # -- seeds

    def seed(self, first: int = 0) -> None:
        """Set the bounds no rule derives from other bounds.

        With ``first`` > 0 only expressions from id ``first`` on are seeded
        (an extension's new ones): statements were seeded with the rest.
        """
        n, scale, ids = self.n, self.scale, self.expr_ids
        if not first:
            top = ids[TOP] * n
            for a in range(n):
                self.set_lo(top + a, scale, "top", ())
            for fa in self.kb.assertions:
                b = ids[fa.concept] * n + self.individual_ids[fa.individual]
                self.set_lo(b, fa.degree.numerator * (scale // fa.degree.denominator), "assertion", (), source=fa)
        for x in self.concrete_nodes:
            if x < first:
                continue
            node = self.closure[x]
            for a, cf in self.values_by_role.get(node.role, ()):
                hit = node.target.evaluate(cf.value)  # type: ignore[union-attr]
                row = x * n if hit == ONE else self.dual_rows[x]
                self.set_lo(row + a, scale, "concrete", (), source=cf)
        if not first:
            for gci, degree in self.bottom_simple:
                capped = self.dual_rows[ids[gci.lhs]]
                for a in range(n):
                    self.set_lo(capped + a, degree, "disjoint", (), source=gci)
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
    # firings improve nothing, and set_lo would drop them anyway.

    def run(self) -> "_Saturation":
        self.seed()
        self.propagate()
        return self

    def extend(self, e: ConceptExpression) -> None:
        """Add ``e`` and all it reaches to the closure, and propagate to the new fixpoint.

        See Extensions in the module docstring.  Raises
        :class:`InconsistencyError` on a clash, leaving the engine part-way.
        """
        new = _close([e], set(self.expr_ids)).difference(self.expr_ids)
        first, n = len(self.closure), self.n
        triggers = self._add_expressions(sorted(new, key=sort_key))
        self.seed(first)
        lo = self.lo
        # a lower bound still at its default 0 moves no rule's conclusion
        for x in sorted(t for t in triggers if t < first):
            self.queue.extend(b for b in range(x * n, x * n + n) if lo[b])
        self.propagate()

    def propagate(self) -> None:
        queue = self.queue
        while queue:
            self._lo_changed(queue.popleft())

    def _lo_changed(self, b: int) -> None:
        x, a = divmod(b, self.n)
        lo = self.lo
        value = lo[b]
        premise = (b,)
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
        for gci, cap, parts, duals in self.bottom_by_conjunct[x]:
            self._apply_disjoint(a, gci, cap, parts, duals)

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

    def _apply_disjoint(self, a: int, gci: FuzzyGci, cap: int, parts: tuple[int, ...], duals: tuple[int, ...]) -> None:
        # A conjunct is capped (its dual raised to 1 - cap) once every other conjunct exceeds the cap.
        degree = self.scale - cap
        above = [self.lo[c + a] > cap for c in parts]
        below = above.count(False)
        if below > 1:
            return
        for j, dual in enumerate(duals):
            if below == 1 and above[j]:
                continue
            if degree > self.lo[dual + a]:
                others = parts[:j] + parts[j + 1 :]
                self.set_lo(dual + a, degree, "disjoint", tuple(c + a for c in others), source=gci)


# --------------------------------------------------------------------------
# Public API


class SaturatedKb:
    """A knowledge base together with its saturated bounds, built from the engine that saturated it.

    Its answers are :meth:`instance_interval` and :meth:`explain`;
    ``closure`` shows which expressions hold bounds.  ``_engine`` is the
    saturation that reached the fixpoint, kept so that a query outside the
    closure can grow it (see Extensions in the module docstring):
    ``closure`` then includes the query's expressions, and the engine's step
    numbers continue.  Closure expression ``x`` and individual ``i`` (in
    ``kb.individuals`` order) own the bound ``b = x * n + i``, whose scaled
    lower bound ``lo[b]`` and upper bound (one minus the lower bound of the
    dual) become a :class:`DegreeInterval` on demand, one per distinct pair,
    kept by the engine.  ``_derivations`` reads the compact record of each
    improved bound by ``(individual, expression, side)``, an upper bound
    through its dual's record, and builds its :class:`DerivationNode` on
    first read.  A clash found while growing is kept in ``_clash`` and raised
    again by every later query.  Equality is identity.
    """

    def __init__(self, engine: _Saturation):
        self.kb = engine.kb
        self._derivations: Mapping[Key, DerivationNode] = _Derivations(engine)
        self._engine = engine
        self._clash: InconsistencyError | None = None

    @property
    def closure(self) -> tuple[ConceptExpression, ...]:
        """The expressions with bounds, in row order; a query outside them adds its own."""
        return self._engine.closure

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in any concept.

        An expression outside the closure first grows it (see the module
        docstring), which never loosens anything already entailed.  If the
        query exposes a contradiction the knowledge base was inconsistent
        all along and :class:`InconsistencyError` is raised, by this query
        and every later one.  The interval is :data:`~fdlb.model.FULL_INTERVAL`
        exactly when the knowledge base says nothing about the membership.
        """
        b = self._grow(individual, expr)
        engine = self._engine
        lo, hi = engine.lo[b], engine.scale - engine.lo[engine.dual_bound(b)]
        interval = engine.intervals.get((lo, hi))
        if interval is None:
            interval = engine.intervals[lo, hi] = DegreeInterval(engine.fractions[lo], engine.fractions[hi])
        return interval

    def explain(self, individual: str, expr: ConceptExpression, kind: Bound = "lo") -> Explanation:
        """The derivations behind one bound, each listed once.

        An expression outside the closure first grows it, as in
        :meth:`instance_interval`.  Raises :class:`NoDerivationError` when
        the bound is still at its default (0 from below, 1 from above) —
        there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        self._grow(individual, expr)
        key = (individual, expr, kind)
        if key not in self._derivations:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(expr)}"
            )
        return _explanation(self._derivations, key)

    def _grow(self, individual: str, expr: ConceptExpression) -> int:
        """The individual's bound in ``expr``, after checking the individual and growing the closure by ``expr``."""
        engine = self._engine
        if self._clash is not None:
            raise self._clash.with_traceback(None)  # each raise would otherwise add its frames
        i = engine.individual_ids.get(individual)
        if i is None:
            raise UnknownIndividualError(f"individual {individual!r} does not occur in the knowledge base")
        x = engine.expr_ids.get(expr)
        if x is None:
            check_concept_roles(expr, self.kb.roles, "query")
            try:
                engine.extend(expr)
            except InconsistencyError as clash:
                self._clash = clash
                raise
            x = engine.expr_ids[expr]
        return x * engine.n + i


class _Derivations(Mapping[Key, DerivationNode]):
    """A saturation's records read as derivation nodes, by (individual, expression, side).

    Each record is a lower bound, and also the upper bound ``1 - v`` of the
    same individual in the dual expression: that node carries the record's
    rule, source and premises.  A record becomes a :class:`DerivationNode`
    on its first read, and that node is kept.  Iteration follows the order
    bounds were first improved, each record's lower bound before its upper.
    """

    def __init__(self, engine: _Saturation):
        # the engine, not its closure and ids: a query outside the closure grows them
        self._engine = engine
        self._nodes: dict[int, DerivationNode] = {}

    def _signed(self, key: object) -> int | None:
        """``b`` for the lower bound ``b``; ``~b`` for its upper bound, held by the record of the dual bound."""
        if not (isinstance(key, tuple) and len(key) == 3):
            return None
        individual, expr, kind = key
        a, x = self._engine.individual_ids.get(individual), self._engine.expr_ids.get(expr)
        if a is None or x is None or kind not in ("lo", "hi"):
            return None
        b = x * self._engine.n + a
        return b if kind == "lo" else ~b

    def _key(self, s: int) -> Key:
        x, a = divmod(s if s >= 0 else ~s, self._engine.n)
        return (self._engine.names[a], self._engine.closure[x], "lo" if s >= 0 else "hi")

    def __getitem__(self, key: Key) -> DerivationNode:
        s = self._signed(key)
        engine = self._engine
        record = None if s is None else engine.records.get(s if s >= 0 else engine.dual_bound(~s))
        if record is None:
            raise KeyError(key)
        node = self._nodes.get(s)
        if node is None:
            rule, value, premises, source, note, step = record
            value = engine.fractions[value if s >= 0 else engine.scale - value]
            node = self._nodes[s] = DerivationNode(
                rule, *self._key(s), value, tuple(map(self._key, premises)), source, note, step
            )
        return node

    def __iter__(self) -> Iterator[Key]:
        for b in self._engine.records:
            yield self._key(b)
            yield self._key(~self._engine.dual_bound(b))

    def __len__(self) -> int:
        return 2 * len(self._engine.records)


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

