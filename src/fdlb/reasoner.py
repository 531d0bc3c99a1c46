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
through indexes by expression id.  The worklist holds the bounds that rose
in a *live* row, one that some rule reads (``live[x]``: the row is a
conjunction, a value restriction, a part of a conjunction or disjunction,
a quantifier's filler concept, or an inclusion's left side or conjunct); a
bound in any other row, such as ``TOP``'s, is recorded but not queued, as
popping it would fire nothing.  Each improvement overwrites one compact
record under its bound — rule, scaled value, premises as bounds, source,
note and step number; that record also explains the upper bound of the
dual.  An explanation walks the records from a signed bound (``b`` for
the lower bound ``b``, ``~b`` for its upper bound) and only then builds
one :class:`DerivationNode` per step, with its exact
:class:`~fractions.Fraction` value and its premises as indices into the
explanation's ``steps``; this module alone maps bound numbers to
individuals, expressions and sides.  :class:`SaturatedKb` keeps the list
and the records, returns bounds as these integers to
:func:`~fdlb.decision.rank`, and builds a :class:`DegreeInterval` only
when :meth:`~SaturatedKb.instance_interval` returns one.

Extensions: a query on an expression outside the closure grows the
saturation in place instead of re-running it.  The closure expressions the
query adds are numbered after the old ones, so every old bound, record and
premise keeps its number; they get index entries and seeds of their own,
and the worklist runs from the old fixpoint to the new one.  An old row
that a new expression's rule reads (a part of a new conjunction, say) gains
that rule now: its bounds went through the old rules only, or were never
queued at all when the row was not yet live, so its raised lower bounds
are queued again, and the row is live from then on.  The rules are
monotone and the old bounds lie below the least fixpoint of the larger
rule set, so the bounds equal those of a fresh saturation of the
base with every query so far asserted at degree 0, in any order (the
additions-only case of Kazakov & Klinov, *Incremental Reasoning in OWL EL
without Bookkeeping*, ISWC 2013).  The query's expressions stay in the
closure, step numbers continue across queries, and the derivation recorded
for a bound may differ from a fresh run's.  An attribute no statement
mentions costs its two closure entries and no derivation.
"""

from collections import deque
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .kbtext import render_concept
from .model import (
    And,
    BOTTOM,
    COMPARISONS,
    ConceptExpression,
    ConcretePredicate,
    DegreeInterval,
    Exists,
    FdlbError,
    Forall,
    FuzzyGci,
    KnowledgeBase,
    Not,
    Or,
    TOP,
    check_concept_roles,
    sort_key,
    sub_expressions,
)

class UnknownIndividualError(FdlbError):
    """A query named an individual the knowledge base never mentions."""


class NoDerivationError(FdlbError):
    """The queried bound is still at its default; there is nothing to explain."""


class DerivationNode(NamedTuple):
    """One recorded bound improvement, as a step of an :class:`Explanation`.

    ``premises`` are the indices of its premises' steps in that
    explanation's ``steps``; ``source`` is the statement that licensed the
    step (an inclusion, an assertion, a role assertion, or a quantity
    fact), if any.  ``step`` is the global order in which improvements were
    recorded.
    """

    rule: str
    individual: str
    expr: ConceptExpression
    kind: str
    value: Fraction
    premises: tuple[int, ...]
    source: object | None = None
    note: str = ""
    step: int = 0


class Explanation(NamedTuple):
    """The derivations behind one bound, each listed once.

    ``steps[0]`` derives the explained bound itself; the rest are every
    derivation reachable from it through ``premises``, in depth-first
    order.  Each premise is an index into ``steps``: a premise that refers
    to an earlier step (a shared step, or a back-reference in a cycle) is
    not listed again.
    """

    individual: str
    expr: ConceptExpression
    kind: str
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
        # a degree d (a Fraction: see KnowledgeBase) is scaled where it is used, as
        # d.numerator * (scale // d.denominator), so no Fraction is hashed
        degrees = [*(fa.degree for fa in kb.assertions), *(g.degree for g in kb.gcis)]
        self.scale = lcm(*{d.denominator for d in degrees})
        # bound -> (rule, scaled value, premises, source, note, step) of its latest improvement
        self.records: dict[int, tuple] = {}
        self.queue: deque[int] = deque()  # bounds whose lower bound rose
        self.step = 0
        self._index_roles()
        self.closure: tuple[ConceptExpression, ...] = ()
        self.expr_ids: dict[ConceptExpression, int] = {}
        self.lo: list[int] = []
        self.dual_rows: list[int] = []  # x -> the row of NOT closure[x]
        self.live: list[bool] = []  # x -> some rule reads row x, so its raised bounds are queued
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
        # disjoint: (inclusion, cap, degree, conjunct rows, their dual rows)
        self.bottom_by_conjunct: list[list[tuple[FuzzyGci, int, int, tuple[int, ...], tuple[int, ...]]]] = []
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

        # role -> (individual, fact, numerator, denominator) of each value, for integer threshold tests
        self.values_by_role: dict[str, list[tuple[int, object, int, int]]] = {}
        for cf in self.kb.concrete_facts:
            entry = (individual[cf.subject], cf, cf.value.magnitude.numerator, cf.value.magnitude.denominator)
            self.values_by_role.setdefault(cf.role, []).append(entry)

    def _add_expressions(self, exprs: Sequence[ConceptExpression]) -> set[int]:
        """Number ``exprs`` after the closure, with default bounds and their index entries.

        Returns the expressions whose bounds trigger a newly indexed rule;
        they, and each new conjunction and value restriction, are live.
        """
        first, n = len(self.closure), self.n
        new = range(first, first + len(exprs))
        self.closure += tuple(exprs)
        ids = self.expr_ids
        ids.update(zip(exprs, new))
        self.lo += [0] * (n * len(new))
        self.dual_rows += [ids[Not(e)] * n for e in exprs]
        live = self.live
        live += [False] * len(new)
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
                    live[x] = True
            elif isinstance(e, Exists):
                if isinstance(e.target, ConcretePredicate):
                    self.concrete_nodes.append(x)
                else:
                    self.exists_up[(e.role, ids[e.target])] = row
                    self.quantified.add(ids[e.target])
                    triggers.add(ids[e.target])
            elif isinstance(e, Forall):
                self.forall_down[x] = (e.role, ids[e.body] * n)
                live[x] = True
                decl = self.kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, ids[e.body])] = row
                    self.closed_foralls.setdefault(e.role, []).append(x)
                    self.quantified.add(ids[e.body])
                    triggers.add(ids[e.body])
        for t in triggers:
            live[t] = True
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
                    entry = (gci, cap, degree, tuple(c * n for c in parts), tuple(self.dual_rows[c] for c in parts))
                    for c in parts:
                        self.bottom_by_conjunct[c].append(entry)
                        self.live[c] = True
                else:
                    self.bottom_simple.append((gci, degree))
            else:
                self.gcis_by_lhs[ids[gci.lhs]].append((gci, cap, ids[gci.rhs] * n, degree))
                self.live[ids[gci.lhs]] = True

    # -- bound updates

    def explanation(self, s: int) -> Explanation:
        """Every derivation reachable from signed bound ``s``, once each, in depth-first order.

        ``s`` is ``b`` for the lower bound ``b`` and ``~b`` for its upper
        bound, read from the record of the dual's lower bound; a premise is
        always a lower bound.  The reachable records are listed first, then
        each becomes one :class:`DerivationNode` whose premises are indices
        into the returned steps.
        """
        n, records, dual_rows = self.n, self.records, self.dual_rows
        walked: dict[int, tuple] = {}  # signed bound -> its record, in the order listed
        stack = [s]
        while stack:
            s = stack.pop()
            if s not in walked:
                record = walked[s] = records[s] if s >= 0 else records[dual_rows[~s // n] + ~s % n]
                stack.extend(reversed(record[2]))
        index = {s: i for i, s in enumerate(walked)}
        steps = []
        for s, (rule, value, premises, source, note, step) in walked.items():
            x, a = divmod(s if s >= 0 else ~s, n)
            kind, value = ("lo", value) if s >= 0 else ("hi", self.scale - value)
            value = Fraction(value, self.scale)
            premises = tuple(index[p] for p in premises)
            steps.append(DerivationNode(rule, self.names[a], self.closure[x], kind, value, premises, source, note, step))
        root = steps[0]
        return Explanation(root.individual, root.expr, root.kind, root.value, tuple(steps))

    def _conflict(self, b: int) -> Conflict:
        # lo(e) + lo(NOT e) > 1 holds only when both bounds rose, so both have records
        lo, hi = self.explanation(b), self.explanation(~b)
        return Conflict(lo.individual, lo.expr, lo.value, hi.value, lo, hi)

    def set_lo(
        self, b: int, value: int, rule: str, premises: tuple[int, ...], source: object | None = None, note: str = ""
    ) -> None:
        lo = self.lo
        if value <= lo[b]:
            return
        self.step += 1
        self.records[b] = (rule, value, premises, source, note, self.step)
        x, a = divmod(b, self.n)
        d = self.dual_rows[x] + a
        if value + lo[d] > self.scale:  # reported on whichever of the pair comes first in the closure
            raise InconsistencyError(self._conflict(min(b, d)))
        lo[b] = value
        if self.live[x]:
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
            # value op threshold, as v / w op t / d (one unit: see Quantity)
            op, threshold = node.target  # type: ignore[misc]
            holds, t, d = COMPARISONS[op], threshold.magnitude.numerator, threshold.magnitude.denominator
            for a, cf, v, w in self.values_by_role.get(node.role, ()):
                row = x * n if holds(v * d, t * w) else self.dual_rows[x]
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
    # Only bounds in live rows are queued (see Bound storage in the module
    # docstring): set_lo records a raised bound in a row no rule reads, such
    # as TOP's, without queuing it, and extend queues a row's bounds again
    # when growth gives the row a rule.  Each rule first checks whether its
    # candidate can improve the bound it targets, and only then builds
    # premises and a witness or calls set_lo: most firings improve nothing.

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
        # an old row that a new rule reads: its bounds never met that rule
        # (nor were queued at all if no rule read the row before); a lower
        # bound still at its default 0 moves no rule's conclusion
        for x in sorted(t for t in triggers if t < first):
            self.queue.extend(b for b in range(x * n, x * n + n) if lo[b])
        self.propagate()

    def propagate(self) -> None:
        """Fire every rule that reads a queued bound, until the queue is empty."""
        n, lo, queue = self.n, self.lo, self.queue
        pop, set_lo = queue.popleft, self.set_lo
        conj_parents, disj_parents, conj_down = self.conj_parents, self.disj_parents, self.conj_down
        forall_down, quantified = self.forall_down, self.quantified
        gcis_by_lhs, bottom_by_conjunct = self.gcis_by_lhs, self.bottom_by_conjunct
        fillers, role_fact, pointing_at = self.fillers, self.role_fact, self.pointing_at
        exists_up, forall_up = self.exists_up, self.forall_up
        while queue:
            b = pop()
            x, a = divmod(b, n)
            value = lo[b]
            premise = (b,)
            for parent, parts in conj_parents[x]:
                current = lo[parent + a]
                if value <= current:
                    continue  # the minimum over the parts is at most value
                for c in parts:
                    if lo[c + a] <= current:
                        break
                else:
                    set_lo(parent + a, min(lo[c + a] for c in parts), "conj-up", tuple(c + a for c in parts))
            for parent, parts in disj_parents[x]:
                candidate = max(lo[c + a] for c in parts)
                if candidate > lo[parent + a]:
                    witness = next(c for c in parts if lo[c + a] == candidate)
                    set_lo(parent + a, candidate, "disj-up", (witness + a,))
            for c in conj_down[x]:
                if value > lo[c + a]:
                    set_lo(c + a, value, "conj-down", premise)
            if forall_down[x] is not None:
                role, body = forall_down[x]
                for f in fillers.get((a, role), ()):
                    if value > lo[body + f]:
                        set_lo(body + f, value, "forall-down", premise, role_fact[(a, f, role)])
            if x in quantified:
                # revisit the quantifiers over x on every role edge that ends at a
                row = x * n
                for subject, role in pointing_at[a]:
                    node = exists_up.get((role, x))
                    if node is not None:
                        fils = fillers[(subject, role)]
                        candidate = max(lo[row + f] for f in fils)
                        if candidate > lo[node + subject]:
                            witness = next(f for f in fils if lo[row + f] == candidate)
                            set_lo(
                                node + subject, candidate, "exists-up", (row + witness,),
                                role_fact[(subject, witness, role)],
                            )
                    node = forall_up.get((role, x))
                    if node is not None:
                        current = lo[node + subject]
                        if value <= current:
                            continue  # the minimum over the fillers is at most value
                        fils = fillers[(subject, role)]
                        candidate = min(lo[row + f] for f in fils)
                        if candidate > current:
                            set_lo(
                                node + subject, candidate, "forall-up", tuple(row + f for f in fils),
                                note="closed role: the listed fillers are all fillers",
                            )
            for gci, cap, rhs, degree in gcis_by_lhs[x]:
                # lo[b], not value: an inclusion of e into itself raises it
                if lo[b] > cap and degree > lo[rhs + a]:
                    set_lo(rhs + a, degree, "gci", premise, gci)
            for gci, cap, degree, parts, duals in bottom_by_conjunct[x]:
                # a conjunct is capped (its dual raised to the degree) once every other one exceeds the cap
                below = [j for j, c in enumerate(parts) if lo[c + a] <= cap]
                if len(below) > 1:
                    continue
                for j in below or range(len(parts)):
                    if degree > lo[duals[j] + a]:
                        others = parts[:j] + parts[j + 1 :]
                        set_lo(duals[j] + a, degree, "disjoint", tuple(c + a for c in others), gci)


# --------------------------------------------------------------------------
# Public API


class SaturatedKb:
    """A knowledge base together with its saturated bounds, built from the engine that saturated it.

    Its answers are :meth:`scaled_bounds`, :meth:`instance_interval` and
    :meth:`explain`; ``closure`` shows which expressions hold bounds.
    ``_engine`` is the saturation that reached the fixpoint, kept so that a
    query outside the closure can grow it (see Extensions in the module
    docstring): ``closure`` then includes the query's expressions, and the
    engine's step numbers continue.  :meth:`scaled_bounds` reads the scaled
    bounds (see Bound storage) of many individuals at once, and
    :meth:`instance_interval` makes one pair a :class:`DegreeInterval`.
    :meth:`explain` reads the engine's records directly, an upper bound
    through its dual's record, and builds a :class:`DerivationNode` for
    each step it returns, its premises indices into those steps.  A clash
    found while growing is kept in ``_clash`` and raised again by every
    later query.  Equality is identity.
    """

    def __init__(self, engine: _Saturation):
        self.kb = engine.kb
        self._engine = engine
        self._clash: InconsistencyError | None = None

    @property
    def closure(self) -> tuple[ConceptExpression, ...]:
        """The expressions with bounds, in row order; a query outside them adds its own."""
        return self._engine.closure

    def scaled_bounds(self, individuals: Sequence[str], exprs: Sequence[ConceptExpression]) -> tuple[int, list]:
        """The scale ``L`` and, per expression, the lower and the upper bounds of the individuals in it, times ``L``.

        ``individuals`` is not empty.  Raises as asking the first individual
        about every expression, then each later one, would: a kept clash; an
        unknown first individual, before any growth; a clash found growing
        the closure by an expression (kept, as in :meth:`instance_interval`);
        an unknown later individual.  With no expressions nothing is checked.
        """
        xs = [self._grow(individuals[0], expr) for expr in exprs]
        ids = [self._individual_id(a) for a in individuals] if xs else []
        n, lo, scale, duals = self._engine.n, self._engine.lo, self._engine.scale, self._engine.dual_rows
        return scale, [([lo[x * n + i] for i in ids], [scale - lo[duals[x] + i] for i in ids]) for x in xs]

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in any concept.

        An expression outside the closure first grows it (see the module
        docstring), which never loosens anything already entailed.  If the
        query exposes a contradiction the knowledge base was inconsistent
        all along and :class:`InconsistencyError` is raised, by this query
        and every later one.  The interval is :data:`~fdlb.model.FULL_INTERVAL`
        exactly when the knowledge base says nothing about the membership.
        """
        scale, [([lo], [hi])] = self.scaled_bounds((individual,), (expr,))
        return DegreeInterval(Fraction(lo, scale), Fraction(hi, scale))

    def explain(self, individual: str, expr: ConceptExpression, kind: str = "lo") -> Explanation:
        """The derivations behind one bound, each listed once.

        An expression outside the closure first grows it, as in
        :meth:`instance_interval`.  Raises :class:`NoDerivationError` when
        the bound is still at its default (0 from below, 1 from above) —
        there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        engine = self._engine
        x, a = self._grow(individual, expr), engine.individual_ids[individual]
        b = x * engine.n + a
        if (b if kind == "lo" else engine.dual_rows[x] + a) not in engine.records:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(expr)}"
            )
        return engine.explanation(b if kind == "lo" else ~b)

    def _grow(self, individual: str, expr: ConceptExpression) -> int:
        """The closure row of ``expr``, after checking the individual and growing the closure by ``expr``."""
        engine = self._engine
        if self._clash is not None:
            raise self._clash.with_traceback(None)  # each raise would otherwise add its frames
        self._individual_id(individual)
        x = engine.expr_ids.get(expr)
        if x is None:
            check_concept_roles(expr, self.kb.roles)
            try:
                engine.extend(expr)
            except InconsistencyError as clash:
                self._clash = clash
                raise
            x = engine.expr_ids[expr]
        return x

    def _individual_id(self, individual: str) -> int:
        if (i := self._engine.individual_ids.get(individual)) is None:
            raise UnknownIndividualError(f"individual {individual!r} does not occur in the knowledge base")
        return i


def _describe(expr: ConceptExpression) -> str:
    return f"concept '{render_concept(expr)}'"


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

