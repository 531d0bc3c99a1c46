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

Closure: the pinned classes, the axiom sides and asserted concepts, every
concept name of the base, the queries saturation is given, and all they
reach through subexpressions and ``NOT`` (:class:`~fdlb.model.Not` builds
negation normal form, so ``NOT`` of any closure expression is its dual, and
the dual of that is the expression again).  Expressions are interned and
built in normal form, so building it is one worklist of identity lookups,
and a query names its closure row as it is given.  A concept is answered
when it is in the closure, as every concept name (so every utility-box
attribute) and every query passed to :func:`saturate` is; any other
raises (see :class:`SaturatedKb`).

Bound storage: closure expression ``x`` and individual ``i`` (in
``kb.individuals`` order) own the bound ``b = x * n + i``, ``n`` being the
number of individuals, held in one flat integer list ``lo[b]`` as degrees
scaled by ``L``, the least common denominator of the base's asserted and
inclusion degrees.  Saturation only reaches 0, 1, those degrees and their
complements, so every bound is an exact integer and ``1 - x`` is ``L -
v``.  ``dual_rows[x]`` is the row of ``NOT closure[x]``, so the upper
bound of ``b`` is ``L - lo[dual_rows[x] + i]``.  Rules are triggered
through indexes by expression id, and an index entry names the rule's
target by its row and its id, so that the one bound update, local to the
propagation loop, reads the target's dual row and live flag without
dividing by ``n``.  The worklist holds the bounds that rose in a *live*
row, one that some rule reads (``live[x]``: the row is a
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
individuals, expressions and sides.  One :class:`SaturatedKb`, built by
:func:`saturate`, holds the list, the indexes and the records, returns
bounds as these integers to :func:`~fdlb.decision.rank`, and builds a
:class:`DegreeInterval` only when :meth:`~SaturatedKb.instance_interval`
returns one.
"""

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .kbtext import render_concept
from .model import (
    And,
    Atom,
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


def build_closure(kb: KnowledgeBase, queries: Iterable[ConceptExpression] = ()) -> tuple[ConceptExpression, ...]:
    """Every expression saturation tracks (see Closure in the module docstring), in a deterministic order.

    Sharing one closure across individuals keeps interval keys comparable
    everywhere.  One worklist: each expression not seen yet is walked once,
    and its ``NOT`` queued.
    """
    sides = (side for gci in kb.gcis for side in (gci.lhs, gci.rhs))
    todo = [TOP, BOTTOM, *sides, *(fa.concept for fa in kb.assertions), *map(Atom, kb.concept_names), *queries]
    seen: set[ConceptExpression] = set()
    while todo:
        todo += map(Not, sub_expressions(todo.pop(), seen))
    return tuple(sorted(seen, key=sort_key))


# --------------------------------------------------------------------------
# Saturated base


class SaturatedKb:
    """A knowledge base together with the one saturation that reached its fixpoint.

    Build one through :func:`saturate`.  Its answers are
    :meth:`scaled_bounds`, :meth:`instance_interval` and :meth:`explain`;
    ``closure`` shows which expressions hold bounds: every concept name of
    the base and every query given to :func:`saturate`, with what they
    reach.  Any other expression raises :class:`FdlbError`, so no read
    changes the answers.  :meth:`scaled_bounds` reads the scaled bounds
    (see Bound storage) of many individuals at once, and
    :meth:`instance_interval` makes one pair a :class:`DegreeInterval`.
    :meth:`explain` reads the records directly, an upper bound through its
    dual's record, and builds a :class:`DerivationNode` for each step it
    returns, its premises indices into those steps.  Equality is identity.
    """

    def __init__(self, kb: KnowledgeBase, queries: Iterable[ConceptExpression] = ()):
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
        self._index_roles()
        self.closure = build_closure(kb, queries)
        self._index_expressions()
        self._index_gcis()

    # -- indexes: by expression id, or individual id for role edges; an
    # entry names an expression by its row x * n, so individual a's bound
    # in it is row + a, and by its id x, for the rule's update to read
    # dual_rows[x] and live[x]

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

    def _index_expressions(self) -> None:
        """Number the closure, with default bounds, and index the rules each expression gives its parts."""
        closure, n = self.closure, self.n
        ids = self.expr_ids = {e: x for x, e in enumerate(closure)}
        self.lo = [0] * (n * len(closure))
        self.dual_rows = [ids[Not(e)] * n for e in closure]  # x -> the row of NOT closure[x]
        live = self.live = [False] * len(closure)  # x -> some rule reads row x, so its raised bounds are queued
        # x -> a lower bound of row x on a filler can move a quantifier
        quantified = self.quantified = [False] * len(closure)
        # (row, id, part rows) of each conjunction or disjunction a part is in
        self.conj_parents: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in closure]
        self.disj_parents: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in closure]
        self.conj_down: list[tuple[tuple[int, int], ...]] = [()] * len(closure)  # (row, id) of each conjunct
        self.forall_down: list[tuple[str, int, int] | None] = [None] * len(closure)  # (role, body row, body id)
        self.exists_up: dict[tuple[str, int], tuple[int, int]] = {}  # (role, filler concept) -> (row, id)
        self.forall_up: dict[tuple[str, int], tuple[int, int]] = {}
        self.closed_foralls: dict[str, list[int]] = {}
        self.concrete_nodes: list[int] = []
        for x, e in enumerate(closure):
            row = x * n
            if isinstance(e, (And, Or)):
                parts = tuple(ids[c] for c in e.parts)
                rows = tuple(c * n for c in parts)
                parents = self.conj_parents if isinstance(e, And) else self.disj_parents
                for c in parts:
                    parents[c].append((row, x, rows))
                    live[c] = True
                if isinstance(e, And):
                    self.conj_down[x] = tuple(zip(rows, parts))
                    live[x] = True
            elif isinstance(e, Exists):
                if isinstance(e.target, ConcretePredicate):
                    self.concrete_nodes.append(x)
                else:
                    self.exists_up[(e.role, ids[e.target])] = (row, x)
                    quantified[ids[e.target]] = live[ids[e.target]] = True
            elif isinstance(e, Forall):
                self.forall_down[x] = (e.role, ids[e.body] * n, ids[e.body])
                live[x] = True
                decl = self.kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, ids[e.body])] = (row, x)
                    self.closed_foralls.setdefault(e.role, []).append(x)
                    quantified[ids[e.body]] = live[ids[e.body]] = True

    def _index_gcis(self) -> None:
        ids, n = self.expr_ids, self.n
        # gci: (inclusion, scaled cap = 1 - degree, rhs row, rhs id, scaled degree)
        self.gcis_by_lhs: list[list[tuple[FuzzyGci, int, int, int, int]]] = [[] for _ in self.closure]
        # disjoint: (inclusion, cap, degree, conjunct rows, their dual rows, their dual ids)
        self.bottom_by_conjunct: list[list[tuple[FuzzyGci, int, int, tuple, tuple, tuple]]] = [[] for _ in self.closure]
        self.bottom_simple: list[tuple[FuzzyGci, int, int]] = []  # (inclusion, degree, id of its lhs's dual)
        for gci in self.kb.gcis:
            degree = gci.degree.numerator * (self.scale // gci.degree.denominator)
            cap = self.scale - degree
            if gci.rhs == BOTTOM:
                if isinstance(gci.lhs, And):
                    parts = [ids[c] for c in gci.lhs.parts]
                    duals = [ids[Not(c)] for c in gci.lhs.parts]
                    entry = (gci, cap, degree, tuple(c * n for c in parts), tuple(c * n for c in duals), tuple(duals))
                    for c in parts:
                        self.bottom_by_conjunct[c].append(entry)
                        self.live[c] = True
                else:
                    self.bottom_simple.append((gci, degree, ids[Not(gci.lhs)]))
            else:
                self.gcis_by_lhs[ids[gci.lhs]].append((gci, cap, ids[gci.rhs] * n, ids[gci.rhs], degree))
                self.live[ids[gci.lhs]] = True

    # -- explanations

    def _explanation(self, s: int) -> Explanation:
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
        lo, hi = self._explanation(b), self._explanation(~b)
        return Conflict(lo.individual, lo.expr, lo.value, hi.value, lo, hi)

    # -- seeds

    def _seeds(self) -> Iterator[tuple]:
        """The bounds no rule derives from other bounds, as (bound, id, individual, value, rule, source, note)."""
        n, scale, ids = self.n, self.scale, self.expr_ids
        x = ids[TOP]
        for a in range(n):
            yield x * n + a, x, a, scale, "top", None, ""
        for fa in self.kb.assertions:
            x, a = ids[fa.concept], self.individual_ids[fa.individual]
            yield x * n + a, x, a, fa.degree.numerator * (scale // fa.degree.denominator), "assertion", fa, ""
        for x in self.concrete_nodes:
            node = self.closure[x]
            dual = ids[Not(node)]
            # value op threshold, as v / w op t / d (one unit: see Quantity)
            op, threshold = node.target  # type: ignore[misc]
            holds, t, d = COMPARISONS[op], threshold.magnitude.numerator, threshold.magnitude.denominator
            for a, cf, v, w in self.values_by_role.get(node.role, ()):
                y = x if holds(v * d, t * w) else dual
                yield y * n + a, y, a, scale, "concrete", cf, ""
        for gci, degree, x in self.bottom_simple:
            for a in range(n):
                yield x * n + a, x, a, degree, "disjoint", gci, ""
        for role, nodes in self.closed_foralls.items():
            for x in nodes:
                for a in range(n):
                    if not self.fillers.get((a, role)):
                        yield x * n + a, x, a, scale, "forall-up", None, "closed role with no fillers"

    # -- propagation
    #
    # One loop sets the seeds and then fires rules until the queue is empty.
    # Its local improve() is the bound update every rule calls, and the seed
    # loop writes the same update out.  An index entry names its target by
    # row and id (see the indexes above), so the update reads the target's
    # dual row and live flag without dividing.  Only bounds in live rows are
    # queued (see Bound storage in the module docstring): a raised bound in a
    # row no rule reads, such as TOP's, is recorded but not queued.  Each
    # rule first checks whether its candidate can improve the bound it
    # targets, and only then builds premises and a witness and calls
    # improve(): most firings improve nothing.

    def _run(self) -> "SaturatedKb":
        """Set the seeds (see :meth:`_seeds`) and fire rules until the queue is empty."""
        n, scale, lo, records = self.n, self.scale, self.lo, self.records
        queue: deque[int] = deque()  # bounds whose lower bound rose, in a live row
        dual_rows, live, pop, push = self.dual_rows, self.live, queue.popleft, queue.append
        conj_parents, disj_parents, conj_down = self.conj_parents, self.disj_parents, self.conj_down
        forall_down, quantified = self.forall_down, self.quantified
        gcis_by_lhs, bottom_by_conjunct = self.gcis_by_lhs, self.bottom_by_conjunct
        fillers, role_fact, pointing_at = self.fillers, self.role_fact, self.pointing_at
        exists_up, forall_up = self.exists_up, self.forall_up
        step = 0

        def improve(b, x, a, value, rule, premises, source=None, note=""):
            # raise bound b = x * n + a to value, which its caller found above lo[b]
            nonlocal step
            step += 1
            records[b] = (rule, value, premises, source, note, step)
            d = dual_rows[x] + a
            if value + lo[d] > scale:  # reported on whichever of the pair comes first in the closure
                raise InconsistencyError(self._conflict(min(b, d)))
            lo[b] = value
            if live[x]:
                push(b)

        for b, x, a, value, rule, source, note in self._seeds():  # improve(), written out
            if value > lo[b]:
                step += 1
                records[b] = (rule, value, (), source, note, step)
                d = dual_rows[x] + a
                if value + lo[d] > scale:
                    raise InconsistencyError(self._conflict(min(b, d)))
                lo[b] = value
                if live[x]:
                    push(b)
        while queue:
            b = pop()
            x, a = divmod(b, n)
            value = lo[b]
            premise = (b,)
            if entries := conj_parents[x]:
                for row, y, parts in entries:
                    current = lo[row + a]
                    if value <= current:
                        continue  # the minimum over the parts is at most value
                    for c in parts:
                        if lo[c + a] <= current:
                            break
                    else:
                        candidate = min([lo[c + a] for c in parts])
                        improve(row + a, y, a, candidate, "conj-up", tuple([c + a for c in parts]))
            if entries := disj_parents[x]:
                for row, y, parts in entries:
                    candidate = -1
                    for c in parts:  # the first greatest part is the witness
                        if lo[c + a] > candidate:
                            candidate, witness = lo[c + a], c
                    if candidate > lo[row + a]:
                        improve(row + a, y, a, candidate, "disj-up", (witness + a,))
            if entries := conj_down[x]:
                for c, y in entries:
                    if value > lo[c + a]:
                        improve(c + a, y, a, value, "conj-down", premise)
            if entries := forall_down[x]:
                role, body, y = entries
                for f in fillers.get((a, role), ()):
                    if value > lo[body + f]:
                        improve(body + f, y, f, value, "forall-down", premise, role_fact[(a, f, role)])
            if quantified[x]:
                # revisit the quantifiers over x on every role edge that ends at a
                row = b - a
                for subject, role in pointing_at[a]:
                    if entries := exists_up.get((role, x)):
                        target, y = entries
                        candidate = -1
                        for f in fillers[(subject, role)]:
                            if lo[row + f] > candidate:
                                candidate, witness = lo[row + f], f
                        if candidate > lo[target + subject]:
                            fact = role_fact[(subject, witness, role)]
                            improve(target + subject, y, subject, candidate, "exists-up", (row + witness,), fact)
                    if entries := forall_up.get((role, x)):
                        target, y = entries
                        current = lo[target + subject]
                        if value <= current:
                            continue  # the minimum over the fillers is at most value
                        fils = fillers[(subject, role)]
                        candidate = min([lo[row + f] for f in fils])
                        if candidate > current:
                            premises = tuple([row + f for f in fils])
                            improve(
                                target + subject, y, subject, candidate, "forall-up", premises,
                                note="closed role: the listed fillers are all fillers",
                            )
            if entries := gcis_by_lhs[x]:
                for gci, cap, rhs, y, degree in entries:
                    # lo[b], not value: an inclusion of e into itself raises it
                    if lo[b] > cap and degree > lo[rhs + a]:
                        improve(rhs + a, y, a, degree, "gci", premise, gci)
            if entries := bottom_by_conjunct[x]:
                for gci, cap, degree, parts, duals, ys in entries:
                    # a conjunct is capped (its dual raised to the degree) once every other one exceeds the cap
                    below = [j for j, c in enumerate(parts) if lo[c + a] <= cap]
                    if len(below) > 1:
                        continue
                    for j in below or range(len(parts)):
                        if degree > lo[duals[j] + a]:
                            others = tuple([c + a for c in parts[:j] + parts[j + 1 :]])
                            improve(duals[j] + a, ys[j], a, degree, "disjoint", others, gci)
        return self

    # -- answers

    def scaled_bounds(self, individuals: Sequence[str], exprs: Sequence[ConceptExpression]) -> tuple[int, list]:
        """The scale ``L`` and, per expression, the lower and the upper bounds of the individuals in it, times ``L``.

        Raises :class:`UnknownIndividualError` for the first unknown
        individual, and then :class:`FdlbError` for the first expression
        outside the closure.
        """
        ids = [self._individual_id(a) for a in individuals]
        xs = self._rows(exprs)
        n, lo, scale, duals = self.n, self.lo, self.scale, self.dual_rows
        return scale, [([lo[x * n + i] for i in ids], [scale - lo[duals[x] + i] for i in ids]) for x in xs]

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in a closure expression.

        Raises as :meth:`scaled_bounds` does.  The interval is
        :data:`~fdlb.model.FULL_INTERVAL` exactly when the knowledge base
        says nothing about the membership.
        """
        scale, [([lo], [hi])] = self.scaled_bounds((individual,), (expr,))
        return DegreeInterval(Fraction(lo, scale), Fraction(hi, scale))

    def explain(self, individual: str, expr: ConceptExpression, kind: str = "lo") -> Explanation:
        """The derivations behind one bound of a closure expression, each listed once.

        Raises as :meth:`scaled_bounds` does, and :class:`NoDerivationError`
        when the bound is still at its default (0 from below, 1 from above)
        — there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        a = self._individual_id(individual)
        [x] = self._rows((expr,))
        b = x * self.n + a
        if (b if kind == "lo" else self.dual_rows[x] + a) not in self.records:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(expr)}"
            )
        return self._explanation(b if kind == "lo" else ~b)

    def _rows(self, exprs: Sequence[ConceptExpression]) -> list[int]:
        ids = self.expr_ids
        for expr in exprs:
            if expr not in ids:
                raise FdlbError(f"{_describe(expr)} is not in the saturated closure; pass it to saturate")
        return [ids[expr] for expr in exprs]

    def _individual_id(self, individual: str) -> int:
        if (i := self.individual_ids.get(individual)) is None:
            raise UnknownIndividualError(f"individual {individual!r} does not occur in the knowledge base")
        return i


def _describe(expr: ConceptExpression) -> str:
    return f"concept '{render_concept(expr)}'"


def saturate(kb: KnowledgeBase, queries: Iterable[ConceptExpression] = ()) -> SaturatedKb:
    """Run saturation to its fixpoint, with ``queries`` (concepts over the base's roles) in the closure.

    Returns the saturated knowledge base, or raises
    :class:`InconsistencyError` as soon as any membership interval becomes
    empty; its ``conflict`` holds the two clashing derivations.
    """
    queries = tuple(queries)
    for query in queries:
        check_concept_roles(query, kb.roles)
    return SaturatedKb(kb, queries)._run()

