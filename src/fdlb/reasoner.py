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

Bound storage: individual ``i`` (in ``kb.individuals`` order) in closure
expression ``x`` is the bound ``b = i * len(closure) + x``, held in two
flat integer lists ``lo[b]``/``hi[b]`` as degrees scaled by ``L``, the
least common denominator of the base's asserted and inclusion degrees.
Saturation only reaches 0, 1, those degrees and their complements, so
every bound is an exact integer and ``1 - x`` is ``L - v``.  Rules are
triggered through indexes by expression id, built once per closure, and
the worklist holds the signed bound ``s``: ``b`` for a raised lower bound
and ``~b`` for a lowered upper one.  Each improvement overwrites one
compact record under its signed bound — rule, scaled value, premises as
signed bounds, source, note and step number.  :class:`SaturatedKb` keeps
both lists and the records, and builds a :class:`DegreeInterval` only when
a query returns one and a :class:`DerivationNode`, with its exact
:class:`~fractions.Fraction` value, only when an explanation, a conflict or
``_derivations`` reads it.

Extensions: a query on an expression outside the closure re-saturates
with that expression added.  Each :class:`SaturatedKb` memoizes these
extensions per normalized expression, shared by ``instance_interval`` and
``explain``, so ranking many choices on one out-of-closure attribute
saturates once for that attribute.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Sequence

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
    normalize,
    sort_key,
    sub_expressions,
    to_negation_normal_form,
)

Bound = str  # "lo" | "hi"
Key = tuple[str, ConceptExpression, Bound]


class UnknownIndividualError(FdlbError):
    """A query named an individual the knowledge base never mentions."""


class NoDerivationError(FdlbError):
    """The queried bound is still at its default; there is nothing to explain."""


@dataclass(frozen=True)
class DerivationNode:
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


@dataclass(frozen=True)
class Explanation:
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


@dataclass(frozen=True)
class Conflict:
    """Two derivations that squeeze one membership into an empty interval."""

    individual: str
    expr: ConceptExpression
    lo_value: Fraction
    hi_value: Fraction
    lo_explanation: Explanation
    hi_explanation: Explanation


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    conflicts: tuple[Conflict, ...] = ()


class InconsistencyError(FdlbError):
    """Saturation found bounds that cannot be satisfied together."""

    def __init__(self, report: ConsistencyReport):
        self.report = report
        conflict = report.conflicts[0]
        super().__init__(
            f"inconsistent knowledge base: membership of {conflict.individual!r} is forced "
            f"both >= {conflict.lo_value} and <= {conflict.hi_value} in the same class"
        )


# --------------------------------------------------------------------------
# Closure


def _dual(expr: ConceptExpression) -> ConceptExpression:
    return normalize(to_negation_normal_form(Not(expr)))


def build_closure(kb: KnowledgeBase, extra: Iterable[ConceptExpression] = ()) -> tuple[ConceptExpression, ...]:
    """Every expression saturation tracks, in a deterministic order.

    All subexpressions of axiom sides and asserted concepts, the pinned
    classes, any extra query expressions, and the complement-normal dual of
    each — closed under subexpressions until stable.  Sharing one closure
    across individuals keeps interval keys comparable everywhere.
    """
    seen: set[ConceptExpression] = {TOP, BOTTOM}
    for gci in kb.gcis:
        seen.update(sub_expressions(gci.lhs))
        seen.update(sub_expressions(gci.rhs))
    for fa in kb.assertions:
        seen.update(sub_expressions(fa.concept))
    for e in extra:
        seen.update(sub_expressions(normalize(e)))
    todo = list(seen)
    while todo:
        for sub in sub_expressions(_dual(todo.pop())):
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return tuple(sorted(seen, key=sort_key))


# --------------------------------------------------------------------------
# Saturation engine


class _ConflictFound(Exception):
    def __init__(self, conflict: Conflict):
        self.conflict = conflict
        super().__init__("conflict")


class _Saturation:
    def __init__(self, kb: KnowledgeBase, extra: Iterable[ConceptExpression] = ()):
        self.kb = kb
        self.closure = build_closure(kb, extra)
        self.expr_ids = {e: x for x, e in enumerate(self.closure)}
        self.names = kb.individuals
        self.individual_ids = {a: i for i, a in enumerate(self.names)}
        self.width = len(self.closure)
        degrees = [Fraction(d) for d in chain((fa.degree for fa in kb.assertions), (g.degree for g in kb.gcis))]
        self.scale = scale = lcm(*(d.denominator for d in degrees))
        # every degree saturation can reach: 0, 1, and each input degree and its complement
        scaled = [self.scaled(d) for d in degrees]
        self.fractions = {v: Fraction(v, scale) for v in chain((0, scale), scaled, (scale - v for v in scaled))}
        size = len(self.names) * self.width
        self.lo = [0] * size
        self.hi = [scale] * size
        # signed bound -> (rule, scaled value, signed premises, source, note, step) of its latest improvement
        self.records: dict[int, tuple] = {}
        self.queue: deque[int] = deque()  # b: lo[b] rose; ~b: hi[b] fell
        self.step = 0
        self._build_indexes()

    def scaled(self, degree: Fraction) -> int:
        degree = Fraction(degree)
        return degree.numerator * (self.scale // degree.denominator)

    # -- indexes, by expression id (or individual id for role edges)

    def _build_indexes(self) -> None:
        kb, ids, width = self.kb, self.expr_ids, self.width
        self.neg_partners: list[list[int]] = [[] for _ in range(width)]
        self.conj_parents: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(width)]
        self.disj_parents: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(width)]
        self.conj_down: list[tuple[int, ...]] = [()] * width
        self.forall_down: list[tuple[str, int] | None] = [None] * width
        self.exists_up: dict[tuple[str, int], int] = {}
        self.forall_up: dict[tuple[str, int], int] = {}
        self.closed_foralls: dict[str, list[int]] = {}
        self.concrete_nodes: list[int] = []
        for x, e in enumerate(self.closure):
            if isinstance(e, Not):
                body = ids[e.body]
                self.neg_partners[body].append(x)
                self.neg_partners[x].append(body)
            elif isinstance(e, (And, Or)):
                parts = tuple(ids[c] for c in e.parts)
                parents = self.conj_parents if isinstance(e, And) else self.disj_parents
                for c in parts:
                    parents[c].append((x, parts))
                if isinstance(e, And):
                    self.conj_down[x] = parts
            elif isinstance(e, Exists):
                if isinstance(e.target, ConcretePredicate):
                    self.concrete_nodes.append(x)
                else:
                    self.exists_up[(e.role, ids[e.target])] = x
            elif isinstance(e, Forall):
                self.forall_down[x] = (e.role, ids[e.body])
                decl = kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, ids[e.body])] = x
                    self.closed_foralls.setdefault(e.role, []).append(x)
        # expressions whose lower bound on a filler can move a quantifier
        self.quantified = {target for _, target in self.exists_up} | {body for _, body in self.forall_up}

        individual = self.individual_ids
        self.fillers: dict[tuple[int, str], list[int]] = {}
        self.pointing_at: list[list[tuple[int, str]]] = [[] for _ in self.names]
        self.role_fact: dict[tuple[int, int, str], object] = {}
        for ra in kb.role_assertions:
            subject, filler = individual[ra.subject], individual[ra.filler]
            key = (subject, ra.role)
            if filler not in self.fillers.setdefault(key, []):
                self.fillers[key].append(filler)
                self.pointing_at[filler].append(key)
                self.role_fact[(subject, filler, ra.role)] = ra

        self.values_by_role: dict[str, list[tuple[int, object]]] = {}
        for cf in kb.concrete_facts:
            self.values_by_role.setdefault(cf.role, []).append((individual[cf.subject], cf))

        # gci: (inclusion, scaled cap = 1 - degree, rhs id, scaled degree)
        self.gcis_by_lhs: list[list[tuple[FuzzyGci, int, int, int]]] = [[] for _ in range(width)]
        self.bottom_by_conjunct: list[list[tuple[FuzzyGci, int, tuple[int, ...]]]] = [[] for _ in range(width)]
        self.bottom_simple: list[tuple[FuzzyGci, int]] = []
        for gci in kb.gcis:
            degree = self.scaled(gci.degree)
            cap = self.scale - degree
            if gci.rhs == BOTTOM:
                if isinstance(gci.lhs, And):
                    parts = tuple(ids[c] for c in gci.lhs.parts)
                    for c in set(parts):
                        self.bottom_by_conjunct[c].append((gci, cap, parts))
                else:
                    self.bottom_simple.append((gci, cap))
            else:
                self.gcis_by_lhs[ids[gci.lhs]].append((gci, cap, ids[gci.rhs], degree))

    # -- bound updates

    def _conflict(self, b: int) -> Conflict:
        # The losing side's current bound must itself be derived: a default
        # bound (0 or 1) can never be crossed by a value inside [0, 1].
        a, x = divmod(b, self.width)
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
            raise _ConflictFound(self._conflict(b))
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
            raise _ConflictFound(self._conflict(b))
        self.hi[b] = value
        self.queue.append(~b)

    # -- seeds

    def seed(self) -> None:
        kb, width, scale = self.kb, self.width, self.scale
        bases = range(0, len(self.names) * width, width)  # the first bound of each individual
        top, bottom = self.expr_ids[TOP], self.expr_ids[BOTTOM]
        for base in bases:
            self.set_lo(base + top, scale, "top", ())
            self.set_hi(base + bottom, 0, "bottom", ())
        for fa in kb.assertions:
            b = self.individual_ids[fa.individual] * width + self.expr_ids[fa.concept]
            self.set_lo(b, self.scaled(fa.degree), "assertion", (), source=fa)
        for x in self.concrete_nodes:
            node = self.closure[x]
            for ind, cf in self.values_by_role.get(node.role, ()):
                hit = node.target.evaluate(cf.value)  # type: ignore[union-attr]
                if hit == ONE:
                    self.set_lo(ind * width + x, scale, "concrete", (), source=cf)
                else:
                    self.set_hi(ind * width + x, 0, "concrete", (), source=cf)
        for gci, cap in self.bottom_simple:
            lhs = self.expr_ids[gci.lhs]
            for base in bases:
                self.set_hi(base + lhs, cap, "disjoint", (), source=gci)
        for role, nodes in self.closed_foralls.items():
            for x in nodes:
                for a, base in enumerate(bases):
                    if not self.fillers.get((a, role)):
                        self.set_lo(base + x, scale, "forall-up", (), note="closed role with no fillers")

    # -- propagation
    #
    # Each rule below first checks whether its candidate can improve the
    # bound it targets and only then builds premises and a witness: most
    # firings improve nothing, and set_lo/set_hi would drop them anyway.

    def run(self) -> None:
        self.seed()
        queue = self.queue
        while queue:
            b = queue.popleft()
            if b >= 0:
                self._lo_changed(b)
            else:
                self._hi_changed(~b)

    def _lo_changed(self, b: int) -> None:
        a, x = divmod(b, self.width)
        base = b - x
        lo = self.lo
        value = lo[b]
        premise = (b,)
        for partner in self.neg_partners[x]:
            self.set_hi(base + partner, self.scale - value, "negation", premise)
        for parent, parts in self.conj_parents[x]:
            current = lo[base + parent]
            if value <= current:
                continue  # the minimum over the parts is at most value
            candidate = min(lo[base + c] for c in parts)
            if candidate > current:
                self.set_lo(base + parent, candidate, "conj-up", tuple(base + c for c in parts))
        for parent, parts in self.disj_parents[x]:
            candidate = max(lo[base + c] for c in parts)
            if candidate > lo[base + parent]:
                witness = next(c for c in parts if lo[base + c] == candidate)
                self.set_lo(base + parent, candidate, "disj-up", (base + witness,))
        for c in self.conj_down[x]:
            self.set_lo(base + c, value, "conj-down", premise)
        if self.forall_down[x] is not None:
            role, body = self.forall_down[x]
            for f in self.fillers.get((a, role), ()):
                self.set_lo(f * self.width + body, value, "forall-down", premise, source=self.role_fact[(a, f, role)])
        if x in self.quantified:
            self._quantifiers_up(a, x, value)
        for gci, cap, rhs, degree in self.gcis_by_lhs[x]:
            if lo[b] > cap:  # live: an inclusion of e into itself raises it
                self.set_lo(base + rhs, degree, "gci", premise, source=gci)
        for gci, cap, parts in self.bottom_by_conjunct[x]:
            self._apply_disjoint(a, gci, cap, parts)

    def _quantifiers_up(self, b: int, x: int, value: int) -> None:
        # individual b's lower bound in expression x rose: revisit the
        # quantifiers over x on every role edge that ends at b.
        lo, width = self.lo, self.width
        for subject, role in self.pointing_at[b]:
            node = self.exists_up.get((role, x))
            if node is not None:
                fils = self.fillers[(subject, role)]
                candidate = max(lo[f * width + x] for f in fils)
                if candidate > lo[subject * width + node]:
                    witness = next(f for f in fils if lo[f * width + x] == candidate)
                    self.set_lo(
                        subject * width + node, candidate, "exists-up", (witness * width + x,),
                        source=self.role_fact[(subject, witness, role)],
                    )
            node = self.forall_up.get((role, x))
            if node is not None:
                current = lo[subject * width + node]
                if value <= current:
                    continue  # the minimum over the fillers is at most value
                fils = self.fillers[(subject, role)]
                candidate = min(lo[f * width + x] for f in fils)
                if candidate > current:
                    self.set_lo(
                        subject * width + node, candidate, "forall-up", tuple(f * width + x for f in fils),
                        note="closed role: the listed fillers are all fillers",
                    )

    def _apply_disjoint(self, a: int, gci: FuzzyGci, cap: int, parts: tuple[int, ...]) -> None:
        # A conjunct is capped once every other conjunct exceeds the cap.
        base = a * self.width
        above = [self.lo[base + c] > cap for c in parts]
        below = above.count(False)
        if below > 1:
            return
        for j, cj in enumerate(parts):
            if below == 1 and above[j]:
                continue
            if cap < self.hi[base + cj]:
                others = parts[:j] + parts[j + 1 :]
                self.set_hi(base + cj, cap, "disjoint", tuple(base + c for c in others), source=gci)

    def _hi_changed(self, b: int) -> None:
        x = b % self.width
        base = b - x
        hi = self.hi
        value = hi[b]
        for partner in self.neg_partners[x]:
            self.set_lo(base + partner, self.scale - value, "negation", (~b,))
        for parent, parts in self.conj_parents[x]:
            candidate = min(hi[base + c] for c in parts)
            if candidate < hi[base + parent]:
                witness = next(c for c in parts if hi[base + c] == candidate)
                self.set_hi(base + parent, candidate, "conj-hi", (~(base + witness),))
        for parent, parts in self.disj_parents[x]:
            current = hi[base + parent]
            if value >= current:
                continue  # the maximum over the parts is at least value
            candidate = max(hi[base + c] for c in parts)
            if candidate < current:
                self.set_hi(base + parent, candidate, "disj-hi", tuple(~(base + c) for c in parts))


# --------------------------------------------------------------------------
# Public API


@dataclass(frozen=True)
class SaturatedKb:
    """A knowledge base together with its saturated bounds.

    Individual ``i`` (in ``kb.individuals`` order) and closure expression
    ``x`` own the bound ``b = i * len(closure) + x``; ``_lo[b]`` and
    ``_hi[b]`` hold its degrees scaled by ``_scale``, and ``_fractions``
    maps each scaled degree back to its exact value.  Intervals are
    assembled on demand.  ``_derivations`` reads the compact record of each
    improved bound by ``(individual, expression, side)`` and builds its
    :class:`DerivationNode` on first read.
    """

    kb: KnowledgeBase
    closure: tuple[ConceptExpression, ...]
    _expr_ids: Mapping[ConceptExpression, int]
    _individual_ids: Mapping[str, int]
    _lo: Sequence[int]
    _hi: Sequence[int]
    _scale: int
    _fractions: Mapping[int, Fraction]
    _derivations: Mapping[Key, DerivationNode]
    # saturations with one out-of-closure query expression added, by expression
    _extensions: dict[ConceptExpression, "SaturatedKb"] = field(default_factory=dict, repr=False, compare=False)

    def interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed interval for an in-closure expression (no extension)."""
        i = self._check_individual(individual)
        e = normalize(expr)
        x = self._expr_ids.get(e)
        if x is None:
            raise FdlbError(f"{_describe(e)} is outside the saturated closure; use instance_interval")
        return self._interval(i * len(self.closure) + x)

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in any concept.

        Expressions outside the closure are answered by re-saturating with
        the query added, which never loosens anything already entailed.  The
        extension is memoized per expression, so later queries on the same
        expression, for any individual, reuse it.  If the extra expression
        exposes a contradiction the knowledge base was inconsistent all
        along and :class:`InconsistencyError` is raised.
        """
        i = self._check_individual(individual)
        e = normalize(expr)
        x = self._expr_ids.get(e)
        if x is not None:
            return self._interval(i * len(self.closure) + x)
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
        width, names = len(self.closure), self.kb.individuals
        return {
            (names[b // width], self.closure[b % width]): self._interval(b)
            for b, (lo, hi) in enumerate(zip(self._lo, self._hi))
            if lo or hi != self._scale
        }

    def explain(self, individual: str, expr: ConceptExpression, kind: Bound = "lo") -> Explanation:
        """The derivations behind one bound, each listed once.

        Out-of-closure expressions are explained from the same memoized
        extension :meth:`instance_interval` uses.  Raises
        :class:`NoDerivationError` when the bound is still at its default
        (0 from below, 1 from above) — there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        self._check_individual(individual)
        e = normalize(expr)
        if e not in self._expr_ids:
            return self._extension(e).explain(individual, e, kind)
        key = (individual, e, kind)
        if key not in self._derivations:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(e)}"
            )
        return _explanation(self._derivations, key)

    def _interval(self, b: int) -> DegreeInterval:
        lo, hi = self._lo[b], self._hi[b]
        if lo == 0 and hi == self._scale:
            return FULL_INTERVAL
        return DegreeInterval(self._fractions[lo], self._fractions[hi])

    def _extension(self, e: ConceptExpression) -> "SaturatedKb":
        extended = self._extensions.get(e)
        if extended is None:
            check_concept_roles(e, self.kb.roles, "query")
            extended = self._extensions[e] = saturate(self.kb, extra_concepts=(e,))
        return extended

    def _check_individual(self, individual: str) -> int:
        i = self._individual_ids.get(individual)
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
        self._names, self._closure, self._fractions = engine.names, engine.closure, engine.fractions
        self._individual_ids, self._expr_ids = engine.individual_ids, engine.expr_ids
        self._nodes: dict[int, DerivationNode] = {}

    def _signed(self, key: object) -> int | None:
        if not (isinstance(key, tuple) and len(key) == 3):
            return None
        individual, expr, kind = key
        a, x = self._individual_ids.get(individual), self._expr_ids.get(expr)
        if a is None or x is None or kind not in ("lo", "hi"):
            return None
        b = a * len(self._closure) + x
        return b if kind == "lo" else ~b

    def _key(self, s: int) -> Key:
        a, x = divmod(s if s >= 0 else ~s, len(self._closure))
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


def saturate(kb: KnowledgeBase, extra_concepts: Sequence[ConceptExpression] = ()) -> SaturatedKb:
    """Run saturation to its fixpoint.

    Returns the saturated knowledge base, or raises
    :class:`InconsistencyError` (carrying a :class:`ConsistencyReport` with
    the two clashing derivations) as soon as any membership interval
    becomes empty.
    """
    engine = _Saturation(kb, extra_concepts)
    try:
        engine.run()
    except _ConflictFound as found:
        raise InconsistencyError(ConsistencyReport(False, (found.conflict,))) from None
    return SaturatedKb(
        kb=kb,
        closure=engine.closure,
        _expr_ids=engine.expr_ids,
        _individual_ids=engine.individual_ids,
        _lo=engine.lo,
        _hi=engine.hi,
        _scale=engine.scale,
        _fractions=engine.fractions,
        _derivations=_Derivations(engine),
    )


def check_consistency(kb: KnowledgeBase) -> ConsistencyReport:
    """Saturate and report, without raising on inconsistency."""
    try:
        saturate(kb)
    except InconsistencyError as exc:
        return exc.report
    return ConsistencyReport(True, ())

