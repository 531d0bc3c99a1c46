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

Bound storage: the engine keeps two flat maps, ``lo[(individual, expr)]``
and ``hi[(individual, expr)]``, holding only bounds that moved off their
defaults (0 and 1).  Rules are triggered through indexes built once per
closure — the parents of each conjunct or disjunct with their child
tuples, ``exists-up`` by (role, target) and ``forall-up`` by (role, body)
on closed roles — and a derivation is recorded only when a bound
improves.  :class:`SaturatedKb` keeps both maps and builds a
:class:`DegreeInterval` only when a query returns one.

Extensions: a query on an expression outside the closure re-saturates
with that expression added.  Each :class:`SaturatedKb` memoizes these
extensions per normalized expression, shared by ``instance_interval`` and
``explain``, so ranking many choices on one out-of-closure attribute
saturates once for that attribute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

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
    ZERO,
    check_concept_roles,
    conjuncts,
    disjuncts,
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
class ExplanationStep:
    node: DerivationNode
    children: tuple["ExplanationStep", ...]
    cyclic: bool = False  # a back-reference; children deliberately omitted


@dataclass(frozen=True)
class Explanation:
    individual: str
    expr: ConceptExpression
    kind: Bound
    value: Fraction
    root: ExplanationStep


@dataclass(frozen=True)
class Conflict:
    """Two derivations that squeeze one membership into an empty interval."""

    individual: str
    expr: ConceptExpression
    lo_value: Fraction
    hi_value: Fraction
    lo_explanation: ExplanationStep
    hi_explanation: ExplanationStep


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
    while True:
        grown = set(seen)
        for e in seen:
            grown.update(sub_expressions(_dual(e)))
        if grown == seen:
            break
        seen = grown
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
        self.closure_set = frozenset(self.closure)
        self.lo: dict[tuple[str, ConceptExpression], Fraction] = {}  # absent = 0
        self.hi: dict[tuple[str, ConceptExpression], Fraction] = {}  # absent = 1
        self.derivations: dict[Key, DerivationNode] = {}
        self.queue: deque[Key] = deque()
        self.step = 0
        self._build_indexes()

    # -- indexes

    def _build_indexes(self) -> None:
        kb = self.kb
        self.neg_partners: dict[ConceptExpression, list[ConceptExpression]] = {}
        self.conj_parts: dict[ConceptExpression, tuple[ConceptExpression, ...]] = {}
        self.conj_parents: dict[ConceptExpression, list[tuple[ConceptExpression, tuple]]] = {}
        self.disj_parents: dict[ConceptExpression, list[tuple[ConceptExpression, tuple]]] = {}
        self.exists_up: dict[tuple[str, ConceptExpression], Exists] = {}
        self.forall_up: dict[tuple[str, ConceptExpression], Forall] = {}
        self.closed_foralls: dict[str, list[Forall]] = {}
        self.concrete_nodes: list[Exists] = []
        for e in self.closure:
            if isinstance(e, Not):
                self.neg_partners.setdefault(e.body, []).append(e)
                self.neg_partners.setdefault(e, []).append(e.body)
            elif isinstance(e, And):
                parts = self.conj_parts[e] = conjuncts(e)
                for c in parts:
                    self.conj_parents.setdefault(c, []).append((e, parts))
            elif isinstance(e, Or):
                parts = disjuncts(e)
                for c in parts:
                    self.disj_parents.setdefault(c, []).append((e, parts))
            elif isinstance(e, Exists):
                if isinstance(e.target, ConcretePredicate):
                    self.concrete_nodes.append(e)
                else:
                    self.exists_up[(e.role, e.target)] = e
            elif isinstance(e, Forall):
                decl = kb.roles.get(e.role)
                if decl is not None and decl.closed:
                    self.forall_up[(e.role, e.body)] = e
                    self.closed_foralls.setdefault(e.role, []).append(e)
        # expressions whose lower bound on a filler can move a quantifier
        self.quantified = {target for _, target in self.exists_up} | {body for _, body in self.forall_up}

        self.fillers: dict[tuple[str, str], list[str]] = {}
        self.pointing_at: dict[str, list[tuple[str, str]]] = {}
        self.role_fact: dict[tuple[str, str, str], object] = {}
        for ra in kb.role_assertions:
            key = (ra.subject, ra.role)
            if ra.filler not in self.fillers.setdefault(key, []):
                self.fillers[key].append(ra.filler)
                self.pointing_at.setdefault(ra.filler, []).append((ra.subject, ra.role))
                self.role_fact[(ra.subject, ra.filler, ra.role)] = ra

        self.values_by_role: dict[str, list[tuple[str, object]]] = {}
        for cf in kb.concrete_facts:
            self.values_by_role.setdefault(cf.role, []).append((cf.subject, cf))

        self.gcis_by_lhs: dict[ConceptExpression, list[tuple[FuzzyGci, Fraction]]] = {}
        self.bottom_by_conjunct: dict[ConceptExpression, list[tuple[FuzzyGci, Fraction, tuple]]] = {}
        self.bottom_simple: list[FuzzyGci] = []
        for gci in kb.gcis:
            cap = ONE - gci.degree
            if gci.rhs == BOTTOM:
                if isinstance(gci.lhs, And):
                    parts = conjuncts(gci.lhs)
                    for c in set(parts):
                        self.bottom_by_conjunct.setdefault(c, []).append((gci, cap, parts))
                else:
                    self.bottom_simple.append(gci)
            else:
                self.gcis_by_lhs.setdefault(gci.lhs, []).append((gci, cap))

    # -- bound updates

    def _conflict(self, ind: str, expr: ConceptExpression, new: DerivationNode) -> Conflict:
        # The losing side's current bound must itself be derived: a default
        # bound (0 or 1) can never be crossed by a value inside [0, 1].
        self.derivations[(ind, expr, new.kind)] = new
        lo_tree = _tree_from(self.derivations, (ind, expr, "lo"))
        hi_tree = _tree_from(self.derivations, (ind, expr, "hi"))
        lo_value = new.value if new.kind == "lo" else self.lo[(ind, expr)]
        hi_value = new.value if new.kind == "hi" else self.hi[(ind, expr)]
        return Conflict(ind, expr, lo_value, hi_value, lo_tree, hi_tree)

    def set_lo(
        self,
        ind: str,
        expr: ConceptExpression,
        value: Fraction,
        rule: str,
        premises: tuple[Key, ...],
        source: object | None = None,
        note: str = "",
    ) -> None:
        bound = (ind, expr)
        if value <= self.lo.get(bound, ZERO):
            return
        self.step += 1
        node = DerivationNode(rule, ind, expr, "lo", value, premises, source, note, self.step)
        if value > self.hi.get(bound, ONE):
            raise _ConflictFound(self._conflict(ind, expr, node))
        self.lo[bound] = value
        key = (ind, expr, "lo")
        self.derivations[key] = node
        self.queue.append(key)

    def set_hi(
        self,
        ind: str,
        expr: ConceptExpression,
        value: Fraction,
        rule: str,
        premises: tuple[Key, ...],
        source: object | None = None,
        note: str = "",
    ) -> None:
        bound = (ind, expr)
        if value >= self.hi.get(bound, ONE):
            return
        self.step += 1
        node = DerivationNode(rule, ind, expr, "hi", value, premises, source, note, self.step)
        if value < self.lo.get(bound, ZERO):
            raise _ConflictFound(self._conflict(ind, expr, node))
        self.hi[bound] = value
        key = (ind, expr, "hi")
        self.derivations[key] = node
        self.queue.append(key)

    # -- seeds

    def seed(self) -> None:
        kb = self.kb
        for a in kb.individuals:
            self.set_lo(a, TOP, ONE, "top", ())
            self.set_hi(a, BOTTOM, ZERO, "bottom", ())
        for fa in kb.assertions:
            self.set_lo(fa.individual, fa.concept, fa.degree, "assertion", (), source=fa)
        for node in self.concrete_nodes:
            for ind, cf in self.values_by_role.get(node.role, ()):
                hit = node.target.evaluate(cf.value)  # type: ignore[union-attr]
                if hit == ONE:
                    self.set_lo(ind, node, ONE, "concrete", (), source=cf)
                else:
                    self.set_hi(ind, node, ZERO, "concrete", (), source=cf)
        for gci in self.bottom_simple:
            cap = ONE - gci.degree
            for a in kb.individuals:
                self.set_hi(a, gci.lhs, cap, "disjoint", (), source=gci)
        for role, nodes in self.closed_foralls.items():
            for node in nodes:
                for a in kb.individuals:
                    if not self.fillers.get((a, role)):
                        self.set_lo(a, node, ONE, "forall-up", (), note="closed role with no fillers")

    # -- propagation
    #
    # Each rule below first checks whether its candidate can improve the
    # bound it targets and only then builds premises and a witness: most
    # firings improve nothing, and set_lo/set_hi would drop them anyway.

    def run(self) -> None:
        self.seed()
        queue = self.queue
        while queue:
            key = queue.popleft()
            if key[2] == "lo":
                self._lo_changed(key)
            else:
                self._hi_changed(key)

    def _lo_changed(self, key: Key) -> None:
        a, e, _ = key
        lo = self.lo
        value = lo[(a, e)]
        for partner in self.neg_partners.get(e, ()):
            self.set_hi(a, partner, ONE - value, "negation", (key,))
        for parent, parts in self.conj_parents.get(e, ()):
            current = lo.get((a, parent), ZERO)
            if value <= current:
                continue  # the minimum over the parts is at most value
            candidate = min(lo.get((a, c), ZERO) for c in parts)
            if candidate > current:
                self.set_lo(a, parent, candidate, "conj-up", tuple((a, c, "lo") for c in parts))
        for parent, parts in self.disj_parents.get(e, ()):
            candidate = max(lo.get((a, c), ZERO) for c in parts)
            if candidate > lo.get((a, parent), ZERO):
                witness = next(c for c in parts if lo.get((a, c), ZERO) == candidate)
                self.set_lo(a, parent, candidate, "disj-up", ((a, witness, "lo"),))
        parts = self.conj_parts.get(e)
        if parts is not None:
            for c in parts:
                self.set_lo(a, c, value, "conj-down", (key,))
        if isinstance(e, Forall):
            for b in self.fillers.get((a, e.role), ()):
                self.set_lo(b, e.body, value, "forall-down", (key,), source=self.role_fact[(a, b, e.role)])
        if e in self.quantified:
            self._quantifiers_up(a, e, value)
        for gci, cap in self.gcis_by_lhs.get(e, ()):
            if lo[(a, e)] > cap:  # live: an inclusion of e into itself raises it
                self.set_lo(a, gci.rhs, gci.degree, "gci", (key,), source=gci)
        for gci, cap, parts in self.bottom_by_conjunct.get(e, ()):
            self._apply_disjoint(a, gci, cap, parts)

    def _quantifiers_up(self, b: str, e: ConceptExpression, value: Fraction) -> None:
        # b's lower bound in e rose: revisit the quantifiers over e on every
        # role edge that ends at b.
        lo = self.lo
        for subject, role in self.pointing_at.get(b, ()):
            node = self.exists_up.get((role, e))
            if node is not None:
                fils = self.fillers[(subject, role)]
                candidate = max(lo.get((f, e), ZERO) for f in fils)
                if candidate > lo.get((subject, node), ZERO):
                    witness = next(f for f in fils if lo.get((f, e), ZERO) == candidate)
                    self.set_lo(
                        subject, node, candidate, "exists-up", ((witness, e, "lo"),),
                        source=self.role_fact[(subject, witness, role)],
                    )
            node = self.forall_up.get((role, e))
            if node is not None:
                current = lo.get((subject, node), ZERO)
                if value <= current:
                    continue  # the minimum over the fillers is at most value
                fils = self.fillers[(subject, role)]
                candidate = min(lo.get((f, e), ZERO) for f in fils)
                if candidate > current:
                    self.set_lo(
                        subject, node, candidate, "forall-up",
                        tuple((f, e, "lo") for f in fils),
                        note="closed role: the listed fillers are all fillers",
                    )

    def _apply_disjoint(self, a: str, gci: FuzzyGci, cap: Fraction, parts: tuple) -> None:
        # A conjunct is capped once every other conjunct exceeds the cap.
        above = [self.lo.get((a, c), ZERO) > cap for c in parts]
        below = above.count(False)
        if below > 1:
            return
        for j, cj in enumerate(parts):
            if below == 1 and above[j]:
                continue
            if cap < self.hi.get((a, cj), ONE):
                others = parts[:j] + parts[j + 1 :]
                self.set_hi(a, cj, cap, "disjoint", tuple((a, c, "lo") for c in others), source=gci)

    def _hi_changed(self, key: Key) -> None:
        a, e, _ = key
        hi = self.hi
        value = hi[(a, e)]
        for partner in self.neg_partners.get(e, ()):
            self.set_lo(a, partner, ONE - value, "negation", (key,))
        for parent, parts in self.conj_parents.get(e, ()):
            candidate = min(hi.get((a, c), ONE) for c in parts)
            if candidate < hi.get((a, parent), ONE):
                witness = next(c for c in parts if hi.get((a, c), ONE) == candidate)
                self.set_hi(a, parent, candidate, "conj-hi", ((a, witness, "hi"),))
        for parent, parts in self.disj_parents.get(e, ()):
            current = hi.get((a, parent), ONE)
            if value >= current:
                continue  # the maximum over the parts is at least value
            candidate = max(hi.get((a, c), ONE) for c in parts)
            if candidate < current:
                self.set_hi(a, parent, candidate, "disj-hi", tuple((a, c, "hi") for c in parts))


# --------------------------------------------------------------------------
# Public API


@dataclass(frozen=True)
class SaturatedKb:
    """A knowledge base together with its saturated bounds.

    ``_lo`` and ``_hi`` hold every bound saturation moved off its default
    (0 from below, 1 from above); intervals are assembled on demand.
    """

    kb: KnowledgeBase
    closure: tuple[ConceptExpression, ...]
    _closure_set: frozenset[ConceptExpression]
    _lo: Mapping[tuple[str, ConceptExpression], Fraction]
    _hi: Mapping[tuple[str, ConceptExpression], Fraction]
    _derivations: Mapping[Key, DerivationNode]
    _individual_set: frozenset[str] = field(default_factory=frozenset)
    # saturations with one out-of-closure query expression added, by expression
    _extensions: dict[ConceptExpression, "SaturatedKb"] = field(default_factory=dict, repr=False, compare=False)

    def interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed interval for an in-closure expression (no extension)."""
        self._check_individual(individual)
        e = normalize(expr)
        if e not in self._closure_set:
            raise FdlbError(f"{_describe(e)} is outside the saturated closure; use instance_interval")
        return self._interval((individual, e))

    def instance_interval(self, individual: str, expr: ConceptExpression) -> DegreeInterval:
        """The entailed membership interval of an individual in any concept.

        Expressions outside the closure are answered by re-saturating with
        the query added, which never loosens anything already entailed.  The
        extension is memoized per expression, so later queries on the same
        expression, for any individual, reuse it.  If the extra expression
        exposes a contradiction the knowledge base was inconsistent all
        along and :class:`InconsistencyError` is raised.
        """
        self._check_individual(individual)
        e = normalize(expr)
        if e in self._closure_set:
            return self._interval((individual, e))
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
        return {key: self._interval(key) for key in chain(self._lo, self._hi)}

    def explain(self, individual: str, expr: ConceptExpression, kind: Bound = "lo") -> Explanation:
        """The derivation tree behind one bound.

        Out-of-closure expressions are explained from the same memoized
        extension :meth:`instance_interval` uses.  Raises
        :class:`NoDerivationError` when the bound is still at its default
        (0 from below, 1 from above) — there is nothing to show.
        """
        if kind not in ("lo", "hi"):
            raise ValueError("kind must be 'lo' or 'hi'")
        self._check_individual(individual)
        e = normalize(expr)
        if e not in self._closure_set:
            return self._extension(e).explain(individual, e, kind)
        key = (individual, e, kind)
        node = self._derivations.get(key)
        if node is None:
            side = "lower" if kind == "lo" else "upper"
            raise NoDerivationError(
                f"no {side} bound beyond the default is entailed for {individual!r} in {_describe(e)}"
            )
        root = _tree_from(self._derivations, key)
        return Explanation(individual, e, kind, node.value, root)

    def _interval(self, key: tuple[str, ConceptExpression]) -> DegreeInterval:
        lo = self._lo.get(key)
        hi = self._hi.get(key)
        if lo is None and hi is None:
            return FULL_INTERVAL
        return DegreeInterval(ZERO if lo is None else lo, ONE if hi is None else hi)

    def _extension(self, e: ConceptExpression) -> "SaturatedKb":
        extended = self._extensions.get(e)
        if extended is None:
            check_concept_roles(e, self.kb.roles, "query")
            extended = self._extensions[e] = saturate(self.kb, extra_concepts=(e,))
        return extended

    def _check_individual(self, individual: str) -> None:
        if individual not in self._individual_set:
            raise UnknownIndividualError(f"individual {individual!r} does not occur in the knowledge base")


def _describe(expr: ConceptExpression) -> str:
    from .kbtext import render_concept

    return f"concept '{render_concept(expr)}'"


def _tree_from(derivations: Mapping[Key, DerivationNode], key: Key, path: frozenset[Key] = frozenset()) -> ExplanationStep:
    node = derivations[key]
    if key in path:
        return ExplanationStep(node, (), cyclic=True)
    deeper = path | {key}
    return ExplanationStep(node, tuple(_tree_from(derivations, p, deeper) for p in node.premises))


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
        _closure_set=engine.closure_set,
        _lo=engine.lo,
        _hi=engine.hi,
        _derivations=engine.derivations,
        _individual_set=frozenset(kb.individuals),
    )


def check_consistency(kb: KnowledgeBase) -> ConsistencyReport:
    """Saturate and report, without raising on inconsistency."""
    try:
        saturate(kb)
    except InconsistencyError as exc:
        return exc.report
    return ConsistencyReport(True, ())


# --------------------------------------------------------------------------
# Rendering


def _render_source(source: object) -> str:
    from .kbtext import render_statement

    return render_statement(source)


def format_step(step: ExplanationStep, indent: int = 0) -> list[str]:
    node = step.node
    op = ">=" if node.kind == "lo" else "<="
    head = f"{node.kind}({node.individual}, {_concept_text(node.expr)}) {op} {_degree_text(node.value)}"
    details = [node.rule]
    if node.source is not None:
        details.append(_render_source(node.source))
    if node.note:
        details.append(node.note)
    line = "  " * indent + f"{head}   [{'; '.join(details)}]"
    lines = [line]
    if step.cyclic:
        lines[0] += "  (see above)"
        return lines
    for child in step.children:
        lines.extend(format_step(child, indent + 1))
    return lines


def _concept_text(expr: ConceptExpression) -> str:
    from .kbtext import render_concept

    return render_concept(expr)


def _degree_text(value: Fraction) -> str:
    from .kbtext import render_decimal

    return render_decimal(value)


def format_explanation(explanation: Explanation) -> str:
    return "\n".join(format_step(explanation.root))


def format_conflict(conflict: Conflict) -> str:
    lines = [
        f"conflict on {conflict.individual!r} in {_concept_text(conflict.expr)}: "
        f"membership forced >= {_degree_text(conflict.lo_value)} and <= {_degree_text(conflict.hi_value)}",
        "lower bound:",
    ]
    lines.extend(format_step(conflict.lo_explanation, 1))
    lines.append("upper bound:")
    lines.extend(format_step(conflict.hi_explanation, 1))
    return "\n".join(lines)
