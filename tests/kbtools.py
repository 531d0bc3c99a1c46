"""Test helpers over the package's records: canonical text, equality up to order, and entailed intervals.

``serialize_kb``/``serialize_ubox`` write a knowledge base or a utility box
back in the text format, so tests can round-trip it through the parser;
``kb_equal`` compares knowledge bases up to statement order;
``interval_map`` lists every non-vacuous entailed interval of a saturated
base, in the shape ``naive_engine.NaiveEngine.interval_map`` reports;
``explanations`` reads every derived bound of a saturated base through
``SaturatedKb.explain``; ``stacked_diamonds`` writes a base whose
explanation reaches each step along exponentially many paths; ``evaluate`` decides a concrete restriction on one quantity, by the
definition the engines are checked against; and ``reference_rank`` ranks
choices by asking ``instance_interval`` for each (choice, attribute) pair
and summing ``Fraction`` products, the reference ``decision.rank`` is
checked against.
"""

from collections import Counter

from fdlb.decision import AttributeContribution, ChoiceScore, DecisionReport
from fdlb.kbtext import render_decimal, render_statement
from fdlb.model import COMPARISONS, FULL_INTERVAL, ONE, ZERO, Atom
from fdlb.reasoner import NoDerivationError


def serialize_kb(kb):
    """Canonical text for a knowledge base; re-parsing yields an equal KB."""
    lines = []
    for decl in kb.roles.values():
        if decl.kind == "abstract":
            lines.append(f"role {decl.name} : abstract{' closed' if decl.closed else ''};")
        else:
            lines.append(f"role {decl.name} : concrete({decl.unit});")
    for name in sorted(kb.declared_concepts):
        lines.append(f"concept {name};")
    for part in (kb.gcis, kb.assertions, kb.role_assertions, kb.concrete_facts):
        lines.extend(map(render_statement, part))
    return "\n".join(lines) + "\n"


def serialize_ubox(ubox):
    lines = [f"ubox {ubox.expert_id} {{"]
    for attr, weight in ubox.entries:
        lines.append(f"    {attr} = {render_decimal(weight)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def kb_equal(a, b):
    """Structural equality up to statement order."""
    statements = ("gcis", "assertions", "role_assertions", "concrete_facts")
    return (
        dict(a.roles) == dict(b.roles)
        and all(Counter(getattr(a, part)) == Counter(getattr(b, part)) for part in statements)
        and a.concept_names == b.concept_names
        and a.individuals == b.individuals
    )


def evaluate(predicate, value):
    """``ONE`` when ``value op threshold`` holds, else ``ZERO``; both quantities are in one unit."""
    assert value.unit == predicate.threshold.unit, (value, predicate)
    return ONE if COMPARISONS[predicate.op](value.magnitude, predicate.threshold.magnitude) else ZERO


def interval_map(sat):
    """All non-vacuous entailed intervals of a saturated base, keyed by (individual, closure expression)."""
    out = {}
    for individual in sat.kb.individuals:
        for expr in sat.closure:
            interval = sat.instance_interval(individual, expr)
            if interval != FULL_INTERVAL:
                out[(individual, expr)] = interval
    return out


def explanations(sat):
    """The explanation of every bound a saturated base has derived beyond its default, read through ``explain``.

    Each recorded derivation is ``steps[0]`` of two of them: the lower bound
    it raised, and the upper bound that lower bound gives the dual.
    """
    for individual in sat.kb.individuals:
        for expr in sat.closure:
            for kind in ("lo", "hi"):
                try:
                    yield sat.explain(individual, expr, kind)
                except NoDerivationError:
                    pass


def stacked_diamonds(n):
    """``D_k SUBSUMED-BY P_k`` and ``Q_k``, ``P_k AND Q_k SUBSUMED-BY D_k+1`` for k < n, and ``x : D0``, as text.

    Every ``D_k`` is reached from ``D_n`` along ``2^(n-k)`` paths.
    """
    lines = ["assert x : D0;"]
    for k in range(n):
        lines += [f"axiom D{k} SUBSUMED-BY P{k};", f"axiom D{k} SUBSUMED-BY Q{k};",
                  f"axiom P{k} AND Q{k} SUBSUMED-BY D{k + 1};"]
    return "\n".join(lines)


def reference_rank(sat, choices, ubox):
    """``decision.rank`` by its definition: one ``instance_interval`` and one ``Fraction`` product per pair.

    Choices are asked in order, each of every attribute in ubox order, so a
    clash or an unknown individual raises where ``rank`` must raise it;
    ``rank``'s own checks of its arguments are not repeated here.
    """
    rows = []
    for choice in choices:
        contributions = []
        for name, w in ubox.entries:
            interval = sat.instance_interval(choice, Atom(name))
            bound = None if interval == FULL_INTERVAL else interval.lo
            contributions.append(AttributeContribution(name, w, bound, ZERO if bound is None else w * bound))
        score = sum((c.contribution for c in contributions), start=ZERO)
        rows.append(ChoiceScore(choice, score, tuple(contributions)))
    rows.sort(key=lambda row: (-row.score, row.choice))
    return DecisionReport(ubox.expert_id, tuple(rows))
