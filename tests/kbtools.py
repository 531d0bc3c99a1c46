"""Test helpers over the package's records: canonical text, equality up to order, and entailed intervals.

``serialize_kb``/``serialize_ubox`` write a knowledge base or a utility box
back in the text format, so tests can round-trip it through the parser;
``kb_equal`` compares knowledge bases up to statement order; and
``interval_map`` lists every non-vacuous entailed interval of a saturated
base, in the shape ``naive_engine.NaiveEngine.interval_map`` reports.
"""

from collections import Counter

from fdlb.kbtext import render_decimal, render_statement
from fdlb.model import FULL_INTERVAL


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


def interval_map(sat):
    """All non-vacuous entailed intervals of a saturated base, keyed by (individual, closure expression)."""
    out = {}
    for individual in sat.kb.individuals:
        for expr in sat.closure:
            interval = sat.instance_interval(individual, expr)
            if interval != FULL_INTERVAL:
                out[(individual, expr)] = interval
    return out
