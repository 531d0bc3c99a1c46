"""The call sites the traced run wraps, and the per-layer metrics of its spans.

Every site is the name through which fdlb itself makes the call: the CLI
calls ``fdlb.cli.saturate``, the query layer calls ``fdlb.reasoner.saturate``
(an *extension*: a re-saturation to answer an expression outside the
closure), ``parse_kb`` calls ``fdlb.kbtext.build_kb``, and so on.
"""

from __future__ import annotations

from collections import Counter

from tracer import Span, self_time

EXTENSION_CALLERS = ("reasoner.instance_interval", "reasoner.explain")


def call_sites(cli, kbtext, reasoner) -> list[tuple[object, str, str]]:
    return [
        (cli, "main", "cli.main"),
        (cli, "parse_kb", "kbtext.parse_kb"),
        (cli, "parse_ubox", "kbtext.parse_ubox"),
        (cli, "parse_concept_text", "kbtext.parse_concept"),
        (kbtext, "build_kb", "model.build_kb"),
        (cli, "saturate", "reasoner.saturate"),
        (reasoner, "saturate", "reasoner.saturate"),
        (reasoner, "build_closure", "reasoner.build_closure"),
        (reasoner.SaturatedKb, "instance_interval", "reasoner.instance_interval"),
        (reasoner.SaturatedKb, "explain", "reasoner.explain"),
        (cli, "rank_choices", "decision.rank"),
        (cli, "format_explanation", "reasoner.format"),
        (cli, "format_conflict", "reasoner.format"),
    ]


def derivation_count(sat) -> int:
    """Bound improvements the saturation recorded (the last step number)."""
    derivations = getattr(sat, "_derivations", None) or {}
    return max((getattr(node, "step", 0) for node in derivations.values()), default=0)


def statement_count(kb) -> int:
    return sum(len(getattr(kb, part, ())) for part in ("roles", "gcis", "assertions", "role_assertions", "concrete_facts"))


def tree_size(explanation) -> tuple[int, int]:
    """Nodes of the explanation tree, and the distinct derivation steps in it."""
    root = getattr(explanation, "root", None)
    stack = [] if root is None else [root]
    nodes, distinct = 0, set()
    while stack:
        step = stack.pop()
        nodes += 1
        distinct.add(id(getattr(step, "node", step)))
        stack.extend(getattr(step, "children", ()))
    return nodes, len(distinct)


class Layers:
    """Per-layer totals over the traced requests of one run."""

    def __init__(self) -> None:
        self.requests = 0
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()  # outermost spans of a name only
        self.own: Counter[str] = Counter()
        self.derivations = 0
        self.extensions = 0
        self.extension_s = 0.0
        self.closure_sizes = 0
        self.statements = 0
        self.parse_bytes = 0
        self.pairs = 0
        self.explanations = 0
        self.tree_nodes = 0
        self.distinct_steps = 0
        self.output_bytes = 0
        self.self_sum_error = 0.0

    def add(self, spans: list[Span], output_bytes: int) -> None:
        """Fold in the spans of one request; its results are then dropped."""
        self.requests += 1
        self.output_bytes += output_bytes
        root_s = own_sum = 0.0
        for span in spans:
            own = self_time(spans, span)
            own_sum += own
            name = span.name
            self.calls[name] += 1
            self.own[name] += own
            parent = None if span.parent is None else spans[span.parent].name
            if parent is None:
                root_s += span.duration
            if parent != name:
                self.total[name] += span.duration
            if name == "reasoner.saturate":
                self.derivations += derivation_count(span.result)
                if parent in EXTENSION_CALLERS:
                    self.extensions += 1
                    self.extension_s += span.duration
            elif name == "reasoner.build_closure" and span.result is not None:
                self.closure_sizes += len(span.result)
            elif name == "model.build_kb" and span.result is not None:
                self.statements += statement_count(span.result)
            elif name == "kbtext.parse_kb":
                self.parse_bytes += len(span.args[0].encode("utf-8"))
            elif name == "decision.rank" and span.result is not None:
                self.pairs += sum(len(row.contributions) for row in span.result.rows)
            elif name == "reasoner.explain" and parent != name and span.result is not None:
                nodes, distinct = tree_size(span.result)
                self.explanations += 1
                self.tree_nodes += nodes
                self.distinct_steps += distinct
        self.self_sum_error = max(self.self_sum_error, abs(own_sum - root_s))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit): per-request means and rates."""
        n = max(self.requests, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        sat_s = self.total["reasoner.saturate"]
        return {
            "reasoner.saturate.self_s": (self.own["reasoner.saturate"] / n, "s"),
            "reasoner.saturate.calls": (self.calls["reasoner.saturate"] / n, "count"),
            "reasoner.derivations": (self.derivations / n, "count"),
            "reasoner.derivations_per_s": (ratio(self.derivations, sat_s), "1/s"),
            "reasoner.build_closure.s": (self.total["reasoner.build_closure"] / n, "s"),
            "reasoner.build_closure.calls": (self.calls["reasoner.build_closure"] / n, "count"),
            "reasoner.closure_size": (ratio(self.closure_sizes, self.calls["reasoner.build_closure"]), "count"),
            "model.build_kb.s": (self.total["model.build_kb"] / n, "s"),
            "model.statements": (ratio(self.statements, self.calls["model.build_kb"]), "count"),
            "reasoner.extensions": (self.extensions / n, "count"),
            "reasoner.extension_share": (ratio(self.extension_s, sat_s), "ratio"),
            "reasoner.instance_interval.calls": (self.calls["reasoner.instance_interval"] / n, "count"),
            "reasoner.instance_interval.s": (self.total["reasoner.instance_interval"] / n, "s"),
            "decision.rank.self_s": (self.own["decision.rank"] / n, "s"),
            "decision.pairs": (self.pairs / n, "count"),
            "decision.pairs_per_s": (ratio(self.pairs, self.total["decision.rank"]), "1/s"),
            "reasoner.explain.s": (self.total["reasoner.explain"] / n, "s"),
            "reasoner.explain.tree_nodes": (ratio(self.tree_nodes, self.explanations), "count"),
            "reasoner.explain.distinct_steps": (ratio(self.distinct_steps, self.explanations), "count"),
            "reasoner.explain.expansion": (ratio(self.tree_nodes, self.distinct_steps), "ratio"),
            "reasoner.format.s": (self.total["reasoner.format"] / n, "s"),
            "kbtext.parse_kb.self_s": (self.own["kbtext.parse_kb"] / n, "s"),
            "kbtext.parse_kb.bytes_per_s": (ratio(self.parse_bytes, self.own["kbtext.parse_kb"]), "B/s"),
            "cli.main.self_s": (self.own["cli.main"] / n, "s"),
            "cli.output_bytes": (self.output_bytes / n, "B"),
        }

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per request for every span name."""
        n = max(self.requests, 1)
        return {
            name: {
                "calls": self.calls[name] / n,
                "total_s": self.total[name] / n,
                "self_s": self.own[name] / n,
            }
            for name in sorted(self.calls)
        }
