"""Command-line interface.

Subcommands::

    fdlb check KB                         consistency + conflict report
    fdlb rank KB --ubox FILE [...]        score and rank choices per expert
    fdlb complete KB --ubox FILE [...]    list undecided (choice, attribute) pairs
    fdlb explain KB -i IND -c CONCEPT     derivations behind a bound

Exit codes: 0 success; 1 usage or parse problems; 2 inconsistent knowledge
base; 3 undecided pairs found by ``complete`` or ``rank
--strict-complete``; 4 nothing to explain (the queried bound is still at
its default).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Callable, Collection
from pathlib import Path

from .decision import AttributeContribution, DecisionReport, UtilityBox, rank as rank_choices
from .kbtext import (
    ParseDiagnostic,
    format_conflict,
    format_explanation,
    parse_concept_text,
    parse_kb,
    parse_ubox,
    render_concept,
    render_decimal,
    render_statement,
)
from .model import FdlbError, KnowledgeBase
from .reasoner import (
    Explanation,
    InconsistencyError,
    NoDerivationError,
    saturate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_INCOMPLETE = 3
EXIT_NO_DERIVATION = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        self.message = message
        self.code = code
        super().__init__(message)


def _print_diagnostics(path: str, diagnostics: tuple[ParseDiagnostic, ...]) -> None:
    for d in diagnostics:
        print(f"{path}:{d.span.line}:{d.span.column}: {d.severity}: {d.message}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_kb(path: str) -> KnowledgeBase:
    result = parse_kb(_read(path))
    _print_diagnostics(path, result.diagnostics)
    if result.kb is None:
        raise _CliError(f"{path}: knowledge base not loaded")
    return result.kb


def _load_ubox(path: str) -> UtilityBox:
    result = parse_ubox(_read(path))
    _print_diagnostics(path, result.diagnostics)
    if result.ubox is None:
        raise _CliError(f"{path}: utility box not loaded")
    return result.ubox


def _choices(args: argparse.Namespace, kb: KnowledgeBase) -> list[str]:
    if args.choices is not None:
        names = [name.strip() for name in args.choices.split(",") if name.strip()]
        if not names:
            raise _CliError("--choices needs at least one individual")
        return names
    return list(kb.individuals)


def _write_json(
    value: object, out: list[str], indent: str = "\n", quote: Callable[[str], str] | None = None,
    shared: Collection[int] = (), written: dict[tuple[int, str], slice | str] | None = None,
) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=2)`` to ``out``, for str-keyed dicts, lists, str, int, bool and None.

    With ``indent`` set, json writes through its pure-Python encoder; this
    writer quotes strings with json's C function, ``quote``, and joins the
    rest itself.  ``json`` is imported here, so text output never loads it.
    A dict or list whose id is in ``shared`` (``rank`` shares one per
    distinct contribution) is written once per indent: ``written`` maps its
    id and indent to the slice of ``out`` its text took, then to that text.
    """
    if quote is None:
        from json.encoder import encode_basestring_ascii as quote
    if written is None:
        written = {}
    if isinstance(value, str):
        out.append(quote(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif (key := (id(value), indent)) in written:
        text = written[key]
        if isinstance(text, slice):
            text = written[key] = "".join(out[text])
        out.append(text)
    else:
        start = len(out)
        if isinstance(value, dict):
            inner, sep = indent + "  ", "{"
            for name, item in sorted(value.items()):
                out += (sep, inner, quote(name), ": ")
                _write_json(item, out, inner, quote, shared, written)
                sep = ","
            out.append(indent + "}" if value else "{}")
        elif isinstance(value, list):
            inner, sep = indent + "  ", "["
            for item in value:
                out += (sep, inner)
                _write_json(item, out, inner, quote, shared, written)
                sep = ","
            out.append(indent + "]" if value else "[]")
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")
        if key[0] in shared:
            written[key] = slice(start, len(out))


def _emit_json(payload: object, shared: Collection[int] = ()) -> None:
    out: list[str] = []
    _write_json(payload, out, shared=shared)
    print("".join(out))


# --------------------------------------------------------------------------
# check


def _cmd_check(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    try:
        saturate(kb)
        conflict = None
    except InconsistencyError as exc:
        conflict = exc.conflict
    if args.format == "structured":
        _emit_json({
            "kb": args.kb,
            "consistent": conflict is None,
            "conflicts": [] if conflict is None else [{
                "individual": conflict.individual,
                "concept": render_concept(conflict.expr),
                "lo": render_decimal(conflict.lo_value),
                "hi": render_decimal(conflict.hi_value),
            }],
        })
    elif conflict is None:
        print("consistent")
    else:
        print(format_conflict(conflict))
    return EXIT_OK if conflict is None else EXIT_INCONSISTENT


# --------------------------------------------------------------------------
# rank / complete


def _contribution_payload(c: AttributeContribution) -> dict:
    return {
        "attribute": c.attribute,
        "weight": render_decimal(c.weight),
        "bound": None if c.bound is None else render_decimal(c.bound),
        "contribution": render_decimal(c.contribution),
    }


def _report_payload(report: DecisionReport, shared: set[int]) -> dict:
    """The JSON of one report; ``shared`` gains the id of each score and contribution rendered once for its rows."""
    rendered: dict[int, object] = {}  # by identity: rank shares one object per distinct score and contribution

    def once(value: object, render) -> object:
        if id(value) not in rendered:
            rendered[id(value)] = render(value)
            shared.add(id(rendered[id(value)]))
        return rendered[id(value)]

    undecided = report.undecided
    return {
        "id": report.expert_id,
        "ideal": report.ideal,
        "complete": not undecided,
        "ranking": [
            {
                "choice": row.choice,
                "score": once(row.score, render_decimal),
                "contributions": [once(c, _contribution_payload) for c in row.contributions],
            }
            for row in report.rows
        ],
        "undecided": [{"choice": ch, "attribute": attr} for ch, attr in undecided],
    }


def _print_report(report: DecisionReport) -> None:
    print(f"== {report.expert_id} ==")
    for position, row in enumerate(report.rows, start=1):
        print(f"{position}. {row.choice}: {render_decimal(row.score)}")
        for c in row.contributions:
            if c.bound is None:
                print(f"   {c.attribute}: weight {render_decimal(c.weight)}, undecided, contributes 0")
            else:
                print(
                    f"   {c.attribute}: weight {render_decimal(c.weight)}, "
                    f"bound {render_decimal(c.bound)}, contributes {render_decimal(c.contribution)}"
                )
    print(f"ideal choice: {report.ideal}")
    if report.undecided:
        pairs = ", ".join(f"{ch}/{attr}" for ch, attr in report.undecided)
        print(f"undecided: {pairs}")


def _rank_all(args: argparse.Namespace) -> list[DecisionReport]:
    """Load the base and the utility boxes, saturate once, rank per expert."""
    kb = _load_kb(args.kb)
    uboxes = [_load_ubox(path) for path in args.ubox]
    sat = saturate(kb)
    choices = _choices(args, kb)
    return [rank_choices(sat, choices, ubox) for ubox in uboxes]


def _cmd_rank(args: argparse.Namespace) -> int:
    reports = _rank_all(args)
    if args.format == "structured":
        shared: set[int] = set()
        _emit_json({
            "kb": args.kb,
            "consistent": True,
            "experts": [_report_payload(r, shared) for r in reports],
        }, shared)
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            _print_report(report)
    if args.strict_complete and any(not r.complete for r in reports):
        return EXIT_INCOMPLETE
    return EXIT_OK


def _cmd_complete(args: argparse.Namespace) -> int:
    reports = _rank_all(args)
    if args.format == "structured":
        _emit_json({
            "kb": args.kb,
            "consistent": True,
            "experts": [
                {
                    "id": r.expert_id,
                    "complete": r.complete,
                    "undecided": [{"choice": ch, "attribute": attr} for ch, attr in r.undecided],
                }
                for r in reports
            ],
        })
    else:
        for report in reports:
            if report.complete:
                print(f"{report.expert_id}: complete")
            else:
                print(f"{report.expert_id}: incomplete ({len(report.undecided)} undecided)")
                for choice, attr in report.undecided:
                    print(f"  {choice} / {attr}")
    if any(not r.complete for r in reports):
        return EXIT_INCOMPLETE
    return EXIT_OK


# --------------------------------------------------------------------------
# explain


def _explain_payload(args: argparse.Namespace, explanation: Explanation) -> dict:
    # premises index into the flat steps table, which keeps the JSON shallow
    return {
        "kb": args.kb,
        "individual": explanation.individual,
        "concept": render_concept(explanation.expr),
        "bound": explanation.kind,
        "value": render_decimal(explanation.value),
        "steps": [
            {
                "bound": node.kind,
                "individual": node.individual,
                "concept": render_concept(node.expr),
                "value": render_decimal(node.value),
                "rule": node.rule,
                "source": None if node.source is None else render_statement(node.source),
                "note": node.note or None,
                "premises": list(node.premises),
            }
            for node in explanation.steps
        ],
    }


def _cmd_explain(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    concept_result = parse_concept_text(args.concept, dict(kb.roles))
    _print_diagnostics("<concept>", concept_result.diagnostics)
    if concept_result.concept is None:
        raise _CliError("concept expression not parsed")
    sat = saturate(kb, (concept_result.concept,))
    try:
        explanation = sat.explain(args.individual, concept_result.concept, args.bound)
    except NoDerivationError as exc:
        raise _CliError(str(exc), EXIT_NO_DERIVATION) from None
    if args.format == "structured":
        _emit_json(_explain_payload(args, explanation))
    else:
        print(format_explanation(explanation))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 means "inconsistent" here
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _CliError(message)


@cache  # built on the first call, not at import, and reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fdlb",
        description="Reason over fuzzy knowledge bases and rank choices by expert utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="output as readable text (default) or JSON")

    p_check = sub.add_parser("check", help="check consistency and report conflicts")
    p_check.add_argument("kb", help="knowledge-base file")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    def add_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ubox", action="append", required=True, metavar="FILE",
                       help="utility-box file; repeat for several experts")
        p.add_argument("--choices", metavar="A,B,C",
                       help="comma-separated choice individuals (default: every individual)")

    p_rank = sub.add_parser("rank", help="score and rank choices for each expert")
    p_rank.add_argument("kb", help="knowledge-base file")
    add_selection(p_rank)
    p_rank.add_argument("--strict-complete", action="store_true",
                        help="exit with status 3 when any (choice, attribute) pair is undecided")
    add_format(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_complete = sub.add_parser("complete", help="list undecided (choice, attribute) pairs")
    p_complete.add_argument("kb", help="knowledge-base file")
    add_selection(p_complete)
    add_format(p_complete)
    p_complete.set_defaults(func=_cmd_complete)

    p_explain = sub.add_parser("explain", help="show the derivation behind an entailed bound")
    p_explain.add_argument("kb", help="knowledge-base file")
    p_explain.add_argument("--individual", "-i", required=True, help="individual to query")
    p_explain.add_argument("--concept", "-c", required=True, help="concept expression to query")
    p_explain.add_argument("--bound", choices=("lo", "hi"), default="lo",
                           help="which bound to explain (default: lo)")
    add_format(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"fdlb: error: {exc.message}", file=sys.stderr)
        return exc.code
    except InconsistencyError as exc:
        print(format_conflict(exc.conflict), file=sys.stderr)
        print("fdlb: error: the knowledge base is inconsistent", file=sys.stderr)
        return EXIT_INCONSISTENT
    except FdlbError as exc:
        print(f"fdlb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
