"""Textual knowledge-base format: lexer, parser, serializer, and explanation text.

Statements end with ``;`` and ``#`` starts a line comment::

    role hasPrice : concrete(EUR);
    role equipped : abstract closed;
    concept Tablet;
    axiom Tablet SUBSUMED-BY Device;
    axiom A AND B SUBSUMED-BY BOTTOM @ 0.5;
    assert tab_1 : Tablet AND EXISTS hasPrice . GT 200 EUR @ 0.9;
    assert (tab_1, equipment_1) : equipped;
    assert (tab_1, 999 EUR) : hasPrice;

Concept connectives in decreasing binding strength: ``NOT`` and the
quantifiers, then ``AND``, then ``OR``; a quantifier's body is a unary
expression, so ``EXISTS r . A AND B`` is ``(EXISTS r . A) AND B``.  The dot
after a quantified role is optional on input; the serializer always writes
it.  ``concept X EQUIV C;`` / ``concept X SUBSUMED-BY C;`` are sugar for a
declaration plus the corresponding axiom(s).

Parsing never throws on bad input: every problem becomes a
:class:`ParseDiagnostic` with a source span, the parser resynchronizes at
the next ``;``, and a document with any error yields no knowledge base.

Utility boxes live in their own files::

    ubox expert1 {
        InexpensiveTablet = 50;
        UpperclassTablet = 40;
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

from .decision import UtilityBox
from .model import (
    And,
    Atom,
    BOTTOM,
    ConceptExpression,
    ConcreteFact,
    ConcretePredicate,
    DegreeRangeError,
    Exists,
    Forall,
    FuzzyAssertion,
    FuzzyGci,
    KnowledgeBase,
    ModelError,
    Not,
    Or,
    Quantity,
    RoleAssertion,
    RoleDecl,
    TOP,
    Top,
    build_kb,
    make_degree,
)

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import Conflict, DerivationNode, Explanation

# --------------------------------------------------------------------------
# Tokens


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    length: int = 1


class Token(NamedTuple):
    type: str  # "kw" | "ident" | "decimal" | "punct" | "eof"
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        """Built on demand: only a diagnostic reads a token's span."""
        return SourceSpan(self.line, self.column, len(self.text))


_KEYWORDS = frozenset(
    {
        "role", "concept", "axiom", "assert", "ubox",
        "abstract", "concrete", "closed",
        "TOP", "BOTTOM", "NOT", "AND", "OR", "EXISTS", "FORALL",
        "GT", "GE", "LT", "LE", "EQUIV",
    }
)

# How deeply NOTs, quantifiers and parentheses may nest in one concept
# expression.  Parsing, saturation and rendering recurse once or twice per
# level, so a base at this depth runs under Python's default recursion limit
# of 1000; one level deeper is a parse error, not a RecursionError.
MAX_CONCEPT_DEPTH = 100

_COMPARATOR_KW = {"GT": ">", "GE": ">=", "LT": "<", "LE": "<="}
_COMPARATOR_TEXT = {op: kw for kw, op in _COMPARATOR_KW.items()}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<subsumed>SUBSUMED-BY(?![A-Za-z0-9_]))
    | (?P<decimal>-?\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[:;(),@={}.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None = None


@dataclass(frozen=True)
class ParseResult:
    kb: KnowledgeBase | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.kb is not None


@dataclass(frozen=True)
class UboxParseResult:
    ubox: UtilityBox | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.ubox is not None


def _lex(text: str, diagnostics: list[ParseDiagnostic]) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(
                ParseDiagnostic("error", f"unexpected character {text[pos]!r}", SourceSpan(line, col))
            )
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "subsumed" or lexeme in _KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, lexeme, line, col))  # kind: "kw", "ident", "decimal" or "punct"
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _StatementError(Exception):
    """Internal: aborts the current statement; recovery resumes after ';'.

    Raised outside a statement, it ends the whole parse.
    """

    def __init__(self, message: str, span: SourceSpan | None):
        self.diagnostic = ParseDiagnostic("error", message, span)
        super().__init__(message)


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[ParseDiagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.roles: dict[str, RoleDecl] = {}
        self.declared_concepts: list[str] = []
        self.gcis: list[FuzzyGci] = []
        self.assertions: list[FuzzyAssertion] = []
        self.role_assertions: list[RoleAssertion] = []
        self.concrete_facts: list[ConcreteFact] = []
        self._fact_keys: set[tuple[str, str]] = set()

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.type == "kw" and tok.text in words

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.type == "punct" and tok.text == text

    def take_kw(self, *words: str) -> Token:
        if not self.at_kw(*words):
            self._fail(f"expected {' or '.join(repr(w) for w in words)}")
        return self.advance()

    def take_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            self._fail(f"expected {text!r}")
        return self.advance()

    def take_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.type != "ident":
            self._fail(f"expected {what}")
        return self.advance()

    def _fail(self, message: str) -> None:
        tok = self.peek()
        found = "end of input" if tok.type == "eof" else repr(tok.text)
        raise _StatementError(f"{message}, found {found}", tok.span)

    def error(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic("error", message, span))

    def warn(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic("warning", message, span))

    def _sync(self) -> None:
        while not self.at_punct(";") and self.peek().type != "eof":
            self.advance()
        if self.at_punct(";"):
            self.advance()

    # -- documents

    def parse_knowledge_base(self) -> KnowledgeBase | None:
        while self.peek().type != "eof":
            try:
                self.parse_statement()
            except _StatementError as exc:
                self.diagnostics.append(exc.diagnostic)
                self._sync()
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        try:
            return build_kb(
                roles=tuple(self.roles.values()),
                gcis=self.gcis,
                assertions=self.assertions,
                role_assertions=self.role_assertions,
                concrete_facts=self.concrete_facts,
                declared_concepts=self.declared_concepts,
            )
        except (ModelError, DegreeRangeError) as exc:
            raise _StatementError(str(exc), None) from None

    def parse_utility_box(self) -> UtilityBox:
        self.take_kw("ubox")
        expert_id = self.take_ident("an expert name").text
        self.take_punct("{")
        weights: dict[str, Fraction] = {}
        while not self.at_punct("}"):
            attr_tok = self.take_ident("an attribute name")
            self.take_punct("=")
            weight_tok = self.peek()
            if weight_tok.type != "decimal":
                self._fail("expected a weight")
            self.advance()
            self.take_punct(";")
            weight = Fraction(weight_tok.text)
            if weight < 0:
                self.error(f"weight {weight_tok.text} is negative", weight_tok.span)
            elif attr_tok.text in weights:
                self.error(f"attribute {attr_tok.text!r} weighted twice", attr_tok.span)
            else:
                weights[attr_tok.text] = weight
        self.take_punct("}")
        trailing = self.peek()
        if trailing.type != "eof":
            self.error("unexpected content after the utility box", trailing.span)
        return UtilityBox(expert_id, tuple(weights.items()))

    def parse_query(self) -> ConceptExpression:
        concept = self.parse_concept()
        trailing = self.peek()
        if trailing.type != "eof":
            self.error("unexpected content after the concept expression", trailing.span)
        return concept

    def parse_statement(self) -> None:
        tok = self.peek()
        if self.at_kw("role"):
            self.parse_role_decl()
        elif self.at_kw("concept"):
            self.parse_concept_decl()
        elif self.at_kw("axiom"):
            self.parse_axiom()
        elif self.at_kw("assert"):
            self.parse_assertion()
        elif self.at_kw("ubox"):
            raise _StatementError("utility boxes belong in their own file, not in a knowledge base", tok.span)
        else:
            self._fail("expected a statement ('role', 'concept', 'axiom', or 'assert')")

    # -- statements

    def parse_role_decl(self) -> None:
        self.take_kw("role")
        name_tok = self.take_ident("a role name")
        self.take_punct(":")
        if self.at_kw("abstract"):
            self.advance()
            closed = False
            if self.at_kw("closed"):
                self.advance()
                closed = True
            decl = RoleDecl(name_tok.text, "abstract", closed=closed)
        elif self.at_kw("concrete"):
            self.advance()
            self.take_punct("(")
            unit_tok = self.take_ident("a unit symbol")
            self.take_punct(")")
            decl = RoleDecl(name_tok.text, "concrete", unit=unit_tok.text)
        else:
            self._fail("expected 'abstract' or 'concrete'")
        self.take_punct(";")
        if name_tok.text in self.roles:
            self.error(f"role {name_tok.text!r} declared twice", name_tok.span)
            return
        self.roles[name_tok.text] = decl

    def parse_concept_decl(self) -> None:
        self.take_kw("concept")
        name_tok = self.take_ident("a concept name")
        self.declared_concepts.append(name_tok.text)
        if self.at_punct(";"):
            self.advance()
            return
        # sugar: declaration plus axiom(s) in one statement
        self.parse_inclusion(Atom(name_tok.text), "EQUIV", "SUBSUMED-BY")

    def parse_axiom(self) -> None:
        self.take_kw("axiom")
        self.parse_inclusion(self.parse_concept(), "SUBSUMED-BY", "EQUIV")

    def parse_inclusion(self, lhs: ConceptExpression, *operators: str) -> None:
        """The rest of an inclusion after its left side: ``operators`` in the order diagnostics name them."""
        op_tok = self.take_kw(*operators)
        rhs = self.parse_concept()
        degree = self.parse_degree_suffix()
        self.take_punct(";")
        self.gcis.append(FuzzyGci(lhs, rhs, degree))
        if op_tok.text == "EQUIV":  # stored as the two directed inclusions
            self.gcis.append(FuzzyGci(rhs, lhs, degree))

    def parse_assertion(self) -> None:
        self.take_kw("assert")
        if self.at_punct("("):
            self.parse_pair_assertion()
            return
        subject_tok = self.take_ident("an individual name")
        self.take_punct(":")
        concept = self.parse_concept()
        degree_tok = self.peek()
        degree = self.parse_degree_suffix()
        self.take_punct(";")
        if degree == 0:
            self.warn(
                "membership at degree 0 asserts nothing (every membership is at least 0)",
                degree_tok.span,
            )
        self.assertions.append(FuzzyAssertion(subject_tok.text, concept, degree))

    def parse_pair_assertion(self) -> None:
        self.take_punct("(")
        subject_tok = self.take_ident("an individual name")
        self.take_punct(",")
        unit_tok = None  # None: the filler is an individual, not a quantity
        if self.peek().type == "decimal":
            filler_tok = self.advance()
            unit_tok = self.take_ident("a unit symbol")
        else:
            filler_tok = self.take_ident("an individual name or a quantity")
        self.take_punct(")")
        self.take_punct(":")
        role_tok = self.take_ident("a role name")
        self.take_punct(";")
        decl = self._require_role(role_tok)
        subject, role = subject_tok.text, role_tok.text
        if decl.kind != ("abstract" if unit_tok is None else "concrete"):
            filler = "an individual" if decl.kind == "abstract" else "a quantity"
            self.error(f"role {role!r} is {decl.kind}; the filler must be {filler}", role_tok.span)
        elif unit_tok is None:
            self.role_assertions.append(RoleAssertion(subject, filler_tok.text, role))
        elif unit_tok.text != decl.unit:
            self.error(f"unit {unit_tok.text!r} does not match role {role!r} declared in {decl.unit!r}", unit_tok.span)
        elif (subject, role) in self._fact_keys:
            self.error(f"role {role!r} is functional: {subject!r} already has a value", subject_tok.span)
        else:
            self._fact_keys.add((subject, role))
            quantity = Quantity(Fraction(filler_tok.text), unit_tok.text)
            self.concrete_facts.append(ConcreteFact(subject, quantity, role))

    def parse_degree_suffix(self) -> Fraction:
        if not self.at_punct("@"):
            return Fraction(1)
        self.advance()
        tok = self.peek()
        if tok.type != "decimal":
            self._fail("expected a degree after '@'")
        self.advance()
        try:
            return make_degree(Fraction(tok.text), tok.text)
        except DegreeRangeError as exc:
            raise _StatementError(str(exc), tok.span) from None

    # -- concepts (precedence: NOT/quantifiers > AND > OR); ``depth`` counts
    # the NOTs, quantifiers and parentheses around the expression being parsed

    def parse_concept(self, depth: int = 0) -> ConceptExpression:
        parts = [self.parse_and(depth)]
        while self.at_kw("OR"):
            self.advance()
            parts.append(self.parse_and(depth))
        return parts[0] if len(parts) == 1 else Or(*parts)

    def parse_and(self, depth: int) -> ConceptExpression:
        parts = [self.parse_unary(depth)]
        while self.at_kw("AND"):
            self.advance()
            parts.append(self.parse_unary(depth))
        return parts[0] if len(parts) == 1 else And(*parts)

    def parse_unary(self, depth: int) -> ConceptExpression:
        tok = self.peek()
        if depth > MAX_CONCEPT_DEPTH:
            raise _StatementError(f"concept expression nested deeper than {MAX_CONCEPT_DEPTH} levels", tok.span)
        if self.at_kw("NOT"):
            self.advance()
            return Not(self.parse_unary(depth + 1))
        if self.at_kw("EXISTS", "FORALL"):
            quantifier = self.advance().text
            role_tok = self.take_ident("a role name")
            if self.at_punct("."):
                self.advance()
            decl = self._require_role(role_tok)
            if decl.kind == "abstract":
                body = self.parse_unary(depth + 1)
                return Exists(role_tok.text, body) if quantifier == "EXISTS" else Forall(role_tok.text, body)
            if quantifier == "FORALL":
                raise _StatementError(
                    f"value restrictions require an abstract role, {role_tok.text!r} is concrete",
                    role_tok.span,
                )
            return Exists(role_tok.text, self.parse_comparator(decl, role_tok))
        if self.at_kw("TOP"):
            self.advance()
            return TOP
        if self.at_kw("BOTTOM"):
            self.advance()
            return BOTTOM
        if self.at_punct("("):
            self.advance()
            expr = self.parse_concept(depth + 1)
            self.take_punct(")")
            return expr
        if tok.type == "ident":
            self.advance()
            return Atom(tok.text)
        self._fail("expected a concept expression")
        raise AssertionError("unreachable")

    def parse_comparator(self, decl: RoleDecl, role_tok: Token) -> ConcretePredicate:
        if not self.at_kw("GT", "GE", "LT", "LE"):
            raise _StatementError(
                f"role {role_tok.text!r} is concrete: expected a comparator (GT, GE, LT, or LE)",
                self.peek().span,
            )
        op_tok = self.advance()
        value_tok = self.peek()
        if value_tok.type != "decimal":
            self._fail("expected a threshold value")
        self.advance()
        unit_tok = self.take_ident("a unit symbol")
        if unit_tok.text != decl.unit:
            raise _StatementError(
                f"unit {unit_tok.text!r} does not match role {role_tok.text!r} declared in {decl.unit!r}",
                unit_tok.span,
            )
        return ConcretePredicate(_COMPARATOR_KW[op_tok.text], Quantity(Fraction(value_tok.text), unit_tok.text))

    def _require_role(self, role_tok: Token) -> RoleDecl:
        decl = self.roles.get(role_tok.text)
        if decl is None:
            raise _StatementError(f"role {role_tok.text!r} is not declared", role_tok.span)
        return decl


_T = TypeVar("_T")


def _parse(
    text: str, body: Callable[[_Parser], _T], roles: dict[str, RoleDecl] | None = None
) -> tuple[_T | None, tuple[ParseDiagnostic, ...]]:
    """Lex ``text``, run ``body`` on a parser over the tokens, and collect the diagnostics.

    ``body`` reports a problem by recording a diagnostic or by raising
    :class:`_StatementError`; after any error-severity diagnostic its result
    is dropped.
    """
    diagnostics: list[ParseDiagnostic] = []
    parser = _Parser(_lex(text, diagnostics), diagnostics)
    parser.roles.update(roles or {})
    result = None
    try:
        result = body(parser)
    except _StatementError as exc:
        diagnostics.append(exc.diagnostic)
    if any(d.severity == "error" for d in diagnostics):
        result = None
    return result, tuple(diagnostics)


def parse_kb(text: str) -> ParseResult:
    """Parse a knowledge-base document.

    Returns the KB together with all diagnostics; any error-severity
    diagnostic means no KB is returned.  Warnings alone do not block.
    """
    return ParseResult(*_parse(text, _Parser.parse_knowledge_base))


def parse_ubox(text: str) -> UboxParseResult:
    """Parse a utility-box file: one ``ubox NAME { attr = weight; ... }`` block."""
    return UboxParseResult(*_parse(text, _Parser.parse_utility_box))


@dataclass(frozen=True)
class ConceptParseResult:
    concept: ConceptExpression | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.concept is not None


def parse_concept_text(text: str, roles: dict[str, RoleDecl] | None = None) -> ConceptParseResult:
    """Parse a bare concept expression, e.g. a query from the command line.

    Role uses are checked against the given role table (typically the one
    from an already-parsed knowledge base).
    """
    return ConceptParseResult(*_parse(text, _Parser.parse_query, roles))


# --------------------------------------------------------------------------
# Serializer


def render_decimal(value: Fraction) -> str:
    """Exact decimal text when the denominator allows it, ``num/den`` otherwise.

    Degrees and quantities that entered through the parser always render as
    plain decimals (their denominators are powers of 2 and 5 by
    construction); only programmatically built values like 1/3 fall back to
    the fraction form, which the grammar does not re-read.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    scaled = abs(num) * 10**k // den
    digits = str(scaled).rjust(k + 1, "0")
    whole, frac = digits[:-k], digits[-k:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def render_quantity(q: Quantity) -> str:
    return f"{render_decimal(q.magnitude)} {q.unit}"


# precedence levels used when deciding parentheses
_LEVEL_OR = 0
_LEVEL_AND = 1
_LEVEL_UNARY = 2


def _level(expr: ConceptExpression) -> int:
    if isinstance(expr, Or):
        return _LEVEL_OR
    if isinstance(expr, And):
        return _LEVEL_AND
    return _LEVEL_UNARY


def _render(expr: ConceptExpression, minimum: int) -> str:
    # a child of its parent's own kind (unnormalized input) renders flat
    if isinstance(expr, Or):
        text = " OR ".join(_render(c, _LEVEL_OR) for c in expr.parts)
    elif isinstance(expr, And):
        text = " AND ".join(_render(c, _LEVEL_AND) for c in expr.parts)
    elif isinstance(expr, Not):
        text = f"NOT {_render(expr.body, _LEVEL_UNARY)}"
    elif isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            p = expr.target
            text = f"EXISTS {expr.role} . {_COMPARATOR_TEXT[p.op]} {render_quantity(p.threshold)}"
        else:
            text = f"EXISTS {expr.role} . {_render(expr.target, _LEVEL_UNARY)}"
    elif isinstance(expr, Forall):
        text = f"FORALL {expr.role} . {_render(expr.body, _LEVEL_UNARY)}"
    elif isinstance(expr, Atom):
        text = expr.name
    elif isinstance(expr, Top):
        text = "TOP"
    else:
        text = "BOTTOM"
    if _level(expr) < minimum:
        return f"({text})"
    return text


def render_concept(expr: ConceptExpression) -> str:
    """Concept expression as surface text, minimally parenthesized."""
    return _render(expr, _LEVEL_OR)


def _degree_suffix(degree: Fraction) -> str:
    return "" if degree == 1 else f" @ {render_decimal(degree)}"


def render_statement(statement: object) -> str:
    """One statement back as source text (without the trailing newline)."""
    if isinstance(statement, RoleDecl):
        if statement.kind == "abstract":
            suffix = " closed" if statement.closed else ""
            return f"role {statement.name} : abstract{suffix};"
        return f"role {statement.name} : concrete({statement.unit});"
    if isinstance(statement, FuzzyGci):
        return (
            f"axiom {render_concept(statement.lhs)} SUBSUMED-BY "
            f"{render_concept(statement.rhs)}{_degree_suffix(statement.degree)};"
        )
    if isinstance(statement, FuzzyAssertion):
        return f"assert {statement.individual} : {render_concept(statement.concept)}{_degree_suffix(statement.degree)};"
    if isinstance(statement, RoleAssertion):
        return f"assert ({statement.subject}, {statement.filler}) : {statement.role};"
    if isinstance(statement, ConcreteFact):
        return f"assert ({statement.subject}, {render_quantity(statement.value)}) : {statement.role};"
    raise TypeError(f"not a knowledge-base statement: {statement!r}")


def _step_text(node: "DerivationNode") -> str:
    op = ">=" if node.kind == "lo" else "<="
    head = f"{node.kind}({node.individual}, {render_concept(node.expr)}) {op} {render_decimal(node.value)}"
    details = [node.rule]
    if node.source is not None:
        details.append(render_statement(node.source))
    if node.note:
        details.append(node.note)
    return f"{head}   [{'; '.join(details)}]"


def _explanation_lines(explanation: "Explanation", indent: int) -> list[str]:
    # Each step's premises are indented beneath it.  A step printed earlier
    # (shared, or a back-reference in a cycle) gets its line again, marked
    # "(see above)", but is not expanded twice.
    by_key = {(n.individual, n.expr, n.kind): n for n in explanation.steps}
    printed: set[tuple] = set()
    lines: list[str] = []
    stack = [((explanation.individual, explanation.expr, explanation.kind), indent)]
    while stack:
        key, depth = stack.pop()
        node = by_key[key]
        line = "  " * depth + _step_text(node)
        if key in printed:
            lines.append(line + "  (see above)")
            continue
        printed.add(key)
        lines.append(line)
        stack.extend((p, depth + 1) for p in reversed(node.premises))
    return lines


def format_explanation(explanation: "Explanation") -> str:
    """The derivations behind a bound, one line each, premises indented."""
    return "\n".join(_explanation_lines(explanation, 0))


def format_conflict(conflict: "Conflict") -> str:
    """Both clashing bounds of a conflict, each with its explanation."""
    lines = [
        f"conflict on {conflict.individual!r} in {render_concept(conflict.expr)}: "
        f"membership forced >= {render_decimal(conflict.lo_value)} and <= {render_decimal(conflict.hi_value)}",
        "lower bound:",
    ]
    lines.extend(_explanation_lines(conflict.lo_explanation, 1))
    lines.append("upper bound:")
    lines.extend(_explanation_lines(conflict.hi_explanation, 1))
    return "\n".join(lines)


def serialize_kb(kb: KnowledgeBase) -> str:
    """Canonical text for a knowledge base; re-parsing yields an equal KB."""
    lines: list[str] = []
    for decl in kb.roles.values():
        lines.append(render_statement(decl))
    for name in sorted(kb.declared_concepts):
        lines.append(f"concept {name};")
    for gci in kb.gcis:
        lines.append(render_statement(gci))
    for fa in kb.assertions:
        lines.append(render_statement(fa))
    for ra in kb.role_assertions:
        lines.append(render_statement(ra))
    for cf in kb.concrete_facts:
        lines.append(render_statement(cf))
    return "\n".join(lines) + "\n"


def serialize_ubox(ubox: UtilityBox) -> str:
    lines = [f"ubox {ubox.expert_id} {{"]
    for attr, weight in ubox.entries:
        lines.append(f"    {attr} = {render_decimal(weight)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
