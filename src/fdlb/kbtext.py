"""Textual knowledge-base format: lexer, parser, rendering, and explanation text.

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
after a quantified role is optional on input; :func:`render_concept` always
writes it.  ``concept X EQUIV C;`` / ``concept X SUBSUMED-BY C;`` are sugar
for a declaration plus the corresponding axiom(s).

Parsing never throws on bad input: every problem becomes a
:class:`ParseDiagnostic` with a source span, the parser resynchronizes at
the next ``;``, and a document with any error yields no knowledge base.
Each statement is checked once, as it is read, by the rules of a
well-formed base that ``model`` and ``decision`` define (and
:func:`~fdlb.model.build_kb` runs on a base built in code), and a broken
rule's message points at its token.

A knowledge base is read statement by statement.  At each statement start
one compiled pattern tries the four common assertions, ``assert (x, y) :
r;``, ``assert (x, N U) : r;``, ``assert x : C @ d;`` and ``assert x :
C;``, with plain whitespace between their tokens, and a match runs the
statement's rules on its fields.  A miss, a keyword spelled as a name, a
degree of 0 or a broken rule sends the statement to the token walk from the
same offset, so every diagnostic comes from one place.  Each run of
consecutive statements the token walk reads is lexed by one ``findall``
whose every match is a token and the whitespace and comments after it.  A
token is its text, whose kind follows from it (an identifier spelled like a
keyword is the keyword); ``""`` ends the run.  Positions are not tracked:
the first diagnostic in a run scans it again for token offsets, and the
first of a parse builds a table of line starts.  Unexpected characters are
reported ahead of every other diagnostic.  Each distinct number literal
becomes a ``Fraction`` once.

Utility boxes live in their own files::

    ubox expert1 {
        InexpensiveTablet = 50;
        UpperclassTablet = 40;
    }
"""

import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

from .decision import UtilityBox, add_weight, check_weight
from .model import (
    And,
    Atom,
    BOTTOM,
    ConceptExpression,
    ConcreteFact,
    ConcretePredicate,
    Exists,
    FdlbError,
    Forall,
    FuzzyAssertion,
    FuzzyGci,
    KnowledgeBase,
    Not,
    ONE,
    Or,
    Quantity,
    RoleAssertion,
    RoleDecl,
    TOP,
    Top,
    add_value,
    assemble_kb,
    check_role_use,
    check_unit,
    declare_role,
    declared_role,
    make_degree,
)

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import Conflict, DerivationNode, Explanation

# --------------------------------------------------------------------------
# Tokens


class SourceSpan(NamedTuple):
    line: int  # 1-based
    column: int  # 1-based
    length: int = 1


_KEYWORDS = frozenset(
    {
        "role", "concept", "axiom", "assert", "ubox",
        "abstract", "concrete", "closed",
        "TOP", "BOTTOM", "NOT", "AND", "OR", "EXISTS", "FORALL",
        "GT", "GE", "LT", "LE", "EQUIV", "SUBSUMED-BY",
    }
)

# How deeply NOTs, quantifiers and parentheses may nest in one concept
# expression.  Parsing recurses a few frames per level, and comparing two
# sort keys (``model.sort_key``, nested tuples) one C-level call per level,
# so a base at this depth runs under Python's default recursion limit of
# 1000; one level deeper is a parse error, not a RecursionError.  Building
# and rendering an expression do not recurse.
MAX_CONCEPT_DEPTH = 100

_COMPARATOR_KW = {"GT": ">", "GE": ">=", "LT": "<", "LE": "<="}
_COMPARATOR_TEXT = {op: kw for kw, op in _COMPARATOR_KW.items()}

# Whitespace, then comments each followed by whitespace.  Nothing follows
# the skip in either pattern, so it never backtracks.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_LEADING_SKIP_RE = re.compile(_SKIP)
# One match per token, together with the skipped text after it.  Group 1 is
# the token; a match without it is one character that starts no token.
_TOKEN_RE = re.compile(
    r"(?:(SUBSUMED-BY(?![A-Za-z0-9_])|[A-Za-z_][A-Za-z0-9_]*|[:;(),@={}.]|-?\d+(?:\.\d+)?)|.)" + _SKIP
)
# A statement: through the first ';' outside a comment (or to the end of
# the input), and the skipped text after it.
_STATEMENT_RE = re.compile(r"[^;#]*(?:#[^\n]*[^;#]*)*;?" + _SKIP)
# The four common assertions, with plain whitespace between their tokens:
# ``(x, y) : r``, ``(x, N U) : r``, ``x : C @ d`` and ``x : C``.  The
# groups are subject, filler, magnitude, unit, role; individual, concept,
# degree.  A name may still be a keyword.
_NAME, _NUMBER, _WS = r"([A-Za-z_][A-Za-z0-9_]*)", r"(-?\d+(?:\.\d+)?)", r"[ \t\r\n]*"
_ASSERTION_RE = re.compile(
    rf"assert(?:{_WS}\({_WS}{_NAME}{_WS},{_WS}(?:{_NAME}|{_NUMBER}{_WS}{_NAME}){_WS}\){_WS}:{_WS}{_NAME}"
    rf"|[ \t\r\n]+{_NAME}{_WS}:{_WS}{_NAME}(?:{_WS}@{_WS}{_NUMBER})?){_WS};" + _SKIP
)


def _is_ident(tok: str) -> bool:
    return tok.isidentifier() and tok not in _KEYWORDS


def _is_number(tok: str) -> bool:
    return tok[:1].isdigit() or tok[:1] == "-"


_T = TypeVar("_T")


class ParseDiagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None = None


class ParseResult(NamedTuple):
    kb: KnowledgeBase | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.kb is not None


class UboxParseResult(NamedTuple):
    ubox: UtilityBox | None
    diagnostics: tuple[ParseDiagnostic, ...]


# --------------------------------------------------------------------------
# Parser


class _StatementError(Exception):
    """Internal: aborts the current statement; recovery resumes after ';'.

    Raised outside a statement, it ends the whole parse.
    """

    def __init__(self, message: str, span: SourceSpan):
        self.diagnostic = ParseDiagnostic("error", message, span)
        super().__init__(message)


class _Parser:
    """Recursive descent over the token texts of a stretch of ``text``; ``""`` is its end.

    Unexpected characters are reported in ``lex_errors``, ahead of every
    other diagnostic.
    """

    def __init__(self, text: str):
        self.text = text
        self.lex_errors: list[ParseDiagnostic] = []
        self.diagnostics: list[ParseDiagnostic] = []
        self._start = _LEADING_SKIP_RE.match(text).end()
        self._numbers: dict[str, Fraction] = {}
        self.roles: dict[str, RoleDecl] = {}
        self.declared_concepts: list[str] = []
        self.gcis: list[FuzzyGci] = []
        self.assertions: list[FuzzyAssertion] = []
        self.role_assertions: list[RoleAssertion] = []
        self.concrete_facts: list[ConcreteFact] = []
        self._valued: set[tuple[str, str]] = set()

    # -- tokens and their positions

    def _lex(self, start: int, end: int) -> None:
        """Walk the tokens of ``text[start:end]`` next, which starts a token and ends the input or a statement."""
        tokens = _TOKEN_RE.findall(self.text, start, end)
        if "" in tokens:  # characters that start no token
            for m in _TOKEN_RE.finditer(self.text, start, end):
                if m.lastindex is None:
                    message = f"unexpected character {self.text[m.start()]!r}"
                    self.lex_errors.append(ParseDiagnostic("error", message, self._span_at(m.start(), 1)))
            tokens = [tok for tok in tokens if tok]
        tokens.append("")
        self.tokens, self.pos, self._bounds, self._offsets = tokens, 0, (start, end), None

    @cached_property
    def _line_starts(self) -> list[int]:
        return [0, *(m.end() for m in re.finditer("\n", self.text))]

    def span(self, i: int) -> SourceSpan:
        if self._offsets is None:  # where each token starts, found by scanning again: only a diagnostic asks
            start, end = self._bounds
            self._offsets = [m.start() for m in _TOKEN_RE.finditer(self.text, start, end) if m.lastindex] + [end]
        return self._span_at(self._offsets[i], len(self.tokens[i]))

    def _span_at(self, offset: int, length: int) -> SourceSpan:
        line = bisect_right(self._line_starts, offset)
        return SourceSpan(line, offset - self._line_starts[line - 1] + 1, length)

    def number(self, literal: str) -> Fraction:
        """The value of a number literal, converted once per distinct text; an integer skips ``Fraction``'s parser."""
        value = self._numbers.get(literal)
        if value is None:
            value = self._numbers[literal] = Fraction(literal) if "." in literal else Fraction(int(literal))
        return value

    # -- token plumbing

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def at(self, *texts: str) -> bool:
        return self.tokens[self.pos] in texts

    def take(self, *texts: str) -> str:
        tok = self.tokens[self.pos]
        if tok not in texts:
            self._fail(f"expected {' or '.join(repr(t) for t in texts)}")
        self.pos += 1
        return tok

    def take_ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if not _is_ident(tok):
            self._fail(f"expected {what}")
        self.pos += 1
        return tok

    def take_number(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if not _is_number(tok):
            self._fail(f"expected {what}")
        self.pos += 1
        return tok

    def _fail(self, message: str) -> None:
        tok = self.tokens[self.pos]
        found = repr(tok) if tok else "end of input"
        raise _StatementError(f"{message}, found {found}", self.span(self.pos))

    def error(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic("error", message, span))

    def warn(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic("warning", message, span))

    def require(self, at: int, rule: Callable[..., _T], *args: object) -> _T:
        """``rule(*args)``: a rule it finds broken aborts the statement, its message an error at token ``at``."""
        try:
            return rule(*args)
        except FdlbError as exc:
            raise _StatementError(str(exc), self.span(at)) from None

    def passes(self, at: int, rule: Callable[..., object], *args: object) -> bool:
        """Whether ``rule(*args)`` holds; if not, its message is recorded as an error at token ``at``."""
        try:
            rule(*args)
        except FdlbError as exc:
            self.error(str(exc), self.span(at))
            return False
        return True

    def _sync(self) -> None:
        try:  # to just after the next ';', or to the end of input
            self.pos = self.tokens.index(";", self.pos) + 1
        except ValueError:
            self.pos = len(self.tokens) - 1

    # -- documents

    def parse_knowledge_base(self) -> KnowledgeBase | None:
        """Statement by statement: a common assertion in one match, a run of others by the token walk."""
        text, end = self.text, len(self.text)
        pos = self._start
        missed = None  # where the run of statements left to the token walk starts
        while pos < end:
            m = _ASSERTION_RE.match(text, pos)
            if m is not None:
                if missed is not None:
                    self._parse_statements(missed, pos)
                    missed = None
                if self._assert(m):
                    pos = m.end()
                    continue
            if missed is None:
                missed = pos
            pos = _STATEMENT_RE.match(text, pos).end() if m is None else m.end()
        if missed is not None:
            self._parse_statements(missed, end)
        if self.lex_errors or any(d.severity == "error" for d in self.diagnostics):
            return None
        return assemble_kb(
            self.roles, self.gcis, self.assertions, self.role_assertions, self.concrete_facts, self.declared_concepts
        )

    def _parse_statements(self, start: int, end: int) -> None:
        self._lex(start, end)
        while self.tokens[self.pos]:
            try:
                self.parse_statement()
            except _StatementError as exc:
                self.diagnostics.append(exc.diagnostic)
                self._sync()

    def _assert(self, m: re.Match) -> bool:
        """Add the assertion ``_ASSERTION_RE`` matched, by the rules the token walk runs.

        False, and nothing added, when the token walk must read it instead:
        a keyword spelled as a name, a degree of 0 (a warning), or a broken
        rule (an error), each reported at its token.
        """
        fields = m.groups()
        if not _KEYWORDS.isdisjoint(fields):
            return False
        subject, filler, magnitude, unit, role, individual, concept, degree = fields
        try:
            if role is None:
                value = ONE if degree is None else make_degree(self.number(degree), degree)
                if not value:
                    return False
                self.assertions.append(FuzzyAssertion(individual, Atom(concept), value))
            elif unit is None:
                check_role_use(declared_role(self.roles, role), "individual")
                self.role_assertions.append(RoleAssertion(subject, filler, role))
            else:
                decl = declared_role(self.roles, role)
                check_role_use(decl, "quantity")
                check_unit(decl, unit)
                add_value(self._valued, subject, role)
                self.concrete_facts.append(ConcreteFact(subject, Quantity(self.number(magnitude), unit), role))
        except FdlbError:
            return False
        return True

    def parse_utility_box(self) -> UtilityBox:
        self._lex(self._start, len(self.text))
        self.take("ubox")
        expert_id = self.take_ident("an expert name")
        self.take("{")
        weights: dict[str, Fraction] = {}
        while not self.at("}"):
            attr_at = self.pos
            attr = self.take_ident("an attribute name")
            self.take("=")
            weight_at = self.pos
            literal = self.take_number("a weight")
            self.take(";")
            weight = self.number(literal)
            if self.passes(weight_at, check_weight, weight, literal):
                self.passes(attr_at, add_weight, weights, attr, weight)
        self.take("}")
        if self.peek():
            self.error("unexpected content after the utility box", self.span(self.pos))
        return UtilityBox._make((expert_id, tuple(weights.items())))  # the weights are checked

    def parse_query(self) -> ConceptExpression:
        self._lex(self._start, len(self.text))
        concept = self.parse_concept()
        if self.peek():
            self.error("unexpected content after the concept expression", self.span(self.pos))
        return concept

    def parse_statement(self) -> None:
        tok = self.tokens[self.pos]
        if tok == "role":
            self.parse_role_decl()
        elif tok == "concept":
            self.parse_concept_decl()
        elif tok == "axiom":
            self.parse_axiom()
        elif tok == "assert":
            self.parse_assertion()
        elif tok == "ubox":
            raise _StatementError(
                "utility boxes belong in their own file, not in a knowledge base", self.span(self.pos)
            )
        else:
            self._fail("expected a statement ('role', 'concept', 'axiom', or 'assert')")

    # -- statements

    def parse_role_decl(self) -> None:
        self.take("role")
        name_at = self.pos
        name = self.take_ident("a role name")
        self.take(":")
        if self.at("abstract"):
            self.advance()
            closed = self.at("closed")
            if closed:
                self.advance()
            decl = RoleDecl(name, "abstract", closed=closed)
        elif self.at("concrete"):
            self.advance()
            self.take("(")
            unit = self.take_ident("a unit symbol")
            self.take(")")
            decl = RoleDecl(name, "concrete", unit=unit)
        else:
            self._fail("expected 'abstract' or 'concrete'")
        self.take(";")
        self.passes(name_at, declare_role, self.roles, decl)

    def parse_concept_decl(self) -> None:
        self.take("concept")
        name = self.take_ident("a concept name")
        self.declared_concepts.append(name)
        if self.at(";"):
            self.advance()
            return
        # sugar: declaration plus axiom(s) in one statement
        self.parse_inclusion(Atom(name), "EQUIV", "SUBSUMED-BY")

    def parse_axiom(self) -> None:
        self.take("axiom")
        self.parse_inclusion(self.parse_concept(), "SUBSUMED-BY", "EQUIV")

    def parse_inclusion(self, lhs: ConceptExpression, *operators: str) -> None:
        """The rest of an inclusion after its left side: ``operators`` in the order diagnostics name them."""
        op = self.take(*operators)
        rhs = self.parse_concept()
        degree = self.parse_degree_suffix()
        self.take(";")
        self.gcis.append(FuzzyGci(lhs, rhs, degree))
        if op == "EQUIV":  # stored as the two directed inclusions
            self.gcis.append(FuzzyGci(rhs, lhs, degree))

    def parse_assertion(self) -> None:
        self.take("assert")
        if self.at("("):
            self.parse_pair_assertion()
            return
        subject = self.take_ident("an individual name")
        self.take(":")
        concept = self.parse_concept()
        degree_at = self.pos
        degree = self.parse_degree_suffix()
        self.take(";")
        if degree == 0:
            self.warn(
                "membership at degree 0 asserts nothing (every membership is at least 0)",
                self.span(degree_at),
            )
        self.assertions.append(FuzzyAssertion(subject, concept, degree))

    def parse_pair_assertion(self) -> None:
        self.take("(")
        subject_at = self.pos
        subject = self.take_ident("an individual name")
        self.take(",")
        unit = None  # None: the filler is an individual, not a quantity
        if _is_number(self.peek()):
            filler = self.advance()
            unit_at = self.pos
            unit = self.take_ident("a unit symbol")
        else:
            filler = self.take_ident("an individual name or a quantity")
        self.take(")")
        self.take(":")
        role_at = self.pos
        role = self.take_ident("a role name")
        self.take(";")
        if not self.passes(role_at, declared_role, self.roles, role):
            return  # the statement is over: the next one parses as usual
        decl = self.roles[role]
        if unit is None:
            if self.passes(role_at, check_role_use, decl, "individual"):
                self.role_assertions.append(RoleAssertion(subject, filler, role))
        elif (self.passes(role_at, check_role_use, decl, "quantity") and self.passes(unit_at, check_unit, decl, unit)
              and self.passes(subject_at, add_value, self._valued, subject, role)):
            self.concrete_facts.append(ConcreteFact(subject, Quantity(self.number(filler), unit), role))

    def parse_degree_suffix(self) -> Fraction:
        if not self.at("@"):
            return ONE
        self.advance()
        degree_at = self.pos
        literal = self.take_number("a degree after '@'")
        return self.require(degree_at, make_degree, self.number(literal), literal)

    # -- concepts (precedence: NOT/quantifiers > AND > OR); ``depth`` counts
    # the NOTs, quantifiers and parentheses around the expression being parsed

    def parse_concept(self, depth: int = 0) -> ConceptExpression:
        parts = [self.parse_and(depth)]
        while self.tokens[self.pos] == "OR":
            self.pos += 1
            parts.append(self.parse_and(depth))
        return parts[0] if len(parts) == 1 else Or(*parts)

    def parse_and(self, depth: int) -> ConceptExpression:
        parts = [self.parse_unary(depth)]
        while self.tokens[self.pos] == "AND":
            self.pos += 1
            parts.append(self.parse_unary(depth))
        return parts[0] if len(parts) == 1 else And(*parts)

    def parse_unary(self, depth: int) -> ConceptExpression:
        tok = self.tokens[self.pos]
        if depth > MAX_CONCEPT_DEPTH:
            message = f"concept expression nested deeper than {MAX_CONCEPT_DEPTH} levels"
            raise _StatementError(message, self.span(self.pos))
        if _is_ident(tok):
            self.pos += 1
            return Atom(tok)
        if tok == "NOT":
            self.pos += 1
            return Not(self.parse_unary(depth + 1))
        if tok == "EXISTS" or tok == "FORALL":
            self.pos += 1
            role_at = self.pos
            role = self.take_ident("a role name")
            if self.at("."):
                self.advance()
            decl = self.require(role_at, declared_role, self.roles, role)
            if tok == "EXISTS" and decl.kind == "concrete" and self.peek() in _COMPARATOR_KW:
                return Exists(role, self.parse_comparator(decl))
            # a concrete role: FORALL's error is at the role, EXISTS's at the missing comparator
            self.require(role_at if tok == "FORALL" else self.pos, check_role_use, decl, tok)
            body = self.parse_unary(depth + 1)
            return Exists(role, body) if tok == "EXISTS" else Forall(role, body)
        if tok == "TOP":
            self.pos += 1
            return TOP
        if tok == "BOTTOM":
            self.pos += 1
            return BOTTOM
        if tok == "(":
            self.pos += 1
            expr = self.parse_concept(depth + 1)
            self.take(")")
            return expr
        self._fail("expected a concept expression")
        raise AssertionError("unreachable")

    def parse_comparator(self, decl: RoleDecl) -> ConcretePredicate:
        op = self.advance()
        literal = self.take_number("a threshold value")
        unit_at = self.pos
        unit = self.take_ident("a unit symbol")
        self.require(unit_at, check_unit, decl, unit)
        return ConcretePredicate(_COMPARATOR_KW[op], Quantity(self.number(literal), unit))


def _parse(
    text: str, body: Callable[[_Parser], _T], roles: dict[str, RoleDecl] | None = None
) -> tuple[_T | None, tuple[ParseDiagnostic, ...]]:
    """Lex ``text``, run ``body`` on a parser over the tokens, and collect the diagnostics.

    ``body`` reports a problem by recording a diagnostic or by raising
    :class:`_StatementError`; after any error-severity diagnostic its result
    is dropped.
    """
    parser = _Parser(text)
    parser.roles.update(roles or {})
    result = None
    try:
        result = body(parser)
    except _StatementError as exc:
        parser.diagnostics.append(exc.diagnostic)
    diagnostics = (*parser.lex_errors, *parser.diagnostics)
    if any(d.severity == "error" for d in diagnostics):
        result = None
    return result, diagnostics


def parse_kb(text: str) -> ParseResult:
    """Parse a knowledge-base document.

    Returns the KB together with all diagnostics; any error-severity
    diagnostic means no KB is returned.  Warnings alone do not block.
    """
    return ParseResult(*_parse(text, _Parser.parse_knowledge_base))


def parse_ubox(text: str) -> UboxParseResult:
    """Parse a utility-box file: one ``ubox NAME { attr = weight; ... }`` block."""
    return UboxParseResult(*_parse(text, _Parser.parse_utility_box))


class ConceptParseResult(NamedTuple):
    concept: ConceptExpression | None
    diagnostics: tuple[ParseDiagnostic, ...]


def parse_concept_text(text: str, roles: dict[str, RoleDecl] | None = None) -> ConceptParseResult:
    """Parse a bare concept expression, e.g. a query from the command line.

    Role uses are checked against the given role table (typically the one
    from an already-parsed knowledge base).
    """
    return ConceptParseResult(*_parse(text, _Parser.parse_query, roles))


# --------------------------------------------------------------------------
# Rendering


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


def render_concept(expr: ConceptExpression) -> str:
    """Concept expression as surface text, minimally parenthesized.

    Written without recursion, so no nesting depth reaches Python's
    recursion limit: each node's first or only child is written next, and
    the text and the other parts that follow it wait on an explicit stack.
    Only an ``AND`` or ``OR`` below its level is parenthesized.
    """
    out: list[str] = []
    todo: list[str | tuple[ConceptExpression, int]] = [(expr, _LEVEL_OR)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, minimum = item  # minimum: the lowest level written without parentheses
        while node is not None:
            if isinstance(node, Atom):
                out.append(node.name)
                node = None
            elif isinstance(node, (And, Or)):
                level, joint = (_LEVEL_AND, " AND ") if isinstance(node, And) else (_LEVEL_OR, " OR ")
                if level < minimum:
                    out.append("(")
                    todo.append(")")
                # each part is written at this node's level; none is of the node's own kind
                for part in reversed(node.parts[1:]):
                    todo += ((part, level), joint)
                node, minimum = (node.parts[0], level) if node.parts else (None, level)
            elif isinstance(node, Not):
                out.append("NOT ")
                node, minimum = node.body, _LEVEL_UNARY
            elif isinstance(node, Forall):
                out.append(f"FORALL {node.role} . ")
                node, minimum = node.body, _LEVEL_UNARY
            elif isinstance(node, Exists) and isinstance(node.target, ConcretePredicate):
                p = node.target
                out.append(f"EXISTS {node.role} . {_COMPARATOR_TEXT[p.op]} {render_quantity(p.threshold)}")
                node = None
            elif isinstance(node, Exists):
                out.append(f"EXISTS {node.role} . ")
                node, minimum = node.target, _LEVEL_UNARY
            else:
                out.append("TOP" if isinstance(node, Top) else "BOTTOM")
                node = None
    return "".join(out)


def _degree_suffix(degree: Fraction) -> str:
    return "" if degree == 1 else f" @ {render_decimal(degree)}"


def render_statement(statement: object) -> str:
    """An inclusion, assertion or fact (a derivation's source) back as source text, without the newline."""
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
    steps, printed = explanation.steps, set()
    lines: list[str] = []
    stack = [(0, indent)]
    while stack:
        i, depth = stack.pop()
        line = "  " * depth + _step_text(steps[i])
        if i in printed:
            lines.append(line + "  (see above)")
            continue
        printed.add(i)
        lines.append(line)
        stack.extend((p, depth + 1) for p in reversed(steps[i].premises))
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
