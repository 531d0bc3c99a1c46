import ast
import gc
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fdlb import model
from fdlb.kbtext import (
    MAX_CONCEPT_DEPTH,
    format_conflict,
    format_explanation,
    parse_concept_text,
    parse_kb,
    parse_ubox,
    render_concept,
    render_decimal,
    render_statement,
)
from fdlb.decision import UtilityBox
from fdlb.model import (
    And,
    Atom,
    BOTTOM,
    ConcreteFact,
    ConcretePredicate,
    Exists,
    FdlbError,
    Forall,
    FuzzyGci,
    Not,
    Or,
    Quantity,
    RoleAssertion,
    RoleDecl,
    TOP,
    build_kb,
)
from fdlb.reasoner import Conflict, DerivationNode, Explanation, saturate

from kbtools import kb_equal, serialize_kb, serialize_ubox

GOOD = """
# a comment
role r : abstract;
role s : abstract closed;
role m : concrete(u);
concept Declared;
axiom A SUBSUMED-BY B @ 0.7;
axiom C EQUIV NOT A AND EXISTS r . B;
concept D SUBSUMED-BY A OR B;
assert x : FORALL s . (A OR NOT B) @ 0.25;
assert (x, y) : r;
assert (x, 710 u) : m;
assert y : EXISTS m . LE 900 u;
"""


def test_parse_good_document():
    result = parse_kb(GOOD)
    assert result.ok and not result.diagnostics
    kb = result.kb
    assert set(kb.roles) == {"r", "s", "m"}
    assert kb.roles["s"].closed
    # EQUIV split into two inclusions, concept sugar adds one more
    assert len(kb.gcis) == 4
    assert kb.individuals == ("x", "y")
    assert "Declared" in kb.declared_concepts


def test_parse_precedence():
    kb = parse_kb("role r : abstract;\naxiom NOT A AND B OR C SUBSUMED-BY EXISTS r . A AND B;").kb
    gci = kb.gcis[0]
    assert isinstance(gci.lhs, Or)  # OR binds loosest
    assert gci.lhs == parse_kb("role r : abstract;\naxiom (NOT A AND B) OR C SUBSUMED-BY TOP;").kb.gcis[0].lhs
    # quantifier body is unary: EXISTS r . A AND B == (EXISTS r . A) AND B
    assert isinstance(gci.rhs, And)
    assert Exists("r", Atom("A")) in gci.rhs.parts
    three = parse_kb("axiom A AND B AND C SUBSUMED-BY D;").kb.gcis[0].lhs
    assert three == And(Atom("A"), Atom("B"), Atom("C"))


def test_parse_optional_dot_after_quantified_role():
    with_dot = parse_kb("role r : abstract;\nassert x : EXISTS r . A;").kb
    without = parse_kb("role r : abstract;\nassert x : EXISTS r A;").kb
    assert kb_equal(with_dot, without)


def test_degree_defaults_to_one():
    kb = parse_kb("axiom A SUBSUMED-BY B;\nassert x : A;").kb
    assert kb.gcis[0].degree == 1
    assert kb.assertions[0].degree == 1


def test_degree_zero_axiom_becomes_complement_inclusion():
    kb = parse_kb("axiom A SUBSUMED-BY B @ 0;").kb
    assert kb.gcis == (FuzzyGci(Atom("A"), Not(Atom("B")), Fraction(1)),)


def test_degree_zero_assertion_warns_but_parses():
    result = parse_kb("assert x : A @ 0;")
    assert result.ok
    assert any(d.severity == "warning" for d in result.diagnostics)


@pytest.mark.parametrize("text,fragment", [
    ("role r : abstract\nassert x : A;", "expected ';'"),
    ("axiom A SUBSUMED-BY B @ 1.5;", "outside [0, 1]"),
    ("assert x : EXISTS q . A;", "'q' is not declared"),
    ("role m : concrete(u);\nassert x : EXISTS m . A;", "expected a comparator"),
    ("role m : concrete(u);\nassert x : EXISTS m . GT 5 EUR;", "does not match"),
    ("role r : abstract;\nassert x : FORALL r . GT 5 u;", "expected a concept expression"),
    ("role m : concrete(u);\nassert (x, 5 u) : m;\nassert (x, 6 u) : m;", "functional"),
    ("role r : abstract;\nrole r : abstract;", "declared twice"),
    ("role r : abstract;\nassert (x, 5 u) : r;", "filler must be an individual"),
    ("role m : concrete(u);\nassert (x, y) : m;", "filler must be a quantity"),
    ("ubox e { A = 1; }", "belong in their own file"),
    ("axiom A ~ B;", "expected 'SUBSUMED-BY' or 'EQUIV'"),
    ("concept A B;", "expected 'EQUIV' or 'SUBSUMED-BY'"),
    ("role m : concrete(u);\nassert x : FORALL m . A;", "value restrictions require an abstract role"),
    ("role m : concrete(u);\nassert (x, 5 g) : m;", "unit 'g' does not match role 'm'"),
    ("role r : abstract;\nassert x : EXISTS . A;", "expected a role name"),
])
def test_parse_errors(text, fragment):
    result = parse_kb(text)
    assert not result.ok
    assert any(fragment in d.message for d in result.diagnostics), result.diagnostics


# The cases of tests/test_model.py's test_build_kb_rejects_ill_formed and
# test_build_kb_rejects_unit_mismatch_in_threshold that the grammar can
# express.  One is left out: ``EXISTS r . GT 1 u`` over the abstract ``r``
# reads a concept after the role, so there GT is a syntax error.
RULE_ROLES = (RoleDecl("r", "abstract"), RoleDecl("s", "abstract", closed=True), RoleDecl("m", "concrete", unit="u"))
BROKEN_RULES = [
    dict(gcis=[FuzzyGci(Atom("A"), Exists("r", Atom("B")))]),
    dict(roles=RULE_ROLES, gcis=[FuzzyGci(Atom("A"), Exists("m", Atom("B")))]),
    dict(roles=RULE_ROLES, gcis=[FuzzyGci(Atom("A"), Forall("m", Atom("B")))]),
    dict(roles=RULE_ROLES + (RoleDecl("r", "abstract"),)),
    dict(roles=RULE_ROLES, role_assertions=[RoleAssertion("x", "y", "m")]),
    dict(roles=RULE_ROLES, concrete_facts=[ConcreteFact("x", Quantity(Fraction(1), "EUR"), "m")]),
    dict(roles=RULE_ROLES, concrete_facts=[ConcreteFact("x", Quantity(Fraction(1), "u"), "m"),
                                           ConcreteFact("x", Quantity(Fraction(2), "u"), "m")]),
    dict(roles=RULE_ROLES, gcis=[FuzzyGci(Exists("m", ConcretePredicate(">", Quantity(Fraction(1), "EUR"))), Atom("A"))]),
]


def statements_text(roles=(), gcis=(), assertions=(), role_assertions=(), concrete_facts=()):
    lines = [f"role {d.name} : abstract{' closed' if d.closed else ''};" if d.kind == "abstract"
             else f"role {d.name} : concrete({d.unit});" for d in roles]
    lines += map(render_statement, (*gcis, *assertions, *role_assertions, *concrete_facts))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("statements", BROKEN_RULES)
def test_a_broken_rule_gives_one_message_whether_parsed_or_built(statements):
    with pytest.raises(FdlbError) as built:
        build_kb(**statements)
    parsed = parse_kb(statements_text(**statements))
    assert [(d.severity, d.message) for d in parsed.diagnostics] == [("error", str(built.value))]


@pytest.mark.parametrize("entries, text", [
    ((("A", Fraction(-1)),), "ubox e { A = -1; }"),
    ((("A", Fraction(1)), ("A", Fraction(2))), "ubox e { A = 1; A = 2; }"),
])
def test_a_broken_weight_rule_gives_one_message_whether_parsed_or_built(entries, text):
    with pytest.raises(FdlbError) as built:
        UtilityBox("e", entries)
    assert [d.message for d in parse_ubox(text).diagnostics] == [str(built.value)]


def test_parsing_never_walks_a_concept_to_check_its_roles(monkeypatch, fixtures_dir):
    def walk(*args):
        raise AssertionError("the parser checks roles at their tokens")

    monkeypatch.setattr(model, "check_concept_roles", walk)
    monkeypatch.setattr(model, "build_kb", walk)
    for path in sorted(fixtures_dir.glob("*.fdlb")):
        result = parse_kb(path.read_text(encoding="utf-8"))
        assert result.kb is not None and not result.diagnostics, path.name


def test_error_spans_point_at_the_problem():
    result = parse_kb("axiom A SUBSUMED-BY B @ 1.5;")
    err = next(d for d in result.diagnostics if d.severity == "error")
    assert (err.span.line, err.span.column) == (1, 25)


@pytest.mark.parametrize("text, span", [
    ("concept A;\naxiom A B;\n", (2, 9, 1)),  # at an identifier
    ("concept A;\n  assert x : SUBSUMED-BY B;\n", (2, 14, 11)),  # at SUBSUMED-BY
    ("concept A;\naxiom A SUBSUMED-BY", (2, 20, 0)),  # at end of input
    ("concept A B;", (1, 11, 1)),
    ("role m : concrete(u);\nassert x : FORALL m . A;", (2, 19, 1)),  # at the role
    ("role m : concrete(u);\nassert (x, 5 g) : m;", (2, 14, 1)),  # at the unit
    ("role r : abstract;\nassert x : EXISTS . A;", (2, 19, 1)),
])
def test_diagnostic_spans_cover_the_offending_token(text, span):
    (diagnostic,) = parse_kb(text).diagnostics
    assert (diagnostic.span.line, diagnostic.span.column, diagnostic.span.length) == span


def test_recovery_continues_after_bad_statement():
    result = parse_kb("axiom A SUBSUMED-BY ;\naxiom B EQUIV;\nassert x : ;\nrole r : abstract;")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert len(errors) == 3  # one per bad statement; the role decl still parses
    assert result.kb is None  # any error blocks the whole document


def nested(wrap, levels, depth=MAX_CONCEPT_DEPTH):
    """A concept with ``depth`` levels of nesting, ``levels`` per ``wrap``."""
    text = "A"
    for _ in range(depth // levels):
        text = wrap.format(text)
    return text


@pytest.mark.parametrize("wrap,levels", [
    ("({})", 1),
    ("NOT {}", 1),
    ("NOT (FORALL r . NOT {} OR B)", 4),
])
def test_concept_at_the_depth_limit_runs_end_to_end(wrap, levels):
    deep = nested(wrap, levels)
    result = parse_kb(f"role r : abstract closed;\naxiom {deep} SUBSUMED-BY G;\n"
                      f"assert a : {deep} @ 0.7;\nassert (a, a) : r;")
    assert result.ok, result.diagnostics
    assert kb_equal(parse_kb(serialize_kb(result.kb)).kb, result.kb)
    sat = saturate(result.kb)
    query = parse_concept_text(deep, dict(result.kb.roles)).concept
    assert parse_concept_text("NOT " + deep, dict(result.kb.roles)).concept is None
    for expr, kind in ((Atom("G"), "lo"), (query, "lo"), (Not(query), "hi")):
        assert format_explanation(sat.explain("a", expr, kind))


def test_concept_nested_past_the_limit_is_a_diagnostic():
    too_deep = "NOT " + nested("NOT {}", 1)
    result = parse_kb(f"axiom {too_deep} SUBSUMED-BY G;\nassert a : G;")
    assert result.kb is None
    (err,) = result.diagnostics
    assert "nested deeper than" in err.message
    assert (err.span.line, err.span.column) == (1, 7 + 4 * (MAX_CONCEPT_DEPTH + 1))
    concept = parse_concept_text("(" * (MAX_CONCEPT_DEPTH + 1) + "A" + ")" * (MAX_CONCEPT_DEPTH + 1))
    assert concept.concept is None
    assert concept.diagnostics[0].span.column == MAX_CONCEPT_DEPTH + 2
    (trailing,) = parse_concept_text("A B").diagnostics
    assert trailing.message == "unexpected content after the concept expression"
    assert (trailing.span.line, trailing.span.column) == (1, 3)


def test_lex_error_is_reported_with_position():
    result = parse_kb("assert x% : A;")
    assert any("unexpected character" in d.message and d.span.column == 9
               for d in result.diagnostics)


def test_crlf_and_comments_tolerated():
    assert parse_kb("# top\r\nassert x : A; # tail\r\n").ok


# -- source positions, against positions counted while a text is generated

# Each entry is a piece of text and the lexemes in it (with their offsets)
# that a diagnostic may point at: tokens, and characters that start no token.
PIECES = [(w, ((w, 0),)) for w in (
    "role", "concept", "axiom", "assert", "ubox", "abstract", "concrete", "closed",
    "TOP", "BOTTOM", "NOT", "AND", "OR", "EXISTS", "FORALL", "GT", "LE", "EQUIV", "SUBSUMED-BY",
    "r", "m", "A", "x", "u", "_a1", "0", "0.5", "1", "1.5", "-1", "007",
    ":", ";", "(", ")", ",", "@", "=", "{", "}", ".",
    "%", "$", "é", "~", "-",
)] + [("SUBSUMED-BYx", (("SUBSUMED", 0), ("-", 8), ("BYx", 9)))]
SEPARATORS = (" ", "\t", "  ", "\n", "\r\n", " # note\n", "\t# a # b;\r\n")
ROLE_DECLS = "role r : abstract ; role m : concrete ( u ) ;".split()
ROLES = {"r": RoleDecl("r", "abstract"), "m": RoleDecl("m", "concrete", unit="u")}


def generated_text(rng):
    """(text, {(line, column): lexeme}, (line, column) of the end of input)."""
    pieces = [next(p for p in PIECES if p[0] == w) for w in ROLE_DECLS] if rng.random() < 0.5 else []
    pieces += rng.choices(PIECES, k=rng.randint(0, 30))
    chunks, lexemes = [], {}
    line = column = 1
    for i, (piece, inside) in enumerate(pieces):
        for lexeme, offset in inside:
            lexemes[(line, column + offset)] = lexeme
        last = i == len(pieces) - 1
        separator = rng.choice(("", "# no newline at the end")) if last else rng.choice(SEPARATORS)
        chunks += [piece, separator]
        for ch in piece + separator:
            line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    return "".join(chunks), lexemes, (line, column)


def spanned_text(text, span):
    return (text.splitlines() + [""])[span.line - 1][span.column - 1:span.column - 1 + span.length]


@pytest.mark.parametrize("seed", range(4))
def test_diagnostic_spans_slice_out_the_offending_lexeme(seed):
    rng = random.Random(f"spans:{seed}")
    seen = set()
    for _ in range(150):
        text, lexemes, end = generated_text(rng)
        for parse in (parse_kb, parse_ubox, lambda t: parse_concept_text(t, ROLES)):
            for d in parse(text).diagnostics:
                assert d.span is not None, (text, d)  # every rule is checked at a token
                where = (d.span.line, d.span.column)
                sliced = spanned_text(text, d.span)
                if d.span.length == 0:
                    assert (where, sliced) == (end, ""), (text, d)
                    seen.add("end of input")
                    continue
                assert lexemes.get(where) == sliced, (text, d)
                quoted = re.search(r"(?:found|unexpected character) ('.*')$", d.message)
                if quoted:
                    assert ast.literal_eval(quoted.group(1)) == sliced, (text, d)
                    seen.add(d.message.split(" ")[0])
    assert seen == {"end of input", "unexpected", "expected"}


def test_end_of_input_span_of_an_empty_text():
    assert parse_kb("").ok and not parse_kb("").diagnostics
    for result in (parse_concept_text(""), parse_ubox("")):
        (d,) = result.diagnostics
        assert d.message.endswith("found end of input")
        assert (d.span.line, d.span.column, d.span.length) == (1, 1, 0)


def test_a_megabyte_of_blanks_and_comments_before_a_bad_character():
    chunk = "  \t# a # b ## \r\n\n \t#\n"
    text = chunk * (2**20 // len(chunk)) + "\t # c\n  %"
    (d,) = parse_kb(text).diagnostics
    assert d.message == "unexpected character '%'"
    assert (d.span.line, d.span.column, d.span.length) == (text.count("\n") + 1, 3, 1)
    assert parse_kb(chunk * (2**20 // len(chunk)) + "# no newline").ok


# -- deep and wide inputs

WRAPS = ("({})", "NOT {}", "EXISTS r . {}", "FORALL r . {}")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WRAPS), st.integers(min_value=0, max_value=MAX_CONCEPT_DEPTH))
@example("({})", MAX_CONCEPT_DEPTH)
@example("FORALL r . {}", MAX_CONCEPT_DEPTH)
def test_nesting_up_to_the_limit_parses(wrap, depth):
    concept = nested(wrap, 1, depth)
    result = parse_kb(f"role r : abstract;\naxiom {concept} SUBSUMED-BY G;\nassert a : {concept} @ 0.5;")
    assert result.ok, result.diagnostics
    assert parse_concept_text(concept, ROLES).concept is not None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WRAPS), st.integers(min_value=MAX_CONCEPT_DEPTH + 1, max_value=4 * MAX_CONCEPT_DEPTH))
@example("NOT {}", MAX_CONCEPT_DEPTH + 1)
@example("EXISTS r . {}", MAX_CONCEPT_DEPTH + 1)
def test_nesting_past_the_limit_is_a_diagnostic(wrap, depth):
    concept = nested(wrap, 1, depth)
    kb_result = parse_kb(f"role r : abstract;\naxiom {concept} SUBSUMED-BY G;\nassert a : G;")
    concept_result = parse_concept_text(concept, ROLES)
    assert kb_result.kb is None and concept_result.concept is None
    for result in (kb_result, concept_result):
        (err,) = result.diagnostics
        assert err.message == f"concept expression nested deeper than {MAX_CONCEPT_DEPTH} levels"


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(("AND", "OR")), st.integers(min_value=2, max_value=1000), st.integers(0, 2**16))
@example("AND", 1000, 0)
@example("OR", 1000, 0)
def test_wide_connectives_round_trip(op, width, seed):
    names = [f"A{k}" for k in range(width)]
    random.Random(seed).shuffle(names)
    wide = f" {op} ".join(names)
    result = parse_kb(f"axiom {wide} SUBSUMED-BY G @ 0.5;\naxiom G SUBSUMED-BY {wide};\nassert x : {wide} @ 0.25;")
    assert result.ok, result.diagnostics
    again = parse_kb(serialize_kb(result.kb))
    assert again.ok and kb_equal(again.kb, result.kb)
    concept = parse_concept_text(wide).concept
    assert len(concept.parts) == width
    assert parse_concept_text(render_concept(concept)).concept == concept


# -- round-trips


def test_serialize_round_trip(crisp_kb, fuzzy_kb, complete_kb):
    for kb in (crisp_kb, fuzzy_kb, complete_kb):
        again = parse_kb(serialize_kb(kb))
        assert again.ok, again.diagnostics
        assert kb_equal(kb, again.kb)


def test_serialize_deterministic(fuzzy_kb):
    assert serialize_kb(fuzzy_kb) == serialize_kb(fuzzy_kb)
    reparsed = parse_kb(serialize_kb(fuzzy_kb)).kb
    assert serialize_kb(reparsed) == serialize_kb(fuzzy_kb)


def test_render_concept_minimal_parens():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    # the constructors sort an atom before an AND or OR
    assert render_concept(Or(And(a, b), c)) == "C OR A AND B"
    assert render_concept(And(Or(a, b), c)) == "C AND (A OR B)"
    assert render_concept(Not(And(a, b))) == "NOT A OR NOT B"  # built in negation normal form
    assert render_concept(Forall("r", Or(a, b))) == "FORALL r . (A OR B)"
    assert render_concept(Exists("r", Not(a))) == "EXISTS r . NOT A"


def test_not_over_a_compound_concept_parses_to_its_negation_normal_form():
    a, b = Atom("A"), Atom("B")
    assert parse_concept_text("NOT (A AND B)").concept is Or(Not(a), Not(b))
    assert parse_concept_text("NOT NOT A").concept is a
    assert parse_concept_text("NOT BOTTOM").concept is TOP


def _render_recursively(expr, minimum=0):
    """The renderer as a recursion: parts at their connective's level, everything else unary."""
    if isinstance(expr, (And, Or)):
        level = 1 if isinstance(expr, And) else 0
        text = (" AND " if level else " OR ").join(_render_recursively(c, level) for c in expr.parts)
        return f"({text})" if level < minimum else text
    if isinstance(expr, Not):
        return f"NOT {_render_recursively(expr.body, 2)}"
    if isinstance(expr, Forall):
        return f"FORALL {expr.role} . {_render_recursively(expr.body, 2)}"
    if isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            p = expr.target
            op = {">": "GT", ">=": "GE", "<": "LT", "<=": "LE"}[p.op]
            return f"EXISTS {expr.role} . {op} {render_decimal(p.threshold.magnitude)} {p.threshold.unit}"
        return f"EXISTS {expr.role} . {_render_recursively(expr.target, 2)}"
    return expr.name if isinstance(expr, Atom) else "TOP" if expr is TOP else "BOTTOM"


def _chain(levels):
    """NOT, EXISTS, AND and OR in turn, ``levels`` deep, over a mix of leaves; every level is kept."""
    leaves = [Atom("A"), TOP, BOTTOM, Exists("m", ConcretePredicate(">=", Quantity(Fraction(1), "u")))]
    expr, chain = Atom("Z"), []
    for level in range(levels):
        leaf = leaves[level % len(leaves)]
        expr = (Not(expr), Exists("r", expr), And(leaf, expr, Forall("s", leaf)), Or(expr, leaf))[level % 4]
        chain.append(expr)
    return chain


def test_render_concept_matches_the_recursive_renderer_up_to_300_levels():
    for expr in _chain(300):
        assert render_concept(expr) == _render_recursively(expr)


def test_a_concept_1000_levels_deep_renders_in_every_message():
    deep = _chain(1000)[-1]
    text = render_concept(deep)
    # the chain's text and its negation's, built level by level in the parts' sorted order: a NOT
    # level swaps them, an AND level's BOTTOM, EXISTS and FORALL parts keep their order and its
    # dual OR puts EXISTS s . TOP (sort tag 5) before the FORALL (tag 6), an OR level's
    # restriction (tag 4) goes before its AND part (tag 7) and the dual AND's NOT (tag 3) before
    # its OR part, and a quantifier over an AND or OR (every one past the first) parenthesizes it
    expected, negated = "Z", "NOT Z"
    for level in range(1000):
        if level % 4 == 0:
            expected, negated = negated, expected
        elif level % 4 == 1:
            wrap = "({})" if level > 1 else "{}"
            expected, negated = f"EXISTS r . {wrap.format(expected)}", f"FORALL r . {wrap.format(negated)}"
        elif level % 4 == 2:
            expected, negated = f"BOTTOM AND {expected} AND FORALL s . BOTTOM", f"TOP OR EXISTS s . TOP OR {negated}"
        else:
            expected, negated = f"EXISTS m . GE 1 u OR {expected}", f"NOT EXISTS m . GE 1 u AND ({negated})"
    assert text == expected and text.count("(") == 374
    node = DerivationNode("assertion", "x", deep, "lo", Fraction(1), ())
    explanation = Explanation("x", deep, "lo", Fraction(1), (node,))
    assert format_explanation(explanation) == f"lo(x, {text}) >= 1   [assertion]"
    assert text in format_conflict(Conflict("x", deep, Fraction(1), Fraction(0), explanation, explanation))


def test_rendered_concepts_reparse(fuzzy_kb):
    roles = dict(fuzzy_kb.roles)
    for gci in fuzzy_kb.gcis:
        for side in (gci.lhs, gci.rhs):
            result = parse_concept_text(render_concept(side), roles)
            assert result.concept is side
    # generated expressions, nested and duplicated as built: the text names the very node
    from kbgen import ROLES, random_concept

    rng = random.Random(5)
    exprs = [random_concept(rng, depth=4) for _ in range(2000)]
    generated_roles = {decl.name: decl for decl in ROLES}
    for expr in exprs:
        assert parse_concept_text(render_concept(expr), generated_roles).concept is expr, expr
    # an existing AND/OR built again from permuted, duplicated or nested parts is that node
    nodes = dict.fromkeys(sub for expr in exprs for sub in model.sub_expressions(expr))
    connectives = [node for node in nodes if isinstance(node, (And, Or))]
    assert len(connectives) > 500
    gc.disable()  # no collection may drop entries while the table is counted
    try:
        before = len(model._INTERNED)
        for expr in connectives:
            kind, parts = type(expr), list(expr.parts)
            rng.shuffle(parts)
            assert kind(*parts) is expr and kind(*parts, parts[0]) is expr
            assert kind(expr, parts[-1]) is expr and kind(parts[0], expr, *parts) is expr
        assert len(model._INTERNED) == before
    finally:
        gc.enable()


# -- decimals


@pytest.mark.parametrize("fraction,text", [
    (Fraction(1, 2), "0.5"), (Fraction(3, 5), "0.6"), (Fraction(1), "1"),
    (Fraction(0), "0"), (Fraction(89), "89"), (Fraction(1, 4), "0.25"),
    (Fraction(9, 10), "0.9"), (Fraction(-3, 4), "-0.75"), (Fraction(56), "56"),
])
def test_render_decimal(fraction, text):
    assert render_decimal(fraction) == text


def test_render_decimal_falls_back_to_fraction_form():
    assert render_decimal(Fraction(1, 3)) == "1/3"


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6))
def test_render_decimal_round_trips_through_fraction(numerator, shift):
    value = Fraction(numerator, 10**shift)
    assert Fraction(render_decimal(value)) == value


# -- utility boxes


def test_parse_ubox(expert1):
    assert expert1.expert_id == "expert1"
    assert expert1.entries == (("InexpensiveTablet", Fraction(50)),
                               ("UpperclassTablet", Fraction(40)),
                               ("LightweightTablet", Fraction(40)))
    assert dict(expert1.entries)["UpperclassTablet"] == 40


def test_ubox_round_trip(expert2):
    again = parse_ubox(serialize_ubox(expert2))
    assert again.ubox == expert2


@pytest.mark.parametrize("text,fragment", [
    ("ubox e { A = 1; A = 2; }", "weighted twice"),
    ("ubox e { A = -3; }", "negative"),
    ("ubox e { A = 1; } trailing", "unexpected content"),
    ("ubox e { A 1; }", "expected '='"),
    ("role r : abstract;", "expected 'ubox'"),
])
def test_ubox_errors(text, fragment):
    result = parse_ubox(text)
    assert result.ubox is None
    assert any(fragment in d.message for d in result.diagnostics), result.diagnostics
