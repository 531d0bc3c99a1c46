"""Core value types for fuzzy decision bases.

Membership degrees, degree intervals, unit-tagged quantities, crisp
comparison predicates, concept expressions, graded axioms/assertions, and
the knowledge-base container shared by the parser, the reasoner, and the
decision layer.

Everything here is an immutable value; instances may be shared freely once
constructed.  All numeric fields hold :class:`fractions.Fraction` so that
decimal literals like ``0.6`` survive every min/max/complement/product step
exactly — binary floating point never enters the pipeline.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

# A membership degree is a rational in [0, 1].
Degree = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class FdlbError(Exception):
    """Base class for every domain error raised by this package."""


class DegreeRangeError(FdlbError):
    """A degree literal fell outside [0, 1]."""

    def __init__(self, value: Fraction, literal: str | None = None):
        self.value = value
        self.literal = literal if literal is not None else str(value)
        super().__init__(f"degree {self.literal} is outside [0, 1]")


class IntervalConflictError(FdlbError):
    """An interval would be empty (lo > hi)."""

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi
        super().__init__(f"empty degree interval: lo {lo} > hi {hi}")


class UnitMismatchError(FdlbError):
    """Two quantities (or a quantity and a role) disagree on their unit."""


class ModelError(FdlbError):
    """A knowledge-base invariant was violated during construction."""


def make_degree(value: Union[Fraction, int, str], literal: str | None = None) -> Degree:
    """Validate and return a degree, a Fraction as it is.  Raises DegreeRangeError outside [0, 1]."""
    d = value if isinstance(value, Fraction) else Fraction(value)
    if not 0 <= d.numerator <= d.denominator:
        raise DegreeRangeError(d, literal)
    return d


@dataclass(frozen=True)
class DegreeInterval:
    """A closed interval of membership degrees, ``lo <= hi``.

    [0, 1] is the vacuous interval (nothing known); construction of an empty
    interval raises, it is never silently produced.
    """

    lo: Degree
    hi: Degree

    def __post_init__(self) -> None:
        make_degree(self.lo)
        make_degree(self.hi)
        if self.lo > self.hi:
            raise IntervalConflictError(self.lo, self.hi)


FULL_INTERVAL = DegreeInterval(ZERO, ONE)


@dataclass(frozen=True)
class Quantity:
    """A magnitude tagged with a unit symbol (``999 EUR``, ``710 g``)."""

    magnitude: Fraction
    unit: str

    def _check_unit(self, other: "Quantity") -> None:
        if self.unit != other.unit:
            raise UnitMismatchError(f"cannot compare {self.unit} with {other.unit}")

    def __lt__(self, other: "Quantity") -> bool:
        self._check_unit(other)
        return self.magnitude < other.magnitude

    def __le__(self, other: "Quantity") -> bool:
        self._check_unit(other)
        return self.magnitude <= other.magnitude

    def __gt__(self, other: "Quantity") -> bool:
        self._check_unit(other)
        return self.magnitude > other.magnitude

    def __ge__(self, other: "Quantity") -> bool:
        self._check_unit(other)
        return self.magnitude >= other.magnitude


def _memoized_hash(self) -> int:
    try:
        return self._hash
    except AttributeError:
        h = hash((type(self).__name__, *(getattr(self, name) for name in self.__dataclass_fields__)))
        object.__setattr__(self, "_hash", h)
        return h


def _state_without_hash(self) -> dict:
    state = dict(self.__dict__)
    state.pop("_hash", None)
    state.pop("_sort_key", None)
    return state


def _memoize_hash(cls):
    """Give a frozen dataclass a structural hash computed once per instance.

    Expressions key every bound and derivation map, and the generated hash
    would walk the whole tree on each lookup.  String hashes differ between
    processes, so the memo is left out of the pickled state; so is
    :func:`sort_key`'s, so that equal expressions pickle alike.
    """
    cls.__hash__ = _memoized_hash
    cls.__getstate__ = _state_without_hash
    return cls


# Comparator symbols for concrete restrictions and the comparison each
# makes.  Surface keywords GT/GE/LT/LE map onto these.
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
COMPARATORS = tuple(_COMPARISONS)


@_memoize_hash
@dataclass(frozen=True)
class ConcretePredicate:
    """A crisp comparison against a threshold quantity on a concrete role."""

    op: str
    threshold: Quantity

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise ModelError(f"unknown comparator {self.op!r}")

    def evaluate(self, value: Quantity) -> Degree:
        """Crisp evaluation: exactly 0 or 1."""
        return ONE if _COMPARISONS[self.op](value, self.threshold) else ZERO


# --------------------------------------------------------------------------
# Concept expressions


@_memoize_hash
@dataclass(frozen=True)
class Top:
    pass


@_memoize_hash
@dataclass(frozen=True)
class Bottom:
    pass


@_memoize_hash
@dataclass(frozen=True)
class Atom:
    name: str


@_memoize_hash
@dataclass(frozen=True)
class Not:
    body: "ConceptExpression"


def _init_parts(self, *parts: "ConceptExpression") -> None:
    object.__setattr__(self, "parts", parts)


@_memoize_hash
@dataclass(frozen=True, init=False)
class And:
    """Conjunction of ``parts``, built as ``And(a, b, ...)``.

    Normalized, the parts are unique, sorted by :func:`sort_key`, at least
    two, and none is itself an ``And``.
    """

    parts: tuple["ConceptExpression", ...]
    __init__ = _init_parts


@_memoize_hash
@dataclass(frozen=True, init=False)
class Or:
    """Disjunction of ``parts``, with the same normalized invariant as ``And``."""

    parts: tuple["ConceptExpression", ...]
    __init__ = _init_parts


@_memoize_hash
@dataclass(frozen=True)
class Exists:
    """Existential restriction.

    Over an abstract role the target is a concept; over a concrete-functional
    role it is a ConcretePredicate (a crisp threshold comparison).
    """

    role: str
    target: Union["ConceptExpression", ConcretePredicate]


@_memoize_hash
@dataclass(frozen=True)
class Forall:
    role: str
    body: "ConceptExpression"


ConceptExpression = Union[Top, Bottom, Atom, Not, And, Or, Exists, Forall]

TOP = Top()
BOTTOM = Bottom()


def sort_key(expr: ConceptExpression) -> tuple:
    """A total structural order on normalized expressions, computed once per instance."""
    try:
        return expr._sort_key
    except AttributeError:
        key = _sort_key_of(expr)
        object.__setattr__(expr, "_sort_key", key)
        return key


def _sort_key_of(expr: ConceptExpression) -> tuple:
    if isinstance(expr, Top):
        return (0,)
    if isinstance(expr, Bottom):
        return (1,)
    if isinstance(expr, Atom):
        return (2, expr.name)
    if isinstance(expr, Not):
        return (3, sort_key(expr.body))
    if isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            t = expr.target
            return (4, expr.role, t.op, t.threshold.unit, t.threshold.magnitude)
        return (5, expr.role, sort_key(expr.target))
    if isinstance(expr, Forall):
        return (6, expr.role, sort_key(expr.body))
    if isinstance(expr, (And, Or)):
        keys = tuple(sort_key(c) for c in expr.parts)
        return (7 if isinstance(expr, And) else 8, len(keys)) + keys
    raise ModelError(f"not a concept expression: {expr!r}")


def normalize(expr: ConceptExpression) -> ConceptExpression:
    """Canonical structural form: ⊓/⊔ flattened into one n-ary node, deduplicated, sorted.

    Purely structural — no logical rewriting beyond dropping duplicate
    children of an associative-commutative-idempotent connective.  Structural
    equality of normalized expressions is the identity used everywhere
    downstream (interval keys, axiom matching, round-trips).
    """
    if isinstance(expr, (Top, Bottom, Atom)):
        return expr
    if isinstance(expr, Not):
        return Not(normalize(expr.body))
    if isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            return expr
        return Exists(expr.role, normalize(expr.target))
    if isinstance(expr, Forall):
        return Forall(expr.role, normalize(expr.body))
    if isinstance(expr, (And, Or)):
        ctor = type(expr)
        parts: set[ConceptExpression] = set()
        for part in expr.parts:
            child = normalize(part)  # already flat: one level to lift
            parts.update(child.parts if isinstance(child, ctor) else (child,))
        ordered = sorted(parts, key=sort_key)
        return ordered[0] if len(ordered) == 1 else ctor(*ordered)
    raise ModelError(f"not a concept expression: {expr!r}")


def to_negation_normal_form(expr: ConceptExpression) -> ConceptExpression:
    """Push negation inward (De Morgan, quantifier duals, involution).

    Negation directly above a concrete restriction stays put: threshold
    predicates have no complemented comparator form here, and the interval
    semantics handles the outer negation exactly.
    """
    if isinstance(expr, (Top, Bottom, Atom)):
        return expr
    if isinstance(expr, (And, Or)):
        return type(expr)(*map(to_negation_normal_form, expr.parts))
    if isinstance(expr, Exists):
        if isinstance(expr.target, ConcretePredicate):
            return expr
        return Exists(expr.role, to_negation_normal_form(expr.target))
    if isinstance(expr, Forall):
        return Forall(expr.role, to_negation_normal_form(expr.body))
    if isinstance(expr, Not):
        body = expr.body
        if isinstance(body, Top):
            return BOTTOM
        if isinstance(body, Bottom):
            return TOP
        if isinstance(body, Atom):
            return expr
        if isinstance(body, Not):
            return to_negation_normal_form(body.body)
        if isinstance(body, (And, Or)):
            dual = Or if isinstance(body, And) else And
            return dual(*(to_negation_normal_form(Not(c)) for c in body.parts))
        if isinstance(body, Exists):
            if isinstance(body.target, ConcretePredicate):
                return expr  # negation retained above the concrete restriction
            return Forall(body.role, to_negation_normal_form(Not(body.target)))
        if isinstance(body, Forall):
            return Exists(body.role, to_negation_normal_form(Not(body.body)))
    raise ModelError(f"not a concept expression: {expr!r}")


def sub_expressions(expr: ConceptExpression) -> Iterator[ConceptExpression]:
    """The expression and every concept node beneath it (predicates excluded)."""
    yield expr
    if isinstance(expr, Not):
        yield from sub_expressions(expr.body)
    elif isinstance(expr, (And, Or)):
        for part in expr.parts:
            yield from sub_expressions(part)
    elif isinstance(expr, Exists):
        if not isinstance(expr.target, ConcretePredicate):
            yield from sub_expressions(expr.target)
    elif isinstance(expr, Forall):
        yield from sub_expressions(expr.body)


def atom_names(expr: ConceptExpression) -> Iterator[str]:
    for sub in sub_expressions(expr):
        if isinstance(sub, Atom):
            yield sub.name


# --------------------------------------------------------------------------
# Knowledge bases


@dataclass(frozen=True)
class RoleDecl:
    """A declared role: abstract (optionally closed-world) or concrete."""

    name: str
    kind: str  # "abstract" | "concrete"
    unit: str | None = None
    closed: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("abstract", "concrete"):
            raise ModelError(f"role {self.name}: unknown kind {self.kind!r}")
        if self.kind == "concrete" and not self.unit:
            raise ModelError(f"concrete role {self.name} needs a unit")
        if self.kind == "abstract" and self.unit:
            raise ModelError(f"abstract role {self.name} cannot carry a unit")
        if self.kind == "concrete" and self.closed:
            raise ModelError(f"concrete role {self.name} cannot be closed")


@dataclass(frozen=True)
class FuzzyGci:
    """A graded inclusion axiom ⟨lhs ⊑ rhs, degree⟩."""

    lhs: ConceptExpression
    rhs: ConceptExpression
    degree: Degree = ONE


@dataclass(frozen=True)
class FuzzyAssertion:
    """A graded membership assertion ⟨individual : concept, degree⟩.

    The degree is a lower bound on membership; asserting a negated concept
    is how an upper bound on the positive concept enters the KB.
    """

    individual: str
    concept: ConceptExpression
    degree: Degree = ONE


@dataclass(frozen=True)
class RoleAssertion:
    """A crisp abstract-role fact (subject, filler) : role."""

    subject: str
    filler: str
    role: str


@dataclass(frozen=True)
class ConcreteFact:
    """The (unique) value of a concrete-functional role on an individual."""

    subject: str
    value: Quantity
    role: str


@dataclass(frozen=True)
class KnowledgeBase:
    """A validated, normalized knowledge base.

    Invariants guaranteed by :func:`build_kb`: every concept is normalized,
    every role use matches its declaration, degree-0 inclusions are already
    desugared into degree-1 inclusions of the negated right side, concrete
    facts are unique per (individual, role), and the registries cover every
    name mentioned anywhere.
    """

    roles: Mapping[str, RoleDecl]
    gcis: tuple[FuzzyGci, ...]
    assertions: tuple[FuzzyAssertion, ...]
    role_assertions: tuple[RoleAssertion, ...]
    concrete_facts: tuple[ConcreteFact, ...]
    concept_names: frozenset[str]
    individuals: tuple[str, ...]  # sorted registry of every name mentioned
    declared_concepts: frozenset[str] = field(default_factory=frozenset)


def check_concept_roles(expr: ConceptExpression, roles: Mapping[str, RoleDecl], where: str) -> None:
    """Validate every quantifier in the expression against the role table."""
    for sub in sub_expressions(expr):
        if not isinstance(sub, (Exists, Forall)):
            continue
        role = sub.role
        decl = roles.get(role)
        if decl is None:
            raise ModelError(f"{where}: role {role!r} is not declared")
        if isinstance(sub, Forall):
            if decl.kind != "abstract":
                raise ModelError(f"{where}: value restrictions require an abstract role, {role!r} is concrete")
        elif isinstance(sub.target, ConcretePredicate):
            if decl.kind != "concrete":
                raise ModelError(f"{where}: role {role!r} is abstract but used with a comparator")
            if sub.target.threshold.unit != decl.unit:
                raise ModelError(
                    f"{where}: threshold unit {sub.target.threshold.unit!r} does not match "
                    f"role {role!r} declared in {decl.unit!r}"
                )
        elif decl.kind != "abstract":
            raise ModelError(f"{where}: role {role!r} is concrete; use a comparator restriction")


def _desugar(gci: FuzzyGci) -> FuzzyGci:
    # A degree-0 inclusion states the complement of the right side at degree 1.
    if gci.degree != ZERO:
        return gci
    rhs = gci.rhs.body if isinstance(gci.rhs, Not) else Not(gci.rhs)
    return FuzzyGci(gci.lhs, normalize(rhs), ONE)


def build_kb(
    roles: Sequence[RoleDecl] = (),
    gcis: Sequence[FuzzyGci] = (),
    assertions: Sequence[FuzzyAssertion] = (),
    role_assertions: Sequence[RoleAssertion] = (),
    concrete_facts: Sequence[ConcreteFact] = (),
    declared_concepts: Sequence[str] = (),
) -> KnowledgeBase:
    """Validate, normalize, and assemble a knowledge base.

    Raises :class:`ModelError` on undeclared or mistyped role use, duplicate
    declarations, duplicate concrete facts, or unit mismatches, and
    :class:`DegreeRangeError` on out-of-range degrees.
    """
    role_map: dict[str, RoleDecl] = {}
    for decl in roles:
        if decl.name in role_map:
            raise ModelError(f"role {decl.name!r} declared twice")
        role_map[decl.name] = decl

    out_gcis = []
    for gci in gcis:
        make_degree(gci.degree)
        lhs = normalize(gci.lhs)
        rhs = normalize(gci.rhs)
        check_concept_roles(lhs, role_map, "axiom")
        check_concept_roles(rhs, role_map, "axiom")
        out_gcis.append(_desugar(gci if lhs is gci.lhs and rhs is gci.rhs else FuzzyGci(lhs, rhs, gci.degree)))

    out_assertions = []
    for fa in assertions:
        make_degree(fa.degree)
        concept = normalize(fa.concept)
        check_concept_roles(concept, role_map, f"assertion on {fa.individual}")
        out_assertions.append(fa if concept is fa.concept else FuzzyAssertion(fa.individual, concept, fa.degree))

    for ra in role_assertions:
        decl = role_map.get(ra.role)
        if decl is None:
            raise ModelError(f"role {ra.role!r} is not declared")
        if decl.kind != "abstract":
            raise ModelError(f"role assertions need an abstract role, {ra.role!r} is concrete")

    seen_facts: set[tuple[str, str]] = set()
    for cf in concrete_facts:
        decl = role_map.get(cf.role)
        if decl is None:
            raise ModelError(f"role {cf.role!r} is not declared")
        if decl.kind != "concrete":
            raise ModelError(f"quantity facts need a concrete role, {cf.role!r} is abstract")
        if cf.value.unit != decl.unit:
            raise ModelError(
                f"fact on {cf.subject}: unit {cf.value.unit!r} does not match role "
                f"{cf.role!r} declared in {decl.unit!r}"
            )
        key = (cf.subject, cf.role)
        if key in seen_facts:
            raise ModelError(f"{cf.role!r} is functional: {cf.subject} already has a value")
        seen_facts.add(key)

    names: set[str] = set()
    for fa in out_assertions:
        names.add(fa.individual)
    for ra in role_assertions:
        names.add(ra.subject)
        names.add(ra.filler)
    for cf in concrete_facts:
        names.add(cf.subject)

    concepts: set[str] = set(declared_concepts)
    for gci in out_gcis:
        concepts.update(atom_names(gci.lhs))
        concepts.update(atom_names(gci.rhs))
    for fa in out_assertions:
        concepts.update(atom_names(fa.concept))

    return KnowledgeBase(
        roles=dict(sorted(role_map.items())),
        gcis=tuple(out_gcis),
        assertions=tuple(out_assertions),
        role_assertions=tuple(role_assertions),
        concrete_facts=tuple(concrete_facts),
        concept_names=frozenset(concepts),
        individuals=tuple(sorted(names)),
        declared_concepts=frozenset(declared_concepts),
    )


def kb_equal(a: KnowledgeBase, b: KnowledgeBase) -> bool:
    """Structural equality up to statement order."""
    return (
        dict(a.roles) == dict(b.roles)
        and sorted(a.gcis, key=lambda g: (sort_key(g.lhs), sort_key(g.rhs), g.degree))
        == sorted(b.gcis, key=lambda g: (sort_key(g.lhs), sort_key(g.rhs), g.degree))
        and sorted(a.assertions, key=lambda f: (f.individual, sort_key(f.concept), f.degree))
        == sorted(b.assertions, key=lambda f: (f.individual, sort_key(f.concept), f.degree))
        and sorted(a.role_assertions, key=lambda r: (r.subject, r.role, r.filler))
        == sorted(b.role_assertions, key=lambda r: (r.subject, r.role, r.filler))
        and sorted(a.concrete_facts, key=lambda c: (c.subject, c.role))
        == sorted(b.concrete_facts, key=lambda c: (c.subject, c.role))
        and a.concept_names == b.concept_names
        and a.individuals == b.individuals
    )
