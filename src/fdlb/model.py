"""Core value types for fuzzy decision bases.

Membership degrees, degree intervals, unit-tagged quantities, crisp
comparison predicates, concept expressions, graded axioms/assertions, and
the knowledge-base container shared by the parser, the reasoner, and the
decision layer.

Everything here is an immutable value; instances may be shared freely once
constructed.  Concept expressions are interned and built in normal form:
structurally equal ones, and ``And``/``Or`` nodes that differ only in the
order, repetition or nesting of their parts, are one object, so equal means
identical; ``Not`` builds negation normal form, so a ``NOT`` stands only
over an atom or a concrete restriction.  Every other record (here and in
the other modules) is a :class:`typing.NamedTuple`: it is built
positionally or by keyword, compares and hashes by value, pickles and
copies, and refuses attribute assignment.  Being a tuple, a record also
unpacks, and compares equal to a plain tuple of the same values.  A record
that validates its fields is a thin subclass of a
:func:`collections.namedtuple` that checks them in ``__new__``; ``_make``
and ``_replace`` skip that check.

All numeric fields hold :class:`fractions.Fraction` so that decimal
literals like ``0.6`` survive every min/max/complement/product step
exactly — binary floating point never enters the pipeline.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, NamedTuple, Sequence, Union
from weakref import ref

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


class DegreeInterval(namedtuple("DegreeInterval", "lo hi")):
    """A closed interval of membership degrees, ``lo <= hi``.

    [0, 1] is the vacuous interval (nothing known); construction of an empty
    interval raises, it is never silently produced.
    """

    __slots__ = ()

    def __new__(cls, lo: Degree, hi: Degree) -> DegreeInterval:
        make_degree(lo)
        make_degree(hi)
        if lo > hi:
            raise IntervalConflictError(lo, hi)
        return super().__new__(cls, lo, hi)


FULL_INTERVAL = DegreeInterval(ZERO, ONE)


class Quantity(NamedTuple):
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


# Comparator symbols for concrete restrictions and the comparison each
# makes.  Surface keywords GT/GE/LT/LE map onto these.
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
COMPARATORS = tuple(_COMPARISONS)


class ConcretePredicate(namedtuple("ConcretePredicate", "op threshold")):
    """A crisp comparison against a threshold quantity on a concrete role."""

    __slots__ = ()

    def __new__(cls, op: str, threshold: Quantity) -> ConcretePredicate:
        if op not in COMPARATORS:
            raise ModelError(f"unknown comparator {op!r}")
        return super().__new__(cls, op, threshold)

    def evaluate(self, value: Quantity) -> Degree:
        """Crisp evaluation: exactly 0 or 1."""
        return ONE if _COMPARISONS[self.op](value, self.threshold) else ZERO


# --------------------------------------------------------------------------
# Concept expressions

# Every node, held weakly and keyed by its class and fields, a child node by
# its ``id``: a live node holds its children, so their ids stay theirs, and a
# key that held them would keep a node and its cached dual, which refer to
# each other, alive once nothing else does.
_INTERNED: dict[tuple, ref] = {}


def _intern(cls: type, fields: tuple, key: tuple) -> "ConceptExpression":
    entry = _INTERNED.get(key)
    node = None if entry is None else entry()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        for name, value in zip(("_key", "_children", "_dual"), (*node._derive(), None)):
            object.__setattr__(node, name, value)
        _INTERNED[key] = ref(node, partial(_forget, key))
    return node


def _forget(key: tuple, entry: ref) -> None:
    if _INTERNED.get(key) is entry:  # not yet replaced by a new node's entry
        del _INTERNED[key]


class _Concept:
    """A concept expression node, built only through the interning constructor.

    Structurally equal expressions are one node, so ``==`` and ``hash`` are
    identity's and no dict or set lookup walks a tree.  Every node is in
    normal form (see :class:`And` and :class:`Not`), as its children are.
    ``_key`` (the :func:`sort_key`) and ``_children`` (the concept nodes
    directly beneath) are set at construction, ``_dual`` (its ``Not``) by
    the first ``Not`` of it, of its dual or of a node above either.
    Pickling and copying call the constructor, so they return the interned
    node.
    """

    __slots__ = ("_key", "_children", "_dual", "__weakref__")
    _fields: tuple[str, ...] = ()
    _tag: int

    def __new__(cls, *fields):
        return _intern(cls, fields, (cls, *[id(f) if isinstance(f, _Concept) else f for f in fields]))

    def _derive(self) -> tuple[tuple, tuple]:
        """The sort key and the child nodes."""
        fields = [getattr(self, name) for name in self._fields]
        key = (self._tag, *[f._key if isinstance(f, _Concept) else f for f in fields])
        return key, tuple([f for f in fields if isinstance(f, _Concept)])

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Top(_Concept):
    __slots__ = ()
    _tag = 0


class Bottom(_Concept):
    __slots__ = ()
    _tag = 1


class Atom(_Concept):
    __slots__ = _fields = ("name",)
    name: str

    def __new__(cls, name: str):  # the common case, without the generic key's scan
        return _intern(cls, (name,), (cls, name))

    def _derive(self):
        return (2, self.name), ()


class Not(_Concept):
    """Negation, built in negation normal form (NNF): ``Not(e)`` is the dual of ``e``.

    A ``Not`` node exists only over an atom or a concrete restriction (a
    threshold predicate has no complemented comparator, and the interval
    semantics handles the outer negation exactly).  Any other body returns
    its dual: ``AND``/``OR`` swap over their parts' duals, the quantifiers
    swap over their body's dual, ``Not(TOP)`` is ``BOTTOM``, and ``Not`` of
    a ``Not`` node is its body, so taking ``Not`` twice gives ``e`` back.
    Each dual is built once: the duals it is built from are settled first,
    on an explicit stack, and a node and its dual hold each other.
    """

    __slots__ = _fields = ("body",)
    body: "ConceptExpression"
    _tag = 3

    def __new__(cls, body: "ConceptExpression"):
        stack = [body]
        while stack:
            missing = [c for c in stack[-1]._children if c._dual is None]
            if missing:
                stack += missing
            elif (node := stack.pop())._dual is None:
                dual = _dual_of(node)
                object.__setattr__(node, "_dual", dual)
                object.__setattr__(dual, "_dual", node)
        return body._dual


class _Connective(_Concept):
    """``And`` and ``Or``: one field, ``parts``, built as ``And(a, b, ...)``."""

    __slots__ = _fields = ("parts",)
    parts: tuple["ConceptExpression", ...]

    def __new__(cls, *parts: "ConceptExpression"):
        unique: set[ConceptExpression] = set()
        for part in parts:  # a part is in normal form already: one level to lift
            if type(part) is cls:
                unique.update(part.parts)
            else:
                unique.add(part)
        if len(unique) == 1:
            return unique.pop()
        ordered = sorted(unique, key=sort_key)
        return _intern(cls, (tuple(ordered),), (cls, *map(id, ordered)))

    def __reduce__(self) -> tuple:
        return type(self), self.parts

    def _derive(self):
        return (self._tag, len(self.parts), *[part._key for part in self.parts]), self.parts


class And(_Connective):
    """Conjunction of ``parts``, built as ``And(a, b, ...)`` in normal form.

    The constructor lifts the parts of any ``And`` part, drops duplicates
    and sorts the rest by :func:`sort_key`, so ``And(b, a)`` is
    ``And(a, b)``; a lone part left is returned as it is (``And(a, a)`` is
    ``a``), and ``And()`` is a node of its own.
    """

    __slots__ = ()
    _tag = 7


class Or(_Connective):
    """Disjunction of ``parts``, built in normal form as ``And`` is."""

    __slots__ = ()
    _tag = 8


class Exists(_Concept):
    """Existential restriction.

    Over an abstract role the target is a concept; over a concrete-functional
    role it is a ConcretePredicate (a crisp threshold comparison).
    """

    __slots__ = _fields = ("role", "target")
    role: str
    target: Union["ConceptExpression", ConcretePredicate]
    _tag = 5

    def _derive(self):
        target = self.target
        if isinstance(target, ConcretePredicate):
            return (4, self.role, target.op, target.threshold.unit, target.threshold.magnitude), ()
        return super()._derive()


class Forall(_Concept):
    __slots__ = _fields = ("role", "body")
    role: str
    body: "ConceptExpression"
    _tag = 6


ConceptExpression = Union[Top, Bottom, Atom, Not, And, Or, Exists, Forall]

TOP = Top()
BOTTOM = Bottom()


def sort_key(expr: ConceptExpression) -> tuple:
    """A total structural order on expressions, set when the node is built."""
    return expr._key


def sub_expressions(expr: ConceptExpression, seen: set | None = None) -> Iterator[ConceptExpression]:
    """The expression and every distinct concept node beneath it, each once.

    Nodes in ``seen`` are skipped with what lies beneath them, and every
    node yielded is added to it.
    """
    seen = set() if seen is None else seen
    stack = [expr]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            yield node
            stack += node._children


def _dual_of(node: ConceptExpression) -> ConceptExpression:
    # every concept node beneath ``node`` has its dual
    if isinstance(node, (And, Or)):
        return (Or if isinstance(node, And) else And)(*(part._dual for part in node.parts))
    if isinstance(node, Forall):
        return Exists(node.role, node.body._dual)
    if isinstance(node, Exists) and not isinstance(node.target, ConcretePredicate):
        return Forall(node.role, node.target._dual)
    if isinstance(node, (Atom, Exists)):  # a literal: its NOT node
        return _intern(Not, (node,), (Not, id(node)))
    if isinstance(node, Not):
        return node.body
    return BOTTOM if node is TOP else TOP


# --------------------------------------------------------------------------
# Knowledge bases


class RoleDecl(namedtuple("RoleDecl", "name kind unit closed", defaults=(None, False))):
    """A declared role: abstract (optionally closed-world) or concrete."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, unit: str | None = None, closed: bool = False) -> RoleDecl:
        if kind not in ("abstract", "concrete"):
            raise ModelError(f"role {name}: unknown kind {kind!r}")
        if kind == "concrete" and not unit:
            raise ModelError(f"concrete role {name} needs a unit")
        if kind == "abstract" and unit:
            raise ModelError(f"abstract role {name} cannot carry a unit")
        if kind == "concrete" and closed:
            raise ModelError(f"concrete role {name} cannot be closed")
        return super().__new__(cls, name, kind, unit, closed)


class FuzzyGci(NamedTuple):
    """A graded inclusion axiom ⟨lhs ⊑ rhs, degree⟩."""

    lhs: ConceptExpression
    rhs: ConceptExpression
    degree: Degree = ONE


class FuzzyAssertion(NamedTuple):
    """A graded membership assertion ⟨individual : concept, degree⟩.

    The degree is a lower bound on membership; asserting a negated concept
    is how an upper bound on the positive concept enters the KB.
    """

    individual: str
    concept: ConceptExpression
    degree: Degree = ONE


class RoleAssertion(NamedTuple):
    """A crisp abstract-role fact (subject, filler) : role."""

    subject: str
    filler: str
    role: str


class ConcreteFact(NamedTuple):
    """The (unique) value of a concrete-functional role on an individual."""

    subject: str
    value: Quantity
    role: str


class KnowledgeBase(NamedTuple):
    """A validated knowledge base.

    Invariants guaranteed by :func:`build_kb`: every degree is a
    :class:`~fractions.Fraction`, every role use matches its declaration,
    degree-0 inclusions are already desugared into degree-1 inclusions of
    the negated right side, concrete facts are unique per (individual,
    role), and the registries cover every name mentioned anywhere.
    """

    roles: Mapping[str, RoleDecl]
    gcis: tuple[FuzzyGci, ...]
    assertions: tuple[FuzzyAssertion, ...]
    role_assertions: tuple[RoleAssertion, ...]
    concrete_facts: tuple[ConcreteFact, ...]
    concept_names: frozenset[str]
    individuals: tuple[str, ...]  # sorted registry of every name mentioned
    declared_concepts: frozenset[str] = frozenset()


def check_concept_roles(
    expr: ConceptExpression, roles: Mapping[str, RoleDecl], where: str, seen: set | None = None
) -> list[str]:
    """Validate every quantifier in the expression against the role table; return its atom names.

    Nodes in ``seen`` were validated before, and are skipped with what lies
    beneath them; every node walked is added to it.
    """
    names = []
    for sub in sub_expressions(expr, seen):
        if isinstance(sub, Atom):
            names.append(sub.name)
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
    return names


def _desugar(gci: FuzzyGci) -> FuzzyGci:
    # A degree-0 inclusion states the complement of the right side at degree 1.
    if gci.degree != ZERO:
        return gci
    return FuzzyGci(gci.lhs, Not(gci.rhs), ONE)


def build_kb(
    roles: Sequence[RoleDecl] = (),
    gcis: Sequence[FuzzyGci] = (),
    assertions: Sequence[FuzzyAssertion] = (),
    role_assertions: Sequence[RoleAssertion] = (),
    concrete_facts: Sequence[ConcreteFact] = (),
    declared_concepts: Sequence[str] = (),
) -> KnowledgeBase:
    """Validate and assemble a knowledge base.

    A statement is kept as given unless its degree had to become a
    :class:`~fractions.Fraction`; its concepts are in normal form already.
    Raises :class:`ModelError` on undeclared or mistyped role use, duplicate
    declarations, duplicate concrete facts, or unit mismatches, and
    :class:`DegreeRangeError` on out-of-range degrees.
    """
    role_map: dict[str, RoleDecl] = {}
    for decl in roles:
        if decl.name in role_map:
            raise ModelError(f"role {decl.name!r} declared twice")
        role_map[decl.name] = decl

    # every concept is walked once: ``seen`` holds the nodes already validated
    seen: set[ConceptExpression] = set()
    concepts: set[str] = set(declared_concepts)
    out_gcis = []
    for gci in gcis:
        degree = make_degree(gci.degree)
        concepts.update(check_concept_roles(gci.lhs, role_map, "axiom", seen))
        concepts.update(check_concept_roles(gci.rhs, role_map, "axiom", seen))
        out_gcis.append(_desugar(gci if degree is gci.degree else FuzzyGci(gci.lhs, gci.rhs, degree)))

    out_assertions = []
    for fa in assertions:
        degree = make_degree(fa.degree)
        concepts.update(check_concept_roles(fa.concept, role_map, f"assertion on {fa.individual}", seen))
        out_assertions.append(fa if degree is fa.degree else FuzzyAssertion(fa.individual, fa.concept, degree))

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
