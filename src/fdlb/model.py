"""Core value types for fuzzy decision bases.

Membership degrees, degree intervals, unit-tagged quantities, crisp
comparison predicates, concept expressions, graded axioms/assertions, and
the knowledge-base container shared by the parser, the reasoner, and the
decision layer.

Everything here is an immutable value; instances may be shared freely once
constructed.  Concept expressions are interned and built in normal form:
structurally equal ones, and ``And``/``Or`` nodes that differ only in the
order, repetition or nesting of their parts, are one object, so equal means
identical.  Each node is built together with its dual, its negation in
negation normal form, which ``Not`` returns, so a ``NOT`` stands only over
an atom or a concrete restriction.  Every other record (here and in the
other modules) is a :class:`typing.NamedTuple`: it is built positionally
or by keyword, compares and hashes by value, pickles and copies, and
refuses attribute assignment.  Being a tuple, a record also unpacks, and
compares equal to a plain tuple of the same values.  A record that
validates its fields is a thin subclass of a
:func:`collections.namedtuple` that checks them in ``__new__``; ``_make``
and ``_replace`` skip that check.

All numeric fields hold :class:`fractions.Fraction` so that decimal
literals like ``0.6`` survive every min/max/complement/product step
exactly — binary floating point never enters the pipeline.
"""

import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, NamedTuple, Sequence, Union
from weakref import ref

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


class ModelError(FdlbError):
    """A knowledge-base invariant was violated during construction."""


def make_degree(value: Union[Fraction, int, str], literal: str | None = None) -> Fraction:
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

    def __new__(cls, lo: Fraction, hi: Fraction) -> "DegreeInterval":
        make_degree(lo)
        make_degree(hi)
        if lo > hi:
            raise IntervalConflictError(lo, hi)
        return super().__new__(cls, lo, hi)


FULL_INTERVAL = DegreeInterval(ZERO, ONE)


class Quantity(NamedTuple):
    """A magnitude tagged with a unit symbol (``999 EUR``, ``710 g``).

    :func:`build_kb` and :func:`check_concept_roles` hold every value and
    threshold on a concrete role to the role's declared unit, so the
    reasoner compares magnitudes alone.
    """

    magnitude: Fraction
    unit: str


# Comparator symbols for concrete restrictions and the comparison each
# makes.  Surface keywords GT/GE/LT/LE map onto these.
COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class ConcretePredicate(namedtuple("ConcretePredicate", "op threshold")):
    """A crisp comparison against a threshold quantity on a concrete role: ``value op threshold``."""

    __slots__ = ()

    def __new__(cls, op: str, threshold: Quantity) -> "ConcretePredicate":
        if op not in COMPARISONS:
            raise ModelError(f"unknown comparator {op!r}")
        return super().__new__(cls, op, threshold)


# --------------------------------------------------------------------------
# Concept expressions

# Every node, held weakly and keyed by its class and fields, a child node by
# its ``id``: a live node holds its children, so their ids stay theirs, and a
# key that held them would keep a node and its dual, which refer to each
# other, alive once nothing else does.
_INTERNED: dict[tuple, ref] = {}


def _intern(cls: type, fields: tuple, key: tuple) -> "ConceptExpression":
    entry = _INTERNED.get(key)
    node = None if entry is None else entry()
    if node is None:
        node = _make(cls, fields, key)
        # the children have their duals, so the dual is one node more, and a
        # new one: a live dual would hold this node alive
        dual = _make(*_dual_of(node))
        object.__setattr__(node, "_dual", dual)
        object.__setattr__(dual, "_dual", node)
    return node


def _make(cls: type, fields: tuple, key: tuple) -> "ConceptExpression":
    """A new node of ``cls`` with ``fields``, in the table under ``key``; its dual is set by the caller."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        object.__setattr__(node, name, value)
    for name, value in zip(("_key", "_children"), node._derive()):
        object.__setattr__(node, name, value)
    _INTERNED[key] = ref(node, partial(_forget, key))
    return node


def _ill_formed(cls: type, field: str, value: object, expected: str) -> "ModelError":
    return ModelError(f"{cls.__name__}: {field} must be {expected}, not {value!r}")


def _forget(key: tuple, entry: ref) -> None:
    if _INTERNED.get(key) is entry:  # not yet replaced by a new node's entry
        del _INTERNED[key]


class _Concept:
    """A concept expression node, built only through the interning constructor.

    Structurally equal expressions are one node, so ``==`` and ``hash`` are
    identity's and no dict or set lookup walks a tree.  Every node is in
    normal form (see :class:`And` and :class:`Not`), as its children are.
    ``_key`` (the :func:`sort_key`), ``_children`` (the concept nodes
    directly beneath) and ``_dual`` (its ``Not``) are set at construction:
    the children have their duals already, so a new node's dual is one
    node more, and the two hold each other.  Pickling and copying call the
    constructor, so they return the interned node.
    """

    __slots__ = ("_key", "_children", "_dual", "__weakref__")
    _fields: tuple[str, ...] = ()
    _tag: int

    def __new__(cls):  # TOP and BOTTOM; every other node has its own
        return _intern(cls, (), (cls,))

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

    def __new__(cls, name: str):
        if not isinstance(name, str):
            raise _ill_formed(cls, "name", name, "a str")
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
    Every node is built with its dual (see :class:`_Concept`), so ``Not``
    only reads it; a ``Not`` node itself is built as the dual of its body.
    """

    __slots__ = _fields = ("body",)
    body: "ConceptExpression"
    _tag = 3

    def __new__(cls, body: "ConceptExpression"):
        if not isinstance(body, _Concept):
            raise _ill_formed(cls, "body", body, "a concept expression")
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
            elif isinstance(part, _Concept):
                unique.add(part)
            else:
                raise _ill_formed(cls, "parts", part, "concept expressions")
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

    def __new__(cls, role: str, target: Union["ConceptExpression", ConcretePredicate]):
        if not isinstance(role, str):
            raise _ill_formed(cls, "role", role, "a str")
        if isinstance(target, _Concept):
            return _intern(cls, (role, target), (cls, role, id(target)))
        if isinstance(target, ConcretePredicate):
            return _intern(cls, (role, target), (cls, role, target))
        raise _ill_formed(cls, "target", target, "a concept expression or a ConcretePredicate")

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

    def __new__(cls, role: str, body: "ConceptExpression"):
        if not isinstance(role, str):
            raise _ill_formed(cls, "role", role, "a str")
        if not isinstance(body, _Concept):
            raise _ill_formed(cls, "body", body, "a concept expression")
        return _intern(cls, (role, body), (cls, role, id(body)))


ConceptExpression = Union[Top, Bottom, Atom, Not, And, Or, Exists, Forall]


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


def _dual_of(node: ConceptExpression) -> tuple[type, tuple, tuple]:
    """The class, fields and table key of the dual of a new node (never a ``Not``), whose children have theirs."""
    if isinstance(node, (And, Or)):
        # the parts' duals are distinct and none is of the dual's kind: they only need sorting
        cls = Or if isinstance(node, And) else And
        parts = sorted([part._dual for part in node.parts], key=sort_key)
        return cls, (tuple(parts),), (cls, *map(id, parts))
    if isinstance(node, Forall):
        return Exists, (node.role, node.body._dual), (Exists, node.role, id(node.body._dual))
    if isinstance(node, Exists) and not isinstance(node.target, ConcretePredicate):
        return Forall, (node.role, node.target._dual), (Forall, node.role, id(node.target._dual))
    if isinstance(node, (Atom, Exists)):  # a literal: its NOT node
        return Not, (node,), (Not, id(node))
    return (Bottom, (), (Bottom,)) if isinstance(node, Top) else (Top, (), (Top,))


TOP = Top()
BOTTOM = Bottom()


# --------------------------------------------------------------------------
# Knowledge bases


class RoleDecl(namedtuple("RoleDecl", "name kind unit closed", defaults=(None, False))):
    """A declared role: abstract (optionally closed-world) or concrete."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, unit: str | None = None, closed: bool = False) -> "RoleDecl":
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
    degree: Fraction = ONE


class FuzzyAssertion(NamedTuple):
    """A graded membership assertion ⟨individual : concept, degree⟩.

    The degree is a lower bound on membership; asserting a negated concept
    is how an upper bound on the positive concept enters the KB.
    """

    individual: str
    concept: ConceptExpression
    degree: Fraction = ONE


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

    Its statements keep every rule of a well-formed base (below), checked
    once: by :func:`build_kb` when built in code, by the parser when read
    from text.  Both end in :func:`assemble_kb`: every degree is a
    :class:`~fractions.Fraction`, degree-0 inclusions are desugared into
    degree-1 inclusions of the negated right side, and the registries cover
    every name mentioned anywhere.
    """

    roles: Mapping[str, RoleDecl]
    gcis: tuple[FuzzyGci, ...]
    assertions: tuple[FuzzyAssertion, ...]
    role_assertions: tuple[RoleAssertion, ...]
    concrete_facts: tuple[ConcreteFact, ...]
    concept_names: frozenset[str]
    individuals: tuple[str, ...]  # sorted registry of every name mentioned
    declared_concepts: frozenset[str] = frozenset()


# The rules of a well-formed knowledge base, each written once with its one
# message (degrees: :func:`make_degree`; utility-box weights: in
# ``decision``).  :func:`build_kb` and :func:`check_concept_roles` run them
# over statements built in code; the parser runs them per statement, at the
# token a broken rule's message points to.


def declare_role(roles: dict[str, RoleDecl], decl: RoleDecl) -> None:
    """Add ``decl`` to ``roles``: a role is declared once."""
    if decl.name in roles:
        raise ModelError(f"role {decl.name!r} declared twice")
    roles[decl.name] = decl


def declared_role(roles: Mapping[str, RoleDecl], role: str) -> RoleDecl:
    """The declaration of ``role``: a role is declared before it is used."""
    decl = roles.get(role)
    if decl is None:
        raise ModelError(f"role {role!r} is not declared")
    return decl


def check_role_use(decl: RoleDecl, use: str) -> None:
    """The role is of the kind ``use`` needs.

    Abstract for ``"EXISTS"`` or ``"FORALL"`` over a concept and for a pair
    assertion's ``"individual"``; concrete for a ``"comparator"`` and a ``"quantity"``.
    """
    if decl.kind == ("concrete" if use in ("comparator", "quantity") else "abstract"):
        return
    role = decl.name
    if use == "FORALL":
        raise ModelError(f"value restrictions require an abstract role, {role!r} is concrete")
    if use == "EXISTS":
        raise ModelError(f"role {role!r} is concrete: expected a comparator (GT, GE, LT, or LE)")
    if use == "comparator":
        raise ModelError(f"role {role!r} is abstract but used with a comparator")
    expected = "an individual" if decl.kind == "abstract" else "a quantity"
    raise ModelError(f"role {role!r} is {decl.kind}; the filler must be {expected}")


def check_unit(decl: RoleDecl, unit: str) -> None:
    """A quantity on a concrete role is in the role's declared unit."""
    if unit != decl.unit:
        raise ModelError(f"unit {unit!r} does not match role {decl.name!r} declared in {decl.unit!r}")


def add_value(valued: set[tuple[str, str]], subject: str, role: str) -> None:
    """Add ``(subject, role)`` to ``valued``: a functional role has one value per individual."""
    if (subject, role) in valued:
        raise ModelError(f"role {role!r} is functional: {subject!r} already has a value")
    valued.add((subject, role))


def check_concept_roles(expr: ConceptExpression, roles: Mapping[str, RoleDecl], seen: set | None = None) -> None:
    """Check every quantifier in the expression against the role table.

    Nodes in ``seen`` were checked before, and are skipped with what lies
    beneath them; every node walked is added to it.
    """
    for sub in sub_expressions(expr, seen):
        if isinstance(sub, (Exists, Forall)):
            decl = declared_role(roles, sub.role)
            if isinstance(sub, Exists) and isinstance(sub.target, ConcretePredicate):
                check_role_use(decl, "comparator")
                check_unit(decl, sub.target.threshold.unit)
            else:
                check_role_use(decl, "EXISTS" if isinstance(sub, Exists) else "FORALL")


def build_kb(
    roles: Sequence[RoleDecl] = (),
    gcis: Sequence[FuzzyGci] = (),
    assertions: Sequence[FuzzyAssertion] = (),
    role_assertions: Sequence[RoleAssertion] = (),
    concrete_facts: Sequence[ConcreteFact] = (),
    declared_concepts: Sequence[str] = (),
) -> KnowledgeBase:
    """Check statements built in code against every rule, and assemble a knowledge base.

    Concepts are in normal form already; degrees become Fractions.  Raises
    :class:`ModelError` on a broken rule and :class:`DegreeRangeError` on a
    degree outside [0, 1].
    """
    role_map: dict[str, RoleDecl] = {}
    for decl in roles:
        declare_role(role_map, decl)
    seen: set[ConceptExpression] = set()  # every concept node is checked once
    checked_gcis, checked_assertions = [], []
    for gci in gcis:
        checked_gcis.append(gci._replace(degree=make_degree(gci.degree)))
        check_concept_roles(gci.lhs, role_map, seen)
        check_concept_roles(gci.rhs, role_map, seen)
    for fa in assertions:
        checked_assertions.append(fa._replace(degree=make_degree(fa.degree)))
        check_concept_roles(fa.concept, role_map, seen)
    for ra in role_assertions:
        check_role_use(declared_role(role_map, ra.role), "individual")
    valued: set[tuple[str, str]] = set()
    for cf in concrete_facts:
        decl = declared_role(role_map, cf.role)
        check_role_use(decl, "quantity")
        check_unit(decl, cf.value.unit)
        add_value(valued, cf.subject, cf.role)
    return assemble_kb(role_map, checked_gcis, checked_assertions, role_assertions, concrete_facts, declared_concepts)


def assemble_kb(
    roles: Mapping[str, RoleDecl], gcis: Sequence[FuzzyGci], assertions: Sequence[FuzzyAssertion],
    role_assertions: Sequence[RoleAssertion], concrete_facts: Sequence[ConcreteFact], declared_concepts: Sequence[str],
) -> KnowledgeBase:
    """A knowledge base from statements that keep every rule, with ``Fraction`` degrees.

    Checks nothing: :func:`build_kb` and the parser call it once their
    statements pass.  It desugars degree-0 inclusions and registers every
    concept and individual name.
    """
    concepts = set(declared_concepts)
    seen: set[ConceptExpression] = set()
    # a base asserts few distinct concepts many times: each is walked once
    for expr in dict.fromkeys([*(e for gci in gcis for e in (gci.lhs, gci.rhs)), *(fa.concept for fa in assertions)]):
        concepts.update(node.name for node in sub_expressions(expr, seen) if isinstance(node, Atom))
    names = {fa.individual for fa in assertions}
    for ra in role_assertions:
        names.update((ra.subject, ra.filler))
    names.update(cf.subject for cf in concrete_facts)
    return KnowledgeBase(
        roles=dict(sorted(roles.items())),
        # a degree-0 inclusion states the complement of the right side at degree 1
        gcis=tuple(FuzzyGci(g.lhs, Not(g.rhs), ONE) if g.degree == ZERO else g for g in gcis),
        assertions=tuple(assertions),
        role_assertions=tuple(role_assertions),
        concrete_facts=tuple(concrete_facts),
        concept_names=frozenset(concepts),
        individuals=tuple(sorted(names)),
        declared_concepts=frozenset(declared_concepts),
    )
