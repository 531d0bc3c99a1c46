"""Ranking choices by expert-weighted attribute memberships.

An expert's priorities are a utility box: an ordered list of (attribute,
weight) pairs, attributes being concept names from the knowledge base.
:func:`rank` asks :meth:`~fdlb.reasoner.SaturatedKb.instance_interval` for
each (choice, attribute) pair, and a choice's score sums weight times the
entailed lower membership bound of the choice in each attribute.  A pair
whose entailed interval is still the vacuous [0, 1] is *undecided*: it
contributes nothing and is reported so the knowledge base can be completed.
A pair at [0, h] with h < 1 is decided, with bound 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .model import Atom, FdlbError, FULL_INTERVAL, ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .reasoner import SaturatedKb


class UnknownAttributeError(FdlbError):
    """A utility-box attribute is not a concept name of the knowledge base."""


class EmptyChoiceSetError(FdlbError):
    """Ranking needs at least one choice."""


class UtilityBox(namedtuple("UtilityBox", "expert_id entries")):
    """One expert's attribute weights, in file order."""

    __slots__ = ()

    def __new__(cls, expert_id: str, entries: tuple[tuple[str, Fraction], ...]) -> UtilityBox:
        seen = set()
        for name, w in entries:
            if name in seen:
                raise FdlbError(f"utility box {expert_id!r} weights attribute {name!r} twice")
            seen.add(name)
            if w < 0:
                raise FdlbError(f"utility box {expert_id!r} gives {name!r} a negative weight")
        return super().__new__(cls, expert_id, entries)


class AttributeContribution(NamedTuple):
    attribute: str
    weight: Fraction
    bound: Fraction | None  # entailed lower membership bound; None = undecided
    contribution: Fraction  # weight * bound, or 0 when undecided


class ChoiceScore(NamedTuple):
    choice: str
    score: Fraction
    contributions: tuple[AttributeContribution, ...]


class DecisionReport(NamedTuple):
    expert_id: str
    rows: tuple[ChoiceScore, ...]  # best score first, ties broken by name

    @property
    def ideal(self) -> str:
        return self.rows[0].choice

    @property
    def undecided(self) -> tuple[tuple[str, str], ...]:
        return tuple((row.choice, c.attribute) for row in self.rows for c in row.contributions if c.bound is None)

    @property
    def complete(self) -> bool:
        return not self.undecided


def rank(sat: "SaturatedKb", choices: Sequence[str], ubox: UtilityBox) -> DecisionReport:
    """Score every choice and order them best-first (ties: name order); a choice listed twice is an error."""
    if not choices:
        raise EmptyChoiceSetError("no choices to rank")
    seen = set()
    for choice in choices:
        if choice in seen:
            raise FdlbError(f"choice {choice!r} is listed twice")
        seen.add(choice)
    known = sat.kb.concept_names
    for name, _ in ubox.entries:
        if name not in known:
            raise UnknownAttributeError(
                f"attribute {name!r} in utility box {ubox.expert_id!r} is not a concept of the knowledge base"
            )
    attributes = [(name, Atom(name), w) for name, w in ubox.entries]
    rows = []
    for choice in choices:
        contributions = []
        for name, atom, w in attributes:
            interval = sat.instance_interval(choice, atom)
            bound = None if interval == FULL_INTERVAL else interval.lo
            contributions.append(AttributeContribution(name, w, bound, ZERO if bound is None else w * bound))
        score = sum((c.contribution for c in contributions), start=ZERO)
        rows.append(ChoiceScore(choice, score, tuple(contributions)))
    rows.sort(key=lambda row: (-row.score, row.choice))
    return DecisionReport(ubox.expert_id, tuple(rows))

