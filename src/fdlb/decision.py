"""Ranking choices by expert-weighted attribute memberships.

An expert's priorities are a utility box: an ordered list of (attribute,
weight) pairs, attributes being concept names from the knowledge base.  A
choice's score sums weight times the entailed lower membership bound of the
choice in each attribute.  A (choice, attribute) pair whose entailed
interval is still the vacuous [0, 1] is *undecided*: it contributes nothing
and is reported so the knowledge base can be completed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .model import Atom, FdlbError, ZERO

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

    @property
    def undecided(self) -> tuple[str, ...]:
        return tuple(c.attribute for c in self.contributions if c.bound is None)


class DecisionReport(NamedTuple):
    expert_id: str
    rows: tuple[ChoiceScore, ...]  # best score first, ties broken by name

    @property
    def ideal(self) -> str:
        return self.rows[0].choice

    @property
    def undecided(self) -> tuple[tuple[str, str], ...]:
        return tuple((row.choice, attr) for row in self.rows for attr in row.undecided)

    @property
    def complete(self) -> bool:
        return not self.undecided


def _check_attributes(sat: "SaturatedKb", ubox: UtilityBox) -> None:
    known = sat.kb.concept_names
    for name, _ in ubox.entries:
        if name not in known:
            raise UnknownAttributeError(
                f"attribute {name!r} in utility box {ubox.expert_id!r} is not a concept of the knowledge base"
            )


def attribute_utility(sat: "SaturatedKb", choice: str, attribute: str, weight: Fraction) -> AttributeContribution:
    """One attribute's share of a choice's score.

    Undecided memberships (vacuous entailed interval) contribute 0 and are
    flagged with ``bound=None`` rather than silently treated as 0.
    """
    bound = sat.entailed_lower_bound(choice, Atom(attribute))
    contribution = ZERO if bound is None else weight * bound
    return AttributeContribution(attribute, weight, bound, contribution)


def rank(sat: "SaturatedKb", choices: Sequence[str], ubox: UtilityBox) -> DecisionReport:
    """Score every choice and order them best-first (ties: name order); a choice listed twice is an error."""
    if not choices:
        raise EmptyChoiceSetError("no choices to rank")
    seen = set()
    for choice in choices:
        if choice in seen:
            raise FdlbError(f"choice {choice!r} is listed twice")
        seen.add(choice)
    _check_attributes(sat, ubox)
    rows = []
    for choice in choices:
        contributions = tuple(attribute_utility(sat, choice, name, w) for name, w in ubox.entries)
        score = sum((c.contribution for c in contributions), start=ZERO)
        rows.append(ChoiceScore(choice, score, contributions))
    rows.sort(key=lambda row: (-row.score, row.choice))
    return DecisionReport(ubox.expert_id, tuple(rows))

