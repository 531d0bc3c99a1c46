"""Ranking choices by expert-weighted attribute memberships.

An expert's priorities are a utility box: an ordered list of (attribute,
weight) pairs, attributes being concept names from the knowledge base.  A
choice's score sums weight times the entailed lower membership bound of the
choice in each attribute.  A pair whose entailed interval is still the
vacuous [0, 1] is *undecided*: it contributes nothing and is reported so the
knowledge base can be completed.  A pair at [0, h] with h < 1 is decided,
with bound 0.  :func:`rank` scores in integers, from one
:meth:`~fdlb.reasoner.SaturatedKb.scaled_bounds` read; rows share each
distinct contribution and score.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
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
    scale, bounds = sat.scaled_bounds(choices, [Atom(name) for name, _ in ubox.entries])
    unit = lcm(*(w.denominator for _, w in ubox.entries))
    totals = [0] * len(choices)  # minus each choice's score, times unit * scale
    columns = []
    for (name, w), (los, his) in zip(ubox.entries, bounds):
        weight = w.numerator * (unit // w.denominator)
        totals = [t - weight * lo for t, lo in zip(totals, los)]  # an undecided pair's lo is 0
        keys = [lo if lo or hi < scale else -1 for lo, hi in zip(los, his)]  # -1: undecided
        made = {k: AttributeContribution(name, w, None, ZERO) if k < 0 else
                AttributeContribution(name, w, Fraction(k, scale), w * Fraction(k, scale)) for k in set(keys)}
        columns.append([made[k] for k in keys])
    scores = {t: Fraction(-t, unit * scale) for t in set(totals)}
    rows = sorted(zip(totals, choices, zip(*columns) if columns else [()] * len(choices)))  # choices differ
    return DecisionReport(ubox.expert_id, tuple(ChoiceScore(c, scores[t], cs) for t, c, cs in rows))

