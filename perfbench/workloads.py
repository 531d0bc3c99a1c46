"""Seeded inputs for the three benchmark workloads, with closed-form answers.

Nothing in this module imports fdlb.  Every expected answer is computed from
the values the generator drew, by reading the axioms of the tablet TBox (or
of the generated wide TBox) directly; the reasoner is never consulted.  The
same seed always yields the same bytes.

A workload is an iterator of :class:`Request` objects.  Each request names
the CLI arguments of one ``fdlb`` call on files already written to the work
directory, and the answer that call must give.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

F = Fraction
ONE = F(1)
HALF = F(1, 2)
LIGHT_BAND = F(3, 5)
DEGREES = tuple(F(k, 10) for k in range(1, 11))
HIGH_DEGREES = tuple(F(k, 10) for k in range(7, 11))

ATTRIBUTES = ("InexpensiveTablet", "UpperclassTablet", "LightweightTablet")


def decimal(value: Fraction) -> str:
    """Degrees drawn here are tenths, so this is exact."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.10g}"


# --------------------------------------------------------------------------
# Expected answers


@dataclass(frozen=True)
class Ranked:
    """One expert's expected ranking: rows best first, bounds per attribute."""

    expert: str
    rows: tuple[tuple[str, Fraction, tuple[tuple[str, Fraction | None], ...]], ...]

    @property
    def undecided(self) -> frozenset[tuple[str, str]]:
        return frozenset((choice, attr) for choice, _, bounds in self.rows for attr, b in bounds if b is None)


@dataclass(frozen=True)
class Expect:
    """What one request must answer.

    ``exit_code`` is always checked.  ``experts`` holds the rankings that a
    ``rank`` (scores, order, bounds) or ``complete`` (undecided sets) call
    must report; ``value`` is the root bound of an ``explain``; ``clash``
    is the set of individuals an inconsistent base may report the conflict
    on.
    """

    exit_code: int
    experts: tuple[Ranked, ...] = ()
    value: Fraction | None = None
    clash: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Request:
    command: str  # rank | complete | check | explain
    argv: tuple[str, ...]
    expect: Expect


def rank_rows(choices, weights, bound) -> tuple:
    """Rows as ``fdlb.decision.rank`` orders them: score down, then name."""
    rows = []
    for choice in choices:
        bounds = tuple((attr, bound(choice, attr)) for attr, _ in weights)
        score = sum((w * b for (_, w), (_, b) in zip(weights, bounds) if b is not None), start=F(0))
        rows.append((choice, score, bounds))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return tuple(rows)


def parse_ubox_weights(text: str) -> tuple[str, tuple[tuple[str, Fraction], ...]]:
    """Expert name and weights of a ``ubox`` file, read without fdlb."""
    name = re.search(r"ubox\s+(\w+)", text).group(1)
    return name, tuple((a, F(w)) for a, w in re.findall(r"(\w+)\s*=\s*([0-9.]+)\s*;", text))


def ubox_text(expert: str, weights) -> str:
    body = "".join(f"    {attr} = {decimal(w)};\n" for attr, w in weights)
    return f"ubox {expert} {{\n{body}}}\n"


# --------------------------------------------------------------------------
# Tablet catalogues over the tablet_complete TBox


@dataclass(frozen=True)
class Tablet:
    name: str
    price: int  # EUR, always above 200 (the TBox makes a Tablet cost more)
    weight: int | None  # grams; None when only graded observations exist
    weight_obs: tuple[Fraction, Fraction] | None  # degrees of ">= 900 g", "<= 1100 g"
    equipment: tuple[tuple[str, str | None, Fraction], ...]  # (item, grade concept, degree)
    convertible: Fraction | None

    def bound(self, attribute: str) -> Fraction | None:
        """Entailed lower bound, or None when the interval stays [0, 1].

        Read off tablet_complete.fdlb: prices up to 500 EUR are fully
        inexpensive, 500-900 EUR half, from 900 EUR the band is excluded.
        Weights up to 900 g are fully light, up to 1100 g light to 0.6,
        heavier not light at all; graded observations give 0.6 only when
        both exceed 0.4.  A convertible or an all-well equipped tablet is
        upper class, an all-poor one is lower class and so not upper class,
        anything else is left open.
        """
        if attribute == "InexpensiveTablet":
            if self.price <= 500:
                return ONE
            return HALF if self.price < 900 else F(0)
        if attribute == "LightweightTablet":
            if self.weight is None:
                return LIGHT_BAND if min(self.weight_obs) > 1 - LIGHT_BAND else None
            if self.weight <= 900:
                return ONE
            return LIGHT_BAND if self.weight <= 1100 else F(0)
        if attribute == "UpperclassTablet":
            grades = [grade for _, grade, _ in self.equipment]
            if self.convertible is not None or all(g == "WellEquip" for g in grades):
                return ONE
            if all(g == "PoorEquip" for g in grades):
                return F(0)
            return None
        raise ValueError(attribute)

    @property
    def clashes(self) -> bool:
        """A convertible is upper class, which no poorly equipped tablet can be."""
        return self.convertible is not None and any(g == "PoorEquip" for _, g, _ in self.equipment)

    def statements(self) -> list[str]:
        out = [f"assert {self.name} : Tablet;", f"assert ({self.name}, {self.price} EUR) : hasPrice;"]
        if self.weight is not None:
            out.append(f"assert ({self.name}, {self.weight} g) : hasWeight;")
        else:
            low, high = self.weight_obs
            out.append(f"assert {self.name} : EXISTS hasWeight . GE 900 g @ {decimal(low)};")
            out.append(f"assert {self.name} : EXISTS hasWeight . LE 1100 g @ {decimal(high)};")
        for item, grade, degree in self.equipment:
            if grade is not None:
                out.append(f"assert {item} : {grade} @ {decimal(degree)};")
            out.append(f"assert ({self.name}, {item}) : equipped;")
        if self.convertible is not None:
            out.append(f"assert {self.name} : Convertible @ {decimal(self.convertible)};")
        return out


def _spread(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly ``round(share * n)`` labels of each kind, in seeded order.

    Fixed counts keep the work per base the same across seeds; only the
    drawn values and their order change.
    """
    labels: list[str] = []
    for label, share in shares.items():
        labels.extend([label] * round(share * n))
    labels = (labels + [next(iter(shares))] * n)[:n]
    rng.shuffle(labels)
    return labels


PRICE_BANDS = {"cheap": (201, 500), "mid": (501, 899), "dear": (900, 1600)}  # EUR


def make_catalogue(rng: random.Random, n: int, inconsistent: bool = False) -> list[Tablet]:
    """``n`` tablets with graded equipment on the closed ``equipped`` role.

    With ``inconsistent``, one tablet that has a poorly equipped item is
    also asserted ``Convertible``: the base must then be rejected.
    """
    prices = _spread(rng, n, {"cheap": 0.35, "mid": 0.35, "dear": 0.30})
    weights = _spread(rng, n, {"exact": 0.85, "graded": 0.15})
    kits = _spread(rng, n, {"well": 0.40, "poor": 0.25, "mixed": 0.35})
    tablets = []
    for i in range(n):
        name = f"t{i:04d}"
        price = rng.randint(*PRICE_BANDS[prices[i]])
        if weights[i] == "exact":
            weight, obs = rng.randint(350, 1500), None
        else:
            weight, obs = None, (rng.choice(DEGREES), rng.choice(DEGREES))
        fan_out = 1 + i % 3
        if kits[i] == "mixed":
            fan_out = max(fan_out, 2)
            grades = [rng.choice(("WellEquip", "PoorEquip", None)) for _ in range(fan_out)]
            grades[0] = None  # at least one ungraded item keeps the tablet open
        else:
            grades = ["WellEquip" if kits[i] == "well" else "PoorEquip"] * fan_out
        equipment = tuple(
            (f"e{i:04d}_{j}", grade, rng.choice(DEGREES)) for j, grade in enumerate(grades)
        )
        convertible = None
        if "PoorEquip" not in grades and rng.random() < 0.25:
            convertible = rng.choice(DEGREES)
        tablets.append(Tablet(name, price, weight, obs, equipment, convertible))
    if inconsistent:
        candidates = [t for t in tablets if any(g == "PoorEquip" for _, g, _ in t.equipment)]
        bad = rng.choice(candidates)
        tablets[tablets.index(bad)] = replace(bad, convertible=rng.choice(DEGREES))
    return tablets


def catalogue_text(tbox: str, tablets: list[Tablet], extra: Sequence[str] = ()) -> str:
    lines = [tbox.rstrip("\n"), ""]
    lines.extend(extra)
    for t in tablets:
        lines.extend(t.statements())
    return "\n".join(lines) + "\n"


def tablet_tbox(fixtures: Path) -> str:
    """The role declarations and axioms of tablet_complete.fdlb, unchanged."""
    text = (fixtures / "tablet_complete.fdlb").read_text(encoding="utf-8")
    return text[: re.search(r"^assert ", text, re.M).start()]


def clash_set(tablets: list[Tablet]) -> frozenset[str]:
    """Where a conflict may surface: the clashing tablet or one of its items."""
    names: set[str] = set()
    for t in tablets:
        if t.clashes:
            names.add(t.name)
            names.update(item for item, _, _ in t.equipment)
    return frozenset(names)


# --------------------------------------------------------------------------
# Workload: catalogue


CATALOGUE_TABLETS = 150
CATALOGUE_CYCLE = ("rank", "complete", "check", "explain")
CATALOGUE_CLASH_PERIOD = 9  # coprime with the cycle: clashes rotate over commands


class Workspace:
    """Where a workload writes its input files, and the fixtures it reads."""

    def __init__(self, root: Path, work: Path):
        self.fixtures = root / "fixtures"
        self.work = work
        self.tbox = tablet_tbox(self.fixtures)
        self.experts = []
        for name in ("expert1.ubox", "expert2.ubox"):
            path = self.fixtures / name
            self.experts.append((str(path), parse_ubox_weights(path.read_text(encoding="utf-8"))))

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _tablet_request(ws: Workspace, command: str, kb: str, tablets: list[Tablet], rng: random.Random) -> Request:
    clash = clash_set(tablets)
    choices = [t.name for t in tablets]
    by_name = {t.name: t for t in tablets}
    if command == "explain":
        target = rng.choice([t for t in tablets if not t.clashes and any(t.bound(a) for a in ATTRIBUTES)])
        attr = next(a for a in ATTRIBUTES if target.bound(a))
        argv = ("explain", kb, "-i", target.name, "-c", attr)
        expect = Expect(2, clash=clash) if clash else Expect(0, value=target.bound(attr))
        return Request(command, argv, expect)
    if command == "check":
        return Request(command, ("check", kb, "--format", "structured"), Expect(2 if clash else 0, clash=clash))
    argv = [command, kb]
    rankings = []
    for path, (expert, weights) in ws.experts:
        argv += ["--ubox", path]
        rankings.append(Ranked(expert, rank_rows(choices, weights, lambda c, a: by_name[c].bound(a))))
    argv += ["--choices", ",".join(choices), "--format", "structured"]
    if clash:
        return Request(command, tuple(argv), Expect(2, clash=clash))
    code = 3 if command == "complete" and any(r.undecided for r in rankings) else 0
    return Request(command, tuple(argv), Expect(code, tuple(rankings)))


def catalogue(ws: Workspace, seed: int, tablets: int = CATALOGUE_TABLETS) -> Iterator[Request]:
    """A fresh base for every request; every ninth base holds one clash."""
    i = 0
    while True:
        rng = random.Random(f"catalogue:{seed}:{i}")
        base = make_catalogue(rng, tablets, inconsistent=i % CATALOGUE_CLASH_PERIOD == 4)
        kb = ws.write("catalogue.fdlb", catalogue_text(ws.tbox, base))
        yield _tablet_request(ws, CATALOGUE_CYCLE[i % len(CATALOGUE_CYCLE)], kb, base, rng)
        i += 1


# --------------------------------------------------------------------------
# Workload: wide_tbox


WIDE_WIDTH = 20
WIDE_INDIVIDUALS = 4
WIDE_FILLERS = 1
WIDE_CYCLE = ("rank", "check", "complete", "explain")
WIDE_SHAPES = ("and", "or", "exists", "forall")


@dataclass(frozen=True)
class WideBase:
    """Graded inclusions with ``width``-way sides, one goal concept each.

    Axiom ``j`` reads ``lhs_j SUBSUMED-BY G<j> @ grade_j`` where ``lhs_j`` is
    an n-way AND, an n-way OR, ``EXISTS r . (n-way AND)`` or
    ``FORALL s . (n-way OR)`` over atoms of a shared pool.  Role ``s`` is
    closed, so the value restriction is decided by the listed fillers.
    """

    axioms: tuple[tuple[str, tuple[str, ...], Fraction], ...]  # (shape, atoms, grade)
    individuals: tuple[str, ...]
    fillers: dict[str, tuple[str, ...]]
    degrees: dict[tuple[str, str], Fraction]  # asserted (individual, atom) -> degree
    weights: tuple[tuple[str, Fraction], ...]

    def _lo(self, who: str, atom: str) -> Fraction:
        return self.degrees.get((who, atom), F(0))

    def lhs_lower(self, who: str, j: int) -> Fraction:
        shape, atoms, _ = self.axioms[j]

        def conj(v: str) -> Fraction:
            return min(self._lo(v, a) for a in atoms)

        def disj(v: str) -> Fraction:
            return max(self._lo(v, a) for a in atoms)

        if shape == "and":
            return conj(who)
        if shape == "or":
            return disj(who)
        fillers = self.fillers.get(who, ())
        if shape == "exists":
            return max((conj(y) for y in fillers), default=F(0))
        return min((disj(y) for y in fillers), default=ONE)

    def bound(self, who: str, goal: str) -> Fraction | None:
        """A graded inclusion fires once its left side exceeds 1 - grade."""
        j = int(goal[1:])
        grade = self.axioms[j][2]
        return grade if self.lhs_lower(who, j) > 1 - grade else None

    def text(self) -> str:
        lines = ["role r : abstract;", "role s : abstract closed;"]
        for j, (shape, atoms, grade) in enumerate(self.axioms):
            conj, disj = " AND ".join(atoms), " OR ".join(atoms)
            lhs = {
                "and": conj,
                "or": disj,
                "exists": f"EXISTS r . ({conj})",
                "forall": f"FORALL s . ({disj})",
            }[shape]
            lines.append(f"axiom {lhs} SUBSUMED-BY G{j} @ {decimal(grade)};")
        for (who, atom), degree in self.degrees.items():
            lines.append(f"assert {who} : {atom} @ {decimal(degree)};")
        for who, fillers in self.fillers.items():
            for y in fillers:
                lines.append(f"assert ({who}, {y}) : r;")
                lines.append(f"assert ({who}, {y}) : s;")
        return "\n".join(lines) + "\n"


def make_wide(rng: random.Random, width: int) -> WideBase:
    pool = [f"W{k:03d}" for k in range(width + width // 2)]
    axioms = tuple(
        (shape, tuple(sorted(rng.sample(pool, width))), rng.choice((F(1, 2),) + HIGH_DEGREES))
        for shape in WIDE_SHAPES
    )
    individuals = tuple(f"x{k}" for k in range(WIDE_INDIVIDUALS))
    fillers = {x: tuple(f"{x}_y{k}" for k in range(WIDE_FILLERS)) for x in individuals}
    everyone = list(individuals) + [y for ys in fillers.values() for y in ys]
    profile = dict(zip(everyone, _spread(rng, len(everyone), {"strong": 0.5, "weak": 0.5})))
    degrees = {}
    for who in everyone:
        for atom in pool:
            if profile[who] == "strong":
                degrees[(who, atom)] = rng.choice(HIGH_DEGREES)
            elif rng.random() < 0.9:
                degrees[(who, atom)] = rng.choice(DEGREES)
    weights = tuple((f"G{j}", F(rng.randint(1, 9) * 10)) for j in range(len(axioms)))
    return WideBase(axioms, individuals, fillers, degrees, weights)


def _wide_request(ws: Workspace, command: str, base: WideBase, rng: random.Random) -> Request:
    kb = ws.write("wide.fdlb", base.text())
    choices = list(base.individuals)
    if command == "check":
        return Request(command, ("check", kb, "--format", "structured"), Expect(0))
    if command == "explain":
        decided = [(x, g) for x in choices for g, _ in base.weights if base.bound(x, g) is not None]
        if decided:
            who, goal = rng.choice(decided)
            return Request(command, ("explain", kb, "-i", who, "-c", goal), Expect(0, value=base.bound(who, goal)))
        return Request(command, ("explain", kb, "-i", choices[0], "-c", "G0"), Expect(4))
    ubox = ws.write("wide.ubox", ubox_text("planner", base.weights))
    ranked = Ranked("planner", rank_rows(choices, base.weights, base.bound))
    argv = (command, kb, "--ubox", ubox, "--choices", ",".join(choices), "--format", "structured")
    code = 3 if command == "complete" and ranked.undecided else 0
    return Request(command, argv, Expect(code, (ranked,)))


def wide_tbox(ws: Workspace, seed: int, width: int = WIDE_WIDTH) -> Iterator[Request]:
    """A fresh wide base for every request."""
    i = 0
    while True:
        rng = random.Random(f"wide_tbox:{seed}:{i}")
        yield _wide_request(ws, WIDE_CYCLE[i % len(WIDE_CYCLE)], make_wide(rng, width), rng)
        i += 1


# --------------------------------------------------------------------------
# Workload: completion_loop


LOOP_TABLETS = 12
LOOP_ROUNDS = 6  # rounds on one base before the analyst moves to the next
LOOP_DIAMONDS = 12
LOOP_EXPLAIN_LEVELS = (LOOP_DIAMONDS - 2, LOOP_DIAMONDS - 1, LOOP_DIAMONDS)


@dataclass(frozen=True)
class Diamonds:
    """``D<i> ⊑ P<i>``, ``D<i> ⊑ Q<i>``, ``P<i> ⊓ Q<i> ⊑ D<i+1>``, stacked.

    Every grade is at least 0.7 and so is the anchor's ``D0`` degree, so
    each inclusion fires (its left side exceeds 1 - grade) and ``D<i+1>``
    gets exactly the grade of its conjunctive inclusion.
    """

    anchor: str
    start: Fraction
    grades: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def value(self, level: int) -> Fraction:
        return self.start if level == 0 else self.grades[level - 1][2]

    def statements(self) -> list[str]:
        out = []
        for i, (p, q, d) in enumerate(self.grades):
            out.append(f"axiom D{i} SUBSUMED-BY P{i} @ {decimal(p)};")
            out.append(f"axiom D{i} SUBSUMED-BY Q{i} @ {decimal(q)};")
            out.append(f"axiom P{i} AND Q{i} SUBSUMED-BY D{i + 1} @ {decimal(d)};")
        out.append(f"assert {self.anchor} : D0 @ {decimal(self.start)};")
        return out


def completion_loop(ws: Workspace, seed: int) -> Iterator[Request]:
    """The analyst's extend-until-decided loop.

    Each base declares ``Open0 .. Open<R>``, concepts no axiom uses.  In
    round ``r`` the analyst's box weights ``Open<r>`` and ``Open<r+1>``;
    ``Open<k>`` is asserted for tablet ``k mod n`` when round ``k-1``
    decides it (``Open0`` from the start), so ``Open<r+1>`` is still
    outside the closure when ``complete`` runs and each choice's pair
    re-saturates the base.  A round is: check, complete, explain a
    stacked-diamond bound, add one statement, check, rank.
    """
    base = 0
    while True:
        rng = random.Random(f"completion_loop:{seed}:{base}")
        tablets = make_catalogue(rng, LOOP_TABLETS)
        names = [t.name for t in tablets]
        by_name = {t.name: t for t in tablets}
        diamonds = Diamonds(
            rng.choice(names),
            rng.choice(HIGH_DEGREES),
            tuple(tuple(rng.choice(HIGH_DEGREES) for _ in range(3)) for _ in range(LOOP_DIAMONDS)),
        )
        header = [f"concept Open{k};" for k in range(LOOP_ROUNDS + 1)] + diamonds.statements()
        opens = {0: rng.choice(DEGREES)}  # Open<k> -> degree asserted for names[k % n]
        added = [f"assert {names[0]} : Open0 @ {decimal(opens[0])};"]
        for r in range(LOOP_ROUNDS):
            weights = (("InexpensiveTablet", F(50)), (f"Open{r}", F(30)), (f"Open{r + 1}", F(20)))
            ubox = ws.write("analyst.ubox", ubox_text("analyst", weights))

            def bound(choice: str, attr: str) -> Fraction | None:
                if attr.startswith("Open"):
                    k = int(attr[4:])
                    return opens[k] if k in opens and names[k % len(names)] == choice else None
                return by_name[choice].bound(attr)

            def selection(command: str, code: int) -> Request:
                ranked = Ranked("analyst", rank_rows(names, weights, bound))
                argv = (command, kb, "--ubox", ubox, "--choices", ",".join(names), "--format", "structured")
                return Request(command, argv, Expect(code, (ranked,)))

            kb = ws.write("loop.fdlb", catalogue_text(ws.tbox, tablets, header + added))
            yield Request("check", ("check", kb, "--format", "structured"), Expect(0))
            yield selection("complete", 3)
            level = LOOP_EXPLAIN_LEVELS[r % len(LOOP_EXPLAIN_LEVELS)]
            yield Request(
                "explain",
                ("explain", kb, "-i", diamonds.anchor, "-c", f"D{level}"),
                Expect(0, value=diamonds.value(level)),
            )
            opens[r + 1] = rng.choice(DEGREES)
            added.append(f"assert {names[(r + 1) % len(names)]} : Open{r + 1} @ {decimal(opens[r + 1])};")
            kb = ws.write("loop.fdlb", catalogue_text(ws.tbox, tablets, header + added))
            yield Request("check", ("check", kb, "--format", "structured"), Expect(0))
            yield selection("rank", 0)
        base += 1


WORKLOADS = {
    "catalogue": catalogue,
    "wide_tbox": wide_tbox,
    "completion_loop": completion_loop,
}
