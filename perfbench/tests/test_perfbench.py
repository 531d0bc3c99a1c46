"""Tests of the benchmark itself: generator, closed-form answers, tracer.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import random
import time
import types
from fractions import Fraction

import pytest

import fdlb.cli as cli
from fdlb import parse_kb
from fdlb.model import Atom
from layers import Layers
from naive_engine import naive_saturate
from run import ROOT, execute, verify
from tracer import Span, Tracer, self_time
from workloads import (
    ATTRIBUTES,
    WORKLOADS,
    Diamonds,
    Workspace,
    catalogue_text,
    make_catalogue,
    make_wide,
    rank_rows,
    tablet_tbox,
)

TBOX = tablet_tbox(ROOT / "fixtures")


def generated(tmp_path, name, seed, count):
    """The first ``count`` requests, with the bytes of every file they read."""
    ws = Workspace(ROOT, tmp_path)
    out = []
    for request in itertools.islice(WORKLOADS[name](ws, seed), count):
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        argv = tuple(a.replace(str(tmp_path), "<work>") for a in request.argv)
        out.append((argv, request.expect, files))
    return out


def naive(text, extra=()):
    result = parse_kb(text)
    assert result.ok, [d.message for d in result.diagnostics]
    return naive_saturate(result.kb, extra)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_gives_identical_bytes_for_a_seed(tmp_path, name):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        runs[label] = generated(tmp_path / label, name, seed, 6)
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


@pytest.mark.parametrize("seed", range(4))
def test_catalogue_bounds_agree_with_naive_engine(seed):
    rng = random.Random(seed)
    tablets = make_catalogue(rng, 24, inconsistent=seed % 2 == 1)
    consistent, intervals = naive(catalogue_text(TBOX, tablets))
    assert consistent == (seed % 2 == 0)
    if not consistent:
        assert any(t.clashes for t in tablets)
        return
    for t in tablets:
        for attr in ATTRIBUTES:
            interval = intervals.get((t.name, Atom(attr)))
            expected = t.bound(attr)
            if expected is None:
                assert interval is None, (t, attr)
            else:
                assert interval is not None and interval.lo == expected, (t, attr, interval)


@pytest.mark.parametrize("seed", range(4))
def test_wide_goal_bounds_agree_with_naive_engine(seed):
    base = make_wide(random.Random(seed), 4)
    consistent, intervals = naive(base.text())
    assert consistent
    for x in base.individuals:
        for goal, _ in base.weights:
            interval = intervals.get((x, Atom(goal)))
            expected = base.bound(x, goal)
            assert (interval.lo if interval else None) == expected, (x, goal)


def test_diamond_values_and_open_attributes_agree_with_naive_engine():
    rng = random.Random(3)
    tablets = make_catalogue(rng, 3)
    diamonds = Diamonds(tablets[1].name, Fraction(7, 10), tuple((Fraction(9, 10), Fraction(8, 10), Fraction(k, 10)) for k in (7, 10, 8)))
    extra = ["concept Open0;", "concept Open1;", f"assert {tablets[2].name} : Open0 @ 0.4;"]
    consistent, intervals = naive(catalogue_text(TBOX, tablets, extra + diamonds.statements()), [Atom("Open1")])
    assert consistent
    for level in range(4):
        assert intervals[(diamonds.anchor, Atom(f"D{level}"))].lo == diamonds.value(level)
    assert intervals[(tablets[2].name, Atom("Open0"))].lo == Fraction(2, 5)
    assert (tablets[0].name, Atom("Open0")) not in intervals
    assert not any(key[1] == Atom("Open1") for key in intervals)


def test_ranking_expectations_match_the_cli(tmp_path):
    ws = Workspace(ROOT, tmp_path)
    requests = list(itertools.islice(WORKLOADS["catalogue"](ws, 2), 1))
    rank = requests[0]
    assert rank.command == "rank"
    outcome = execute(cli, rank.argv)
    assert verify(rank, outcome) is None
    # the checker notices a wrong score
    payload = json.loads(outcome.stdout)
    payload["experts"][0]["ranking"][0]["score"] = "0.123"
    tampered = type(outcome)(outcome.code, json.dumps(payload), outcome.stderr, outcome.wall)
    assert verify(rank, tampered)[0] == "wrong_answer"


def test_rank_rows_orders_by_score_then_name():
    weights = (("A", Fraction(2)), ("B", Fraction(1)))
    bounds = {("x", "A"): Fraction(1, 2), ("y", "B"): Fraction(1), ("z", "A"): None}
    rows = rank_rows(["z", "y", "x"], weights, lambda c, a: bounds.get((c, a)))
    assert [(c, s) for c, s, _ in rows] == [("x", 1), ("y", 1), ("z", 0)]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", None, 0, 0.0, 10.0, children=[1, 2]),
        Span("a", 0, 0, 1.0, 4.0),
        Span("b", 0, 0, 5.0, 9.0, children=[3]),
        Span("c", 2, 0, 6.0, 7.0),
    ]
    assert [self_time(spans, s) for s in spans] == [3.0, 3.0, 3.0, 1.0]
    layers = Layers()
    layers.add(spans, 0)
    assert layers.self_sum_error == 0.0
    assert layers.own["root"] == 3.0 and layers.total["root"] == 10.0


def test_tracer_records_nested_spans_and_restores_the_originals():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    ns = types.SimpleNamespace()
    ns.leaf = lambda: busy(0.002)
    ns.mid = lambda: (busy(0.002), ns.leaf(), ns.leaf())
    ns.top = lambda: (ns.mid(), busy(0.002))
    originals = (ns.top, ns.mid, ns.leaf)
    tracer = Tracer()
    tracer.install([(ns, "top", "top"), (ns, "mid", "mid"), (ns, "leaf", "leaf"), (ns, "gone", "gone")])
    ns.top()
    tracer.uninstall()
    assert (ns.top, ns.mid, ns.leaf) == originals
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".gone")
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("top", None), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    own = [self_time(spans, s) for s in spans]
    assert own[0] == pytest.approx(spans[0].duration - spans[1].duration)
    assert own[1] == pytest.approx(spans[1].duration - spans[2].duration - spans[3].duration)
    assert sum(own) == pytest.approx(spans[0].duration, abs=1e-9)
    assert all(t >= 0.0019 for t in own)
