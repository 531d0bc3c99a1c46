#!/usr/bin/env python3
"""The fdlb benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The unit of work is one request: one
in-process call of ``fdlb.cli.main(argv)`` on files this script generated
from the seed, the path a user's ``fdlb`` command takes (read files, parse,
build the knowledge base, saturate, rank or explain, render).  Load is a
closed loop: one client, one process, no threads, each request sent when
the previous one has returned.  Every request starts from a collected heap
and every answer is checked against expectations computed without fdlb.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
request twice, once plain and once with spans around fdlb's public
functions (in alternating order), checks both answers, and reports the
per-layer metrics plus the tracing overhead.

The last line of standard output is the result object; the line before it
is a report with the ungated details (seed, sample counts, the tail
percentile, failures by kind, ``src/`` line count, per-span breakdown).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from layers import Layers, call_sites
from tracer import Tracer
from workloads import WORKLOADS, Workspace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 15
COMMANDS = ("rank", "complete", "check", "explain")
EXPLAIN_ROOT = re.compile(r"(>=|<=)\s+(\d+(?:\.\d+)?(?:/\d+)?)")


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    wall: float
    error: str | None = None


def execute(cli, argv) -> Outcome:
    """One request: ``fdlb.cli.main`` on a collected heap, output captured."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed request, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), wall, error)


def verify(request, outcome: Outcome) -> tuple[str, str] | None:
    """None when the answer is right, else (kind, detail).

    Only scores, bounds, undecided sets, verdicts and exit codes are read,
    never layout: rank/complete/check use ``--format structured``, and an
    explanation's text is read only for the first bound it states (the
    root's).
    """
    expect = request.expect
    if outcome.error is not None:
        return "exception", outcome.error
    if outcome.code != expect.exit_code:
        return "exit_code", f"exit {outcome.code}, expected {expect.exit_code}"
    if expect.clash and request.command != "check":
        return None  # the conflict goes to stderr as text; the exit code is the verdict
    try:
        if request.command == "explain":
            if expect.value is None:
                return None
            m = EXPLAIN_ROOT.search(outcome.stdout)
            if m is None or m.group(1) != ">=" or Fraction(m.group(2)) != expect.value:
                return "wrong_answer", f"explained bound {m and m.group(0)!r}, expected >= {expect.value}"
            return None
        payload = json.loads(outcome.stdout)
        if request.command == "check":
            if expect.exit_code == 0 and payload["consistent"] is not True:
                return "wrong_answer", "base reported inconsistent"
            if expect.clash and payload["conflicts"][0]["individual"] not in expect.clash:
                return "wrong_answer", f"conflict on {payload['conflicts'][0]['individual']}"
            return None
        experts = payload["experts"]
        if [e["id"] for e in experts] != [r.expert for r in expect.experts]:
            return "wrong_answer", "experts differ"
        for got, want in zip(experts, expect.experts):
            undecided = {(u["choice"], u["attribute"]) for u in got["undecided"]}
            if undecided != want.undecided:
                return "wrong_answer", f"{want.expert}: undecided {sorted(undecided ^ want.undecided)[:3]}"
            if request.command == "rank":
                rows = tuple(
                    (
                        row["choice"],
                        Fraction(row["score"]),
                        tuple(
                            (c["attribute"], None if c["bound"] is None else Fraction(c["bound"]))
                            for c in row["contributions"]
                        ),
                    )
                    for row in got["ranking"]
                )
                if rows != want.rows:
                    wrong = [(a, b) for a, b in zip(rows, want.rows) if a != b] or [(len(rows), len(want.rows))]
                    return "wrong_answer", f"{want.expert}: got {wrong[0][0]}, expected {wrong[0][1]}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "wrong_answer", f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def warmup(cli, fixtures: Path) -> list[tuple[str, tuple[str, str] | None]]:
    """Untimed requests on the bundled fixtures, against their pinned answers.

    The README and tests/test_acceptance.py pin these: expert1 ranks tab_3
    first with 89, expert2 tab_2 with 60; tablet_fuzzy leaves exactly
    (tab_3, InexpensiveTablet) and (tab_2, LightweightTablet) open; clash.fdlb
    is inconsistent in e_1.  Returns (label, problem or None) per request.
    """
    f = {name: str(fixtures / name) for name in (
        "tablet_complete.fdlb", "tablet_fuzzy.fdlb", "clash.fdlb", "expert1.ubox", "expert2.ubox")}
    tablets = ("--choices", "tab_1,tab_2,tab_3", "--format", "structured")
    cases = [
        (("rank", f["tablet_complete.fdlb"], "--ubox", f["expert1.ubox"], "--ubox", f["expert2.ubox"]) + tablets, 0,
         lambda p: [(e["ideal"], Fraction(e["ranking"][0]["score"])) for e in p["experts"]]
         == [("tab_3", 89), ("tab_2", 60)]),
        (("complete", f["tablet_fuzzy.fdlb"], "--ubox", f["expert1.ubox"]) + tablets, 3,
         lambda p: {(u["choice"], u["attribute"]) for u in p["experts"][0]["undecided"]}
         == {("tab_3", "InexpensiveTablet"), ("tab_2", "LightweightTablet")}),
        (("check", f["clash.fdlb"], "--format", "structured"), 2,
         lambda p: p["conflicts"][0]["individual"] == "e_1"),
    ]
    results = []
    for argv, code, answer_ok in cases:
        outcome = execute(cli, argv)
        try:
            ok = outcome.code == code and answer_ok(json.loads(outcome.stdout))
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        problem = None if ok else ("warmup", f"exit {outcome.code} {outcome.error or ''}".strip())
        results.append((f"warm-up {argv[0]} {Path(argv[1]).name}", problem))
    return results


class Tally:
    """Checked requests, and the failures among them by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.examples: list[str] = []

    def record(self, label: str, problem: tuple[str, str] | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures[problem[0]] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label}: {problem[1]}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def setup_seconds(spawns: int = SETUP_SPAWNS) -> float:
    """Median time a fresh interpreter takes to import the CLI.

    ``fdlb.cli`` is what the ``fdlb`` command imports (it imports the
    ``fdlb`` package first), so this is what every invocation pays before
    it starts work, beyond the interpreter's own start-up.  Each child
    times its import and prints the seconds; one unmeasured spawn warms
    the byte-code cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import time; t = time.perf_counter(); import fdlb.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(spawns + 1):
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        times.append(float(child.stdout))
    return statistics.median(times[1:])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run(args) -> int:
    if not (ROOT / "src" / "fdlb").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no fdlb sources under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fdlb.cli as cli
    import fdlb.kbtext as kbtext
    import fdlb.reasoner as reasoner

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        setup = None if args.trace else setup_seconds()
        ws = Workspace(ROOT, work)
        tally = Tally()
        for label, problem in warmup(cli, ws.fixtures):
            tally.record(label, problem)
        requests = WORKLOADS[args.workload](ws, args.seed)
        tracer = Tracer() if args.trace else None
        sites = call_sites(cli, kbtext, reasoner)
        layers = Layers()
        walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
        plain_s = traced_s = 0.0
        plain_correct = 0
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or not all(walls.values()):
            request = next(requests)
            passes = [False] if tracer is None else [i % 2 == 1, i % 2 == 0]
            for traced in passes:
                if traced:
                    tracer.request = i
                    tracer.install(sites)
                    try:
                        outcome = execute(cli, request.argv)
                    finally:
                        tracer.uninstall()
                    layers.add(tracer.take(), len(outcome.stdout.encode()) + len(outcome.stderr.encode()))
                    traced_s += outcome.wall
                else:
                    outcome = execute(cli, request.argv)
                    walls[request.command].append(outcome.wall)
                    plain_s += outcome.wall
                problem = verify(request, outcome)
                plain_correct += problem is None and not traced
                tally.record(request.command, problem)
            i += 1
        all_walls = [w for samples in walls.values() for w in samples]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "src_lines": src_lines(),
            "requests": i,
            "samples": {c: len(v) for c, v in walls.items()},
            "failed_share": tally.failed / tally.attempted,
            "failures": dict(tally.failures),
            "failure_examples": tally.examples,
        }
        if tracer is not None:
            report["trace.overhead"] = traced_s / plain_s - 1
            report["trace.self_sum_error_s"] = layers.self_sum_error
            report["trace.missing_sites"] = tracer.missing
            report["layers"] = layers.breakdown()
            metrics = layers.metrics()
        else:
            tail_value, report["request_s.tail_percentile"] = tail(all_walls)
            metrics = {
                "setup_s": (setup, "s"),
                "request_s.p50": (statistics.median(all_walls), "s"),
                "request_s.tail": (tail_value, "s"),
                "requests_per_s": (plain_correct / plain_s, "1/s"),
                **{f"{c}_s.p50": (statistics.median(walls[c]), "s") for c in COMMANDS},
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        # self times that do not add up to the traced wall time would make every per-layer number suspect
        sound = tracer is None or layers.self_sum_error < 1e-6
        result = {
            "correct": tally.failed == 0 and sound,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
