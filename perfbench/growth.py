#!/usr/bin/env python3
"""Ungated growth curve: request time against input size.

    python3 perfbench/growth.py --seed 1

Times a ``rank`` request on a ``catalogue`` base at doubling tablet counts
and on a ``wide_tbox`` base at rising width, three times per point, and
prints the median request time per size with the exponent ``k`` of the
least-squares fit ``time ~ size^k``.  Answers are checked as in the
benchmark.  ``BENCHMARK.json`` does not name this script and no bound
applies to it; it takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, execute, verify

CATALOGUE_SIZES = (100, 200, 400, 800)
WIDE_WIDTHS = (8, 16, 24, 32)
REPEATS = 3


def fitted_exponent(sizes, times) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def curve(cli, make_request, sizes) -> dict:
    points = []
    for size in sizes:
        request = make_request(size)
        times = []
        for _ in range(REPEATS):
            outcome = execute(cli, request.argv)
            problem = verify(request, outcome)
            if problem is not None:
                raise SystemExit(f"growth: wrong answer at size {size}: {problem[1]}")
            times.append(outcome.wall)
        points.append({"size": size, "request_s": statistics.median(times)})
        print(json.dumps(points[-1]), file=sys.stderr)
    return {"points": points, "exponent": fitted_exponent(sizes, [p["request_s"] for p in points])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import fdlb.cli as cli

    from workloads import Workspace, catalogue, wide_tbox

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="growth-", dir=HERE / "_work"))
    try:
        ws = Workspace(ROOT, work)
        report = {
            "seed": args.seed,
            "catalogue_rank_by_tablets": curve(cli, lambda n: next(catalogue(ws, args.seed, tablets=n)), CATALOGUE_SIZES),
            "wide_tbox_rank_by_width": curve(cli, lambda w: next(wide_tbox(ws, args.seed, width=w)), WIDE_WIDTHS),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
