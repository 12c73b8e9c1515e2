"""Compare two sets of untraced result files under the benchmark's bounds.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of result files (``run.py`` writes one per run to
``.perfbench_out/results``) or a quoted glob.  For each (workload,
end-to-end metric) one row shows each set's median and quartiles, the
spread (interquartile distance over the median) and, given two sets,
the verdict: ``worse`` when B's median is worse than A's by more than
the metric's bound in ``BENCHMARK.json``, ``better`` when it is better
by more than that, ``same`` otherwise.  A spread above the bound marks
the row ``unsteady`` (``setup_s`` excepted, as in the acceptance rule).
Exit status 1 if any row is ``worse`` or ``unsteady``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import grid


def load_set(spec: str) -> dict[str, list[dict]]:
    """workload -> untraced results of one set."""
    paths = (sorted(glob.glob(os.path.join(spec, "*.json")))
             if os.path.isdir(spec) else sorted(glob.glob(spec)))
    out: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not result.get("traced"):
            out.setdefault(result["workload"], []).append(result)
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with quartiles as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(metric: dict, a: float, b: float) -> str:
    change = (b - a) / a if a else 0.0
    if metric["better"] == "higher":
        change = -change
    if change > metric["bound"]:
        return "worse"
    if change < -metric["bound"]:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(grid.ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    sets = [load_set(spec) for spec in argv]
    bad = False
    header = f"{'workload':14s} {'metric':12s} {'n':>3s} " \
             f"{'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
    print(header + ("  B: n, median, q1, q3, spread, verdict"
                    if len(sets) == 2 else ""))
    for workload in sorted(set().union(*sets)):
        for metric in metrics:
            name = metric["name"]
            row = f"{workload:14s} {name:12s}"
            summaries = []
            for results in sets:
                values = [r["e2e"][name] for r in results.get(workload, [])
                          if name in r["e2e"]]
                if not values:
                    row += "   (no results)"
                    summaries.append(None)
                    continue
                med, q1, q3, spread = summary(values)
                summaries.append(med)
                flag = ""
                if name != "setup_s" and spread > metric["bound"]:
                    flag, bad = " unsteady", True
                row += (f" {len(values):3d} {med:11.4f} {q1:11.4f} "
                        f"{q3:11.4f} {spread:7.3f}{flag}")
            if len(sets) == 2 and None not in summaries:
                word = verdict(metric, *summaries)
                bad = bad or word == "worse"
                row += f"  {word} (bound {metric['bound']})"
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
