"""The ``harness_sweep`` caller: one process running ``run_workload``.

Started by ``run.py`` with ``PYTHONPATH=src``.  Protocol on stdin/stdout:

1. Imports the harness (and, traced, installs the timing shims), then
   prints ``READY``: the point just before its first ``run_workload``
   call, which ends the set-up the benchmark times.
2. Reads one JSON line ``{"plan": [pair, ...], "seconds": S,
   "trace_out": path or null}``.  End of input instead means the spawn
   only measured set-up; the worker exits.
3. Runs the plan closed loop, on the default backend with memo and
   persist off: one whole pass, then round again over the plan for the
   rest of the ``S`` seconds, skipping any pair whose last run took
   longer than the time left.  Before each run, untimed, the garbage of
   the runs before it is collected, so that a run's time and the peak
   memory do not depend on the seeded order.  One JSON line per run:
   ``{"pair", "ms", "outcome"}``.
4. Ends with ``{"done": true, "wall_s", "peak_rss_kb"}``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import sys
import time

import grid


def main() -> int:
    from repro.config import ALL_ON
    from repro.evalharness import runner
    from repro.serve.protocol import classify_error, run_fingerprint
    from repro.workloads import WORKLOADS_BY_NAME

    recorder = None
    if "--trace" in sys.argv:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    print("READY", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    request = json.loads(line)
    plan, seconds = request["plan"], request["seconds"]
    began = time.perf_counter()
    last: dict[str, float] = {}
    index = 0
    while True:
        ran = False
        for pair in plan:
            left = seconds - (time.perf_counter() - began)
            if pair in last and (left <= 0 or last[pair] > left):
                continue
            program, overrides = grid.split(pair)
            config = dataclasses.replace(ALL_ON, **overrides)
            if recorder is not None:
                recorder.bind(index)
            gc.collect()
            start = time.perf_counter()
            try:
                result = runner.run_workload(WORKLOADS_BY_NAME[program],
                                             config)
                outcome = {"status": 200,
                           "fingerprint": run_fingerprint(result)}
            except Exception as exc:  # every failure is reported, not fatal
                outcome = grid.outcome_of(*classify_error(exc))
            elapsed = time.perf_counter() - start
            print(json.dumps({"pair": pair, "ms": elapsed * 1e3,
                              "outcome": outcome}), flush=True)
            last[pair] = elapsed
            index += 1
            ran = True
        if not ran:
            break
    wall = time.perf_counter() - began
    if recorder is not None:
        recorder.dump(request["trace_out"])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"done": True, "wall_s": wall, "peak_rss_kb": peak}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
