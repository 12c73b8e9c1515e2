"""Experiment harness: reproduces the paper's Tables 1–5.

* :mod:`repro.evalharness.runner` — run one workload (static baseline +
  dynamically compiled) under a given :class:`~repro.config.OptConfig`,
  with output verification and cycle accounting;
* :mod:`repro.evalharness.metrics` — asymptotic speedup, break-even
  point, overhead per generated instruction (§4.2's definitions);
* :mod:`repro.evalharness.tables` — builders and text renderers for each
  table;
* :mod:`repro.evalharness.memo` — content-hash memoization of run
  results (backend-independent, since both backends produce
  byte-identical statistics);
* :mod:`repro.evalharness.parallel` — process-pool fan-out of runs
  (``--jobs N``);
* :mod:`repro.evalharness.bench` — wall-clock benchmark of the
  reference vs. threaded execution backends (``BENCH_interp.json``);
* ``python -m repro.evalharness <table1|…|table5|dispatch|all|bench>``
  regenerates them from scratch.
"""

from repro.evalharness.bench import run_bench, write_bench
from repro.evalharness.memo import Memoizer, memo_key
from repro.evalharness.metrics import RegionMetrics, breakeven_point
from repro.evalharness.parallel import run_ablations, run_configs
from repro.evalharness.runner import RunResult, run_workload
from repro.evalharness.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    render_table,
    run_all,
)

__all__ = [
    "RegionMetrics",
    "breakeven_point",
    "RunResult",
    "run_workload",
    "Memoizer",
    "memo_key",
    "run_configs",
    "run_ablations",
    "run_bench",
    "write_bench",
    "run_all",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
    "render_table",
]
