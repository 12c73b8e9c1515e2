"""Regenerate ``oracle.json``: the pinned outcome of every grid pair.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_oracle.py

Every pair runs once through ``run_workload`` on the *reference*
interpreter backend (the slowest and simplest backend; every counted
backend must agree with it byte for byte).  A completed run is pinned
by its ``run_fingerprint``; a deterministic specialization failure by
the status, code and message digest the serve daemon would answer with.
Takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import grid
from repro.config import ALL_ON
from repro.errors import SpecializationError
from repro.evalharness.runner import run_workload
from repro.serve.protocol import classify_error, run_fingerprint
from repro.workloads import WORKLOADS_BY_NAME

COMMAND = "PYTHONPATH=src python3 perfbench/make_oracle.py"


def pin(pair: str) -> dict:
    """Run one pair on the reference backend and pin its outcome."""
    program, overrides = grid.split(pair)
    config = dataclasses.replace(ALL_ON, **overrides)
    try:
        result = run_workload(WORKLOADS_BY_NAME[program], config,
                              backend="reference")
    except SpecializationError as exc:
        status, body = classify_error(exc)
        return grid.outcome_of(status, body)
    return {"status": 200, "fingerprint": run_fingerprint(result)}


def main() -> int:
    data = {
        "backend": "reference",
        "command": COMMAND,
        "pairs": {pair: pin(pair) for pair in grid.GRID},
    }
    with open(grid.ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(data['pairs'])} pairs to {grid.ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
