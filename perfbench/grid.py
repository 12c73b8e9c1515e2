"""The benchmark's grid of (program, config) pairs and its oracle.

The *grid* is every one of the paper's ten MiniC programs crossed with
``ALL_ON`` and each of the nine Table 5 ablations switched off: 100
pairs.  A pair is named ``program/config``, where ``config`` is
``ALL_ON`` or ``-<switch>`` (that switch off, everything else on).

The oracle (``oracle.json`` beside this file) pins the outcome of every
pair as computed on the *reference* interpreter backend: a
``run_fingerprint`` for a completed run, or the structured error for a
deterministic specialization failure.  ``make_oracle.py`` regenerates
it.  This module imports nothing from ``repro`` so the load generator
and the result checks stay independent of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE_PATH = os.path.join(HERE, "oracle.json")

#: Program names in the paper's Table 1 order.
PROGRAMS = (
    "dinero", "m88ksim", "mipsi", "pnmconvol", "viewperf",
    "binary", "chebyshev", "dotproduct", "query", "romberg",
)

#: ``repro.config.TABLE5_ABLATIONS``, in the paper's column order.
ABLATIONS = (
    "complete_loop_unrolling",
    "static_loads",
    "unchecked_dispatching",
    "static_calls",
    "zero_copy_propagation",
    "dead_assignment_elimination",
    "strength_reduction",
    "internal_promotions",
    "polyvariant_division",
)

#: The programs alternating costly and cheap (by their reference-backend
#: run time), the order in which ``serve_zipf`` spaces its cold misses.
COLD_ORDER = (
    "romberg", "dinero", "dotproduct", "m88ksim", "mipsi",
    "pnmconvol", "query", "viewperf", "chebyshev", "binary",
)

CONFIGS = ("ALL_ON",) + tuple(f"-{name}" for name in ABLATIONS)

GRID = tuple(f"{program}/{config}"
             for program in PROGRAMS for config in CONFIGS)

#: Pairs whose run ends in a deterministic context-budget overrun (422).
BUDGET_OVERRUNS = ("mipsi/-static_loads", "mipsi/-static_calls")


def split(pair: str) -> tuple[str, dict]:
    """``program/config`` -> (program, OptConfig override dict)."""
    program, config = pair.split("/")
    if config == "ALL_ON":
        return program, {}
    return program, {config[1:]: False}


def error_digest(code: str, message: str) -> str:
    """Short stable digest of a structured error (code + message)."""
    return hashlib.sha256(f"{code}\x00{message}".encode()).hexdigest()


def outcome_of(status: int, body: dict) -> dict:
    """The oracle-comparable part of a served ``/run`` response."""
    if status == 200:
        return {"status": 200, "fingerprint": body.get("fingerprint")}
    error = body.get("error") if isinstance(body, dict) else None
    if not isinstance(error, dict):
        return {"status": status}
    return {"status": status, "code": error.get("code"),
            "error": error_digest(str(error.get("code")),
                                  str(error.get("message")))}


def load_oracle() -> dict[str, dict]:
    """``pair -> expected outcome`` from the pinned oracle file."""
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        pairs = json.load(handle)["pairs"]
    missing = [pair for pair in GRID if pair not in pairs]
    if missing:
        raise ValueError(f"oracle {ORACLE_PATH} lacks pairs: "
                         f"{missing[:3]}")
    return pairs
