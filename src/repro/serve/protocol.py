"""Request/response protocol for the serve daemon.

The wire format is JSON over HTTP (see :mod:`repro.serve.http`); this
module owns everything about the *meaning* of a request — validation,
:class:`~repro.config.OptConfig` construction, the error taxonomy that
maps library exceptions onto HTTP statuses, and the result fingerprint
that lets a client verify a served result is byte-identical to an
offline :func:`~repro.evalharness.runner.run_workload` run.

Error taxonomy
--------------

==========  ==========================================================
status      meaning
==========  ==========================================================
400         malformed request (bad JSON, unknown workload/config
            field, negative integer field, invalid fault spec)
404 / 405   unknown path / method on a known path
413         request body exceeds :data:`MAX_BODY_BYTES`
422         the run itself failed deterministically
            (:class:`~repro.errors.SpecializationError`, e.g. a
            context-budget overrun without the ladder's residualizer)
429         per-tenant quota exhausted (retryable by *other* tenants;
            carries ``retry_after`` + a ``Retry-After`` header)
500         injected admission fault (``serve.admit``), verification
            or machine failure — the daemon survives and reports it
502         :class:`~repro.errors.HarnessError` from a delegated sweep
503         admission queue full (global backpressure) or an open
            per-(tenant, workload) circuit breaker (``circuit_open``);
            both retryable, both carry ``retry_after`` + the header
==========  ==========================================================

Every error response body is structured::

    {"error": {"code": "...", "message": "...", ...fields}}

so load generators and clients can assert on *which* failure occurred,
not just the status class.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.config import ALL_ON, OptConfig
from repro.errors import (
    CacheError,
    FaultConfigError,
    HarnessError,
    MachineError,
    ReproError,
    SpecializationBudgetError,
    SpecializationError,
    WorkerFault,
)
from repro.faults import parse_spec
from repro.workloads import WORKLOADS_BY_NAME

#: Largest accepted request body; larger bodies draw a 413.
MAX_BODY_BYTES = 1 << 20

#: Longest accepted tenant name (tenants are free-form strings).
MAX_TENANT_LEN = 64

#: Longest accepted ``echo`` token (opaque client request id).
MAX_ECHO_LEN = 128

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(OptConfig)}


class BadRequest(ReproError):
    """A structurally invalid request (maps to HTTP 400)."""


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """A validated ``POST /run`` body."""

    tenant: str
    workload: str
    config: OptConfig
    verify: bool = True
    no_cache: bool = False
    #: Opaque client-chosen request id, echoed verbatim in the response
    #: body (cached, coalesced, and error responses included).  The
    #: chaos harness uses it to prove every request got exactly its own
    #: response — no losses, duplicates, or cross-wiring — across
    #: worker kills and retries.  Never part of any cache or memo key.
    echo: str | None = None


def parse_run_request(payload: object) -> RunRequest:
    """Validate a decoded JSON body into a :class:`RunRequest`.

    Raises :class:`BadRequest` with a human-readable message on any
    structural problem; the config override dict is checked field by
    field against :class:`~repro.config.OptConfig` (including an eager
    parse of any ``faults`` spec) so typos fail fast with a 400 instead
    of surfacing as a 500 deep inside a worker thread.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    workload = payload.get("workload")
    if not isinstance(workload, str) or workload not in WORKLOADS_BY_NAME:
        known = ", ".join(sorted(WORKLOADS_BY_NAME))
        raise BadRequest(
            f"unknown workload {workload!r} (known: {known})"
        )
    tenant = payload.get("tenant", "anon")
    if not isinstance(tenant, str) or not tenant \
            or len(tenant) > MAX_TENANT_LEN:
        raise BadRequest(
            f"tenant must be a non-empty string of at most "
            f"{MAX_TENANT_LEN} characters"
        )
    verify = payload.get("verify", True)
    if not isinstance(verify, bool):
        raise BadRequest("verify must be a boolean")
    no_cache = payload.get("no_cache", False)
    if not isinstance(no_cache, bool):
        raise BadRequest("no_cache must be a boolean")
    echo = payload.get("echo")
    if echo is not None and (not isinstance(echo, str)
                             or len(echo) > MAX_ECHO_LEN):
        raise BadRequest(
            f"echo must be a string of at most {MAX_ECHO_LEN} characters"
        )
    config = build_config(payload.get("config", {}))
    return RunRequest(tenant=tenant, workload=workload, config=config,
                      verify=verify, no_cache=no_cache, echo=echo)


def build_config(overrides: object) -> OptConfig:
    """Build an :class:`OptConfig` from a request's override dict.

    The base is ``ALL_ON`` (the paper's full configuration), matching
    the offline harness default, so a request with no overrides hits
    the same memo key as ``run_workload(workload)``.
    """
    if not isinstance(overrides, dict):
        raise BadRequest("config must be a JSON object")
    cleaned: dict[str, object] = {}
    for name, value in overrides.items():
        spec = _CONFIG_FIELDS.get(name)
        if spec is None:
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise BadRequest(
                f"unknown config field {name!r} (known: {known})"
            )
        if spec.type == "bool":
            if not isinstance(value, bool):
                raise BadRequest(f"config field {name!r} must be a boolean")
        elif spec.type == "int":
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise BadRequest(
                    f"config field {name!r} must be a non-negative integer"
                )
        elif spec.type == "str":
            if not isinstance(value, str):
                raise BadRequest(f"config field {name!r} must be a string")
        cleaned[name] = value
    try:
        config = dataclasses.replace(ALL_ON, **cleaned)
    except (TypeError, ValueError) as err:
        raise BadRequest(f"invalid config: {err}") from None
    if config.faults:
        try:
            parse_spec(config.faults)
        except FaultConfigError as err:
            raise BadRequest(str(err)) from None
    return config


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

def run_fingerprint(result) -> str:
    """SHA-256 over everything a run *measures*.

    Backends are excluded by construction: every backend produces byte-identical statistics, so a client can re-run the same
    (workload, config) offline on any backend and compare fingerprints
    to prove the daemon served an untampered result.
    """
    hasher = hashlib.sha256()
    for part in (
        result.workload.name,
        result.static_total_cycles,
        result.dynamic_total_cycles,
        result.dc_cycles,
        sorted(result.static_region_cycles.items()),
        sorted(result.dynamic_region_cycles.items()),
        sorted(result.region_entries.items()),
        result.outputs_match,
        result.return_values,
        result.degraded_translations,
        result.degraded_compilations,
    ):
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def degradation_counters(result) -> dict[str, int]:
    """Aggregate the ladder's per-region counters over a run."""
    totals = {
        "specialization_failures": 0,
        "respecializations": 0,
        "fallback_executions": 0,
        "quarantined_contexts": 0,
        "quarantine_skips": 0,
        "budget_truncations": 0,
        "cache_corruptions": 0,
    }
    for stats in result.region_stats.values():
        for name in totals:
            totals[name] += getattr(stats, name, 0)
    totals["degraded_translations"] = result.degraded_translations
    totals["degraded_compilations"] = result.degraded_compilations
    return totals


def result_payload(result, backend: str) -> dict:
    """JSON-safe response body for a completed run."""
    return {
        "workload": result.workload.name,
        "backend": backend,
        "fingerprint": run_fingerprint(result),
        "static_total_cycles": result.static_total_cycles,
        "dynamic_total_cycles": result.dynamic_total_cycles,
        "dc_cycles": result.dc_cycles,
        "static_region_cycles": dict(sorted(
            result.static_region_cycles.items())),
        "dynamic_region_cycles": dict(sorted(
            result.dynamic_region_cycles.items())),
        "region_entries": dict(sorted(result.region_entries.items())),
        "outputs_match": result.outputs_match,
        "return_values": list(result.return_values),
        "degradation": degradation_counters(result),
    }


def error_body(code: str, message: str, **fields: object) -> dict:
    body = {"code": code, "message": message}
    for name, value in fields.items():
        if value is not None:
            body[name] = value
    return {"error": body}


def classify_error(exc: BaseException) -> tuple[int, dict]:
    """Map a library exception to ``(status, structured body)``."""
    if isinstance(exc, BadRequest):
        return 400, error_body("bad_request", str(exc))
    if isinstance(exc, FaultConfigError):
        return 400, error_body("bad_fault_spec", str(exc))
    if isinstance(exc, SpecializationError):
        code = ("specialization_budget"
                if isinstance(exc, SpecializationBudgetError)
                else "specialization_error")
        fields = {k: v for k, v in exc.fields().items() if v is not None}
        if "context_key" in fields:
            fields["context_key"] = list(fields["context_key"])
        return 422, error_body(code, exc.message, **fields)
    if isinstance(exc, WorkerFault):
        return 500, error_body("injected_fault", str(exc))
    if isinstance(exc, HarnessError):
        return 502, error_body("harness_error", str(exc),
                               failures=len(exc.failures))
    if isinstance(exc, CacheError):
        return 500, error_body("cache_error", str(exc))
    from repro.evalharness.runner import VerificationError
    if isinstance(exc, VerificationError):
        return 500, error_body("verification_error", str(exc))
    if isinstance(exc, MachineError):
        return 500, error_body("machine_error", str(exc))
    if isinstance(exc, ReproError):
        return 500, error_body("internal_error", str(exc))
    return 500, error_body(
        "internal_error", f"{type(exc).__name__}: {exc}"
    )
