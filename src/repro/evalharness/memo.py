"""Content-hash memoization of (workload, config, cost model) runs.

Every quantity in a :class:`~repro.evalharness.runner.RunResult` is a
deterministic function of the workload program text, its prepared inputs,
the optimization configuration, and the cost/overhead models — the
execution *backend* explicitly is not part of the key, because every
backend produces byte-identical statistics (enforced by
``tests/test_threaded_backend.py`` and
``tests/test_pycodegen_backend.py``).  The memoizer therefore keys cached
results on a SHA-256 of exactly those inputs, so re-running tables (or the
full ``all`` sweep) only recomputes runs whose inputs actually changed.

Cache entries are one pickle file per key, written atomically
(temp file + ``os.replace``) so concurrent ``--jobs`` workers can share a
cache directory without locking: the worst case is two workers computing
the same run and one ``replace`` winning, which is harmless.

Deterministic specialization failures (``SpecializationError``, e.g. mipsi
without static loads exceeding the context budget) are memoized too — as a
small error marker rather than a result — so Table 5's fallback logic does
not re-pay the failed specialization on a warm cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import weakref

from repro.config import OptConfig
from repro.errors import SpecializationBudgetError, SpecializationError
from repro.ir import Memory
from repro.machine.costs import CostModel
from repro.runtime.overhead import OverheadModel
from repro.settings import Settings
from repro.workloads import WORKLOADS_BY_NAME
from repro.workloads.base import Workload

#: Bump when the RunResult layout or the fingerprint recipe changes;
#: stale entries from older schemas simply never match.  Schema 8 keys
#: the result-affecting :class:`~repro.settings.Settings` fields and
#: nothing else from the environment; schema 9 feeds the inputs as a
#: SHA-256 digest and drops the codegen mode.
_SCHEMA = 9

#: Workload -> SHA-256 of its input fingerprint.  Weak keys: an entry
#: lives as long as its workload, and equal workloads (same ``setup``)
#: share it.
_INPUT_DIGESTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _fingerprint_inputs(workload: Workload) -> str:
    """SHA-256 of a deterministic description of the prepared inputs.

    Runs the workload's ``setup`` on a fresh memory and captures both the
    entry arguments and the full memory image.  ``repr`` round-trips ints
    and floats exactly, so this is a byte-level fingerprint.  ``setup``
    runs once per workload per process; later calls reuse the digest.
    """
    digest = _INPUT_DIGESTS.get(workload)
    if digest is None:
        memory = Memory()
        inp = workload.setup(memory)
        has_checksum = inp.checksum is not None
        text = repr((tuple(inp.args), has_checksum, memory.words()))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        _INPUT_DIGESTS[workload] = digest
    return digest


def memo_key(workload: Workload,
             config: OptConfig,
             cost_model: CostModel,
             overhead: OverheadModel,
             verify: bool = True,
             settings: Settings | None = None) -> str:
    """SHA-256 key over everything that determines a run's statistics.

    Of the knobs it feeds exactly the fields of ``settings`` (resolved
    from the environment when not given) tagged ``result_affecting``.
    Whether a persistent store is active is not fed: a replayed run is
    byte-identical to a cold one (:mod:`repro.runtime.persist`), and
    every store record is keyed on ``PERSIST_SCHEMA`` itself.
    """
    hasher = hashlib.sha256()

    def feed(part: object) -> None:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")

    feed(_SCHEMA)
    feed(workload.name)
    feed(workload.source)
    feed(workload.entry)
    feed(tuple(workload.region_functions))
    feed(workload.icache_capacity_bytes)
    feed(_fingerprint_inputs(workload))
    feed(sorted(dataclasses.asdict(config).items()))
    feed((settings or Settings.from_env()).result_key())
    feed(sorted(dataclasses.asdict(cost_model).items()))
    feed(sorted(dataclasses.asdict(overhead).items()))
    feed(verify)
    return hasher.hexdigest()


class Memoizer:
    """A directory of pickled run results keyed by content hash."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- key construction ------------------------------------------------

    key_for = staticmethod(memo_key)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # -- load ------------------------------------------------------------

    def get(self, key: str):
        """Return the cached RunResult for ``key``, raise a cached
        :class:`SpecializationError`, or return ``None`` on a miss."""
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            return None
        if "error" in payload:
            cls = (SpecializationBudgetError
                   if payload.get("error_kind") == "budget"
                   else SpecializationError)
            fields = payload.get("error_fields") or {}
            raise cls(payload["error"], **fields)
        fields = payload.get("result")
        if not isinstance(fields, dict):
            return None
        workload = WORKLOADS_BY_NAME.get(fields.get("workload"))
        if workload is None:
            return None
        from repro.evalharness.runner import RunResult
        try:
            return RunResult(**{**fields, "workload": workload})
        except TypeError:
            return None

    # -- store -----------------------------------------------------------

    def _write(self, key: str, payload: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key: str, result) -> None:
        """Cache a RunResult (the Workload is stored by name)."""
        fields = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
        }
        fields["workload"] = result.workload.name
        self._write(key, {"schema": _SCHEMA, "result": fields})

    def put_error(self, key: str, error: SpecializationError) -> None:
        """Cache a deterministic specialization failure.

        The raw message and the structured fields are stored separately
        (``str(error)`` already embeds the fields) so :meth:`get` can
        reconstruct an identical exception, subclass included.
        """
        self._write(key, {
            "schema": _SCHEMA,
            "error": getattr(error, "message", str(error)),
            "error_fields": error.fields(),
            "error_kind": (
                "budget" if isinstance(error, SpecializationBudgetError)
                else "spec"
            ),
        })
