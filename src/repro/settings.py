"""Run-time knobs, resolved once per entry point.

:class:`Settings` is the only reader of ``REPRO_*`` environment
variables.  Each entry point — the ``repro.evalharness`` and
``repro.workloads`` CLIs, the serve daemon and its supervisor — calls
:meth:`Settings.from_env` once, with its own flags as overrides, and
passes the result down explicitly: in the harness's pool task tuples
and as an argument to forked serve workers.  Library calls that take
``settings=None`` resolve one from the environment themselves.

Each field's metadata names its environment variable and tags whether
the knob can change a run's result bytes (``result_affecting``).  The
memo key (:func:`repro.evalharness.memo.memo_key`) hashes exactly the
tagged fields, so what is keyed follows from the tags.

A malformed value raises :class:`SettingsError` naming the variable;
the entry points turn it into a non-zero exit before they bind a
socket or fork a worker.  Resolution is cheap and uncached, and this
module imports only the standard library.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace


class SettingsError(ValueError):
    """A knob holds a value its parser rejects."""


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw
    return parse


def _number(kind, minimum):
    def parse(raw: str):
        value = kind(raw)
        if not value >= minimum:
            raise ValueError(f"must be >= {minimum}")
        return value
    return parse


def _switch(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected 1/0, true/false, yes/no or on/off")


def _path(raw: str) -> str:
    if "\x00" in raw:
        raise ValueError("a path cannot contain a NUL byte")
    return raw


def _fault_spec(raw: str) -> str:
    # Imported here so that importing this module loads no repro code.
    from repro.errors import FaultConfigError
    from repro.faults import parse_spec
    try:
        parse_spec(raw)
    except FaultConfigError as err:
        raise ValueError(str(err)) from None
    return raw


def _knob(env: str, default, parse, *, result_affecting: bool = False):
    return field(default=default, metadata={
        "env": env, "parse": parse, "result_affecting": result_affecting,
    })


@dataclass(frozen=True)
class Settings:
    """Every ``REPRO_*`` knob, parsed and validated."""

    #: Execution backend of harness runs.  Every backend gives
    #: byte-identical stats, so it only sets speed.
    backend: str = _knob("REPRO_BACKEND", "threaded",
                         _choice("reference", "threaded", "pycodegen"))
    #: Fault-injection spec, combined with ``OptConfig.faults``.
    faults: str = _knob("REPRO_FAULTS", "", _fault_spec,
                        result_affecting=True)
    #: Force the degradation ladder on or off; ``None`` turns it on
    #: exactly when a fault point is armed.
    degrade: bool | None = _knob("REPRO_DEGRADE", None, _switch,
                                 result_affecting=True)
    #: Harness pool worker processes (0 = one per CPU).
    jobs: int = _knob("REPRO_JOBS", 1, _number(int, 0))
    #: Seconds a pool round may go without a completed task (0 = none).
    task_timeout: float = _knob("REPRO_TASK_TIMEOUT", 0.0,
                                _number(float, 0.0))
    #: Directory of the harness's content-hash result cache.
    memo_dir: str = _knob("REPRO_MEMO_DIR", ".repro_memo", _path)
    #: Persistent artifact store directory; empty leaves it off.
    persist_dir: str = _knob("REPRO_PERSIST_DIR", "", _path)
    #: Consecutive 5xx outcomes that trip a serve circuit breaker
    #: (0 disables breakers).
    breaker_threshold: int = _knob("REPRO_BREAKER_THRESHOLD", 5,
                                   _number(int, 0))
    #: Worker processes under the serve supervisor.
    serve_procs: int = _knob("REPRO_SERVE_PROCS", 2, _number(int, 1))
    #: Seconds between a supervised worker's heartbeats.
    heartbeat_interval: float = _knob("REPRO_HEARTBEAT_INTERVAL", 0.5,
                                      _number(float, 0.01))
    #: Heartbeat silence after which the supervisor kills a worker.
    heartbeat_timeout: float = _knob("REPRO_HEARTBEAT_TIMEOUT", 5.0,
                                     _number(float, 0.1))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ,
                 **overrides) -> Settings:
        """Parse every knob from ``environ``, then apply the non-``None``
        ``overrides`` (command-line flags, by field name)."""
        values = {}
        for knob in fields(cls):
            name = knob.metadata["env"]
            raw = environ.get(name, "").strip()
            if raw:
                values[knob.name] = _parse(knob, raw, name)
        return cls(**values).override(**overrides)

    def override(self, **overrides) -> Settings:
        """A copy with each non-``None`` override parsed and applied."""
        known = {knob.name: knob for knob in fields(self)}
        values = {}
        for name, value in overrides.items():
            if value is None:
                continue
            if name not in known:
                raise TypeError(f"unknown setting {name!r}")
            values[name] = _parse(known[name], str(value).strip(), name)
        return replace(self, **values) if values else self

    def result_key(self) -> tuple:
        """``(name, value)`` of every result-affecting field."""
        return tuple((knob.name, getattr(self, knob.name))
                     for knob in fields(self)
                     if knob.metadata["result_affecting"])


def _parse(knob, raw: str, label: str):
    try:
        return knob.metadata["parse"](raw)
    except ValueError as err:
        raise SettingsError(f"{label}={raw!r}: {err}") from None
