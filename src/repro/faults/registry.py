"""Deterministic, seedable fault injection for the runtime.

The degradation ladder (see ``DESIGN.md``) only earns trust if every rung
can be *exercised on demand*: this module provides named fault points
spread across the dynamic-compilation pipeline — the specializer, the
code caches, the instruction emitter, the threaded-translation cache, and
the eval-harness pool workers — each of which can be armed with a
deterministic trigger.  No global randomness is involved: probabilistic
triggers use a per-point xorshift64 stream seeded from the spec, so a
given spec string always injects the same faults at the same hit counts.

Spec strings
------------

A spec is a ``;``-separated list of ``point[:param[,param...]]`` entries::

    specializer.entry                fire on every hit
    specializer.entry:once           fire on the first hit only
    emit.template:at=3               fire on the 3rd hit only
    cache.corrupt:every=2            fire on every 2nd hit
    worker.error:p=0.5,seed=7        fire pseudo-randomly (deterministic)
    worker.hang:once,secs=2          point-specific extras ride along

Specs combine from ``OptConfig.faults`` and ``Settings.faults`` (the
``REPRO_FAULTS`` environment variable; see :func:`resolve_fault_spec`);
arming any fault point also switches the runtime's graceful degradation
on by default (:func:`resolve_degrade`), since injecting faults without
the ladder would just crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultConfigError

#: Every named fault point, with the failure it simulates.
FAULT_POINTS: dict[str, str] = {
    "specializer.entry":
        "specialize_entry fails before any context is processed",
    "specializer.continuation":
        "lazy promotion continuation fails to specialize",
    "specializer.budget":
        "per-batch context budget collapses to zero (runaway unrolling)",
    "emit.template":
        "the block emitter fails while emitting a template instruction",
    "cache.corrupt":
        "a cache-all insertion stores a corrupt entry checksum",
    "cache.evict":
        "a cache-all insertion first evicts a live entry",
    "pycodegen.compile":
        "the codegen backend fails to compile a function to Python",
    "threaded.translate":
        "the threaded backend fails to translate a function",
    "serve.admit":
        "the serve daemon fails an admitted request before execution",
    "serve.worker_heartbeat":
        "a supervised worker's heartbeat goes silent (simulated hang)",
    "serve.respond":
        "a worker dies or drops the connection instead of responding",
    "persist.load":
        "a persisted artifact fails integrity verification on load",
    "persist.store":
        "a persisted artifact write is dropped before reaching disk",
    "persist.fsync":
        "the fsync barrier of a persisted artifact write fails",
    "worker.crash":
        "a pool worker dies with os._exit (BrokenProcessPool)",
    "worker.error":
        "a pool worker raises before running its task",
    "worker.hang":
        "a pool worker sleeps (bounded) before running its task",
}

#: Fault points that fire inside eval-harness pool workers rather than
#: inside the runtime proper.
WORKER_POINTS = ("worker.crash", "worker.error", "worker.hang")

_MODES = ("always", "once", "at", "every", "p")


def _fnv(text: str) -> int:
    h = 0xcbf29ce484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault point with its trigger mode."""

    point: str
    mode: str = "always"
    n: int = 0          # for at= / every=
    p: float = 0.0      # for p=
    seed: int = 0       # for p=
    secs: float = 30.0  # worker.hang sleep bound

    @property
    def describe(self) -> str:
        if self.mode == "always":
            return self.point
        if self.mode in ("at", "every"):
            return f"{self.point}:{self.mode}={self.n}"
        if self.mode == "p":
            return f"{self.point}:p={self.p},seed={self.seed}"
        return f"{self.point}:{self.mode}"


def parse_spec(text: str | None) -> dict[str, FaultSpec]:
    """Parse a spec string into per-point :class:`FaultSpec` entries.

    Later entries for the same point override earlier ones, so an
    environment spec can tighten a config spec.
    """
    specs: dict[str, FaultSpec] = {}
    if not text:
        return specs
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, _, params = chunk.partition(":")
        point = point.strip()
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise FaultConfigError(
                f"unknown fault point {point!r} (known: {known})"
            )
        fields: dict[str, object] = {}
        for param in params.split(","):
            param = param.strip()
            if not param:
                continue
            key, eq, value = param.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq:
                if key not in ("once", "always"):
                    raise FaultConfigError(
                        f"fault point {point!r}: bare parameter {key!r} "
                        "is not a trigger mode (use once or always)"
                    )
                fields["mode"] = key
                continue
            if key in ("at", "every"):
                fields["mode"] = key
                fields["n"] = _parse_int(point, key, value)
            elif key == "p":
                fields["mode"] = "p"
                fields["p"] = _parse_float(point, key, value)
            elif key == "seed":
                fields["seed"] = _parse_int(point, key, value)
            elif key == "secs":
                fields["secs"] = _parse_float(point, key, value)
            else:
                raise FaultConfigError(
                    f"fault point {point!r}: unknown parameter {key!r}"
                )
        spec = FaultSpec(point=point, **fields)
        if spec.mode in ("at", "every") and spec.n < 1:
            raise FaultConfigError(
                f"fault point {point!r}: {spec.mode}= requires N >= 1"
            )
        if spec.mode == "p" and not 0.0 <= spec.p <= 1.0:
            raise FaultConfigError(
                f"fault point {point!r}: p= must be within [0, 1]"
            )
        specs[point] = spec
    return specs


def _parse_int(point: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FaultConfigError(
            f"fault point {point!r}: {key}= expects an integer, "
            f"got {value!r}"
        ) from None


def _parse_float(point: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultConfigError(
            f"fault point {point!r}: {key}= expects a number, "
            f"got {value!r}"
        ) from None


@dataclass
class FaultRegistry:
    """Hit counting and trigger evaluation for armed fault points.

    One registry lives on each :class:`~repro.runtime.runtime.DycRuntime`
    (and one per pool-worker task attempt), so hit counts are scoped to a
    single run and results stay deterministic under ``--jobs N``.
    """

    specs: dict[str, FaultSpec] = field(default_factory=dict)
    hits: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    _rng: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_spec(cls, text: str | None) -> "FaultRegistry":
        return cls(specs=parse_spec(text))

    @property
    def active(self) -> bool:
        return bool(self.specs)

    def enabled(self, point: str) -> bool:
        """Is ``point`` armed at all?  (Cheap pre-check for hot paths.)"""
        return point in self.specs

    def param(self, point: str, name: str, default: float) -> float:
        spec = self.specs.get(point)
        if spec is None:
            return default
        return getattr(spec, name, default)

    def should_fire(self, point: str) -> bool:
        """Count a hit on ``point`` and decide whether the fault fires."""
        spec = self.specs.get(point)
        if spec is None:
            return False
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        if spec.mode == "always":
            fire = True
        elif spec.mode == "once":
            fire = count == 1
        elif spec.mode == "at":
            fire = count == spec.n
        elif spec.mode == "every":
            fire = count % spec.n == 0
        else:  # p
            fire = self._next_uniform(point, spec.seed) < spec.p
        if fire:
            self.fired[point] = self.fired.get(point, 0) + 1
        return fire

    def _next_uniform(self, point: str, seed: int) -> float:
        state = self._rng.get(point)
        if state is None:
            state = (_fnv(point) ^ (seed * 0x9E3779B97F4A7C15)) \
                & 0xFFFFFFFFFFFFFFFF or 1
        # xorshift64
        state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 7
        state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng[point] = state
        return (state >> 11) / float(1 << 53)

    def summary(self) -> dict[str, tuple[int, int]]:
        """point -> (hits, fires) for armed points, for reporting."""
        return {
            point: (self.hits.get(point, 0), self.fired.get(point, 0))
            for point in sorted(self.specs)
        }


# ----------------------------------------------------------------------
# Resolution helpers (config + settings)
# ----------------------------------------------------------------------

def combine_specs(*parts: str | None) -> str:
    """Join spec fragments; empty/None fragments drop out."""
    return ";".join(p for p in parts if p)


def resolve_fault_spec(config=None, settings=None) -> str:
    """Effective fault spec: ``OptConfig.faults`` plus ``Settings.faults``.

    The settings part comes second so it can override per-point
    triggers set in the config.
    """
    return combine_specs(getattr(config, "faults", ""),
                         getattr(settings, "faults", ""))


def resolve_degrade(config=None, settings=None) -> bool:
    """Is the graceful-degradation ladder active?

    On when ``OptConfig.degrade`` is set; otherwise ``Settings.degrade``
    decides when it is not ``None``; otherwise on exactly when a fault
    point is armed (injecting faults without the ladder would just
    crash, which defeats the exercise).
    """
    if getattr(config, "degrade", False):
        return True
    forced = getattr(settings, "degrade", None)
    if forced is not None:
        return forced
    return bool(resolve_fault_spec(config, settings))
