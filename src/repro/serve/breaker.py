"""Per-(tenant, workload) circuit breakers for the serve request path.

A breaker protects the daemon from burning worker slots on a
(tenant, workload) pair that keeps failing with infrastructure errors:
after ``threshold`` *consecutive* failure signals the breaker **opens**
and the pair draws immediate 503s (code ``circuit_open``, with a
``retry_after`` hint mirrored into the ``Retry-After`` header) without
touching admission or the executor.  After ``cooldown`` seconds the
breaker goes **half-open**: exactly one probe request is admitted while
everyone else keeps getting 503s; a successful probe closes the
breaker, a failed one re-opens it for another cooldown.

What counts as a failure signal is deliberately narrow — 5xx statuses
(injected admission faults, machine/verification failures, harness
errors) and ``None`` (the request died without producing a status, e.g.
an exception escaping the flight path).  Deterministic 422s are the
*run's* outcome, not the daemon's, and 429/503 shed load by design;
both settle as **neutral**: they release a held probe without moving
the state machine, so load shedding can never trip or heal a breaker.

Clean traffic therefore never observes a breaker at all — the chaos
harness leans on that to keep served fingerprints byte-identical to the
offline oracle while breakers trip around the faulted legs.

State machine::

    closed --(threshold consecutive failures)--> open
    open --(cooldown elapses; next acquire)--> half_open (one probe)
    half_open --(probe succeeds)--> closed
    half_open --(probe fails)--> open (fresh cooldown)

Everything runs on the event-loop thread (the app settles outcomes
before handing control back), so plain counters suffice — no locks.
"""

from __future__ import annotations

import time

#: Seconds an open breaker waits before admitting a half-open probe.
BREAKER_COOLDOWN = 1.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Statuses that settle as breaker failures.  ``None`` (no status
#: produced) is also a failure; see :meth:`CircuitBreaker.settle`.
FAILURE_STATUSES = (500, 502)
#: Statuses that settle as successes (the backend did its job).
SUCCESS_STATUSES = (200, 422)


class CircuitBreaker:
    """One breaker; see the module docstring for the state machine."""

    __slots__ = ("threshold", "cooldown", "state", "failures",
                 "opened_at", "probing", "trips")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.failures = 0          # consecutive failure signals
        self.opened_at = 0.0
        self.probing = False       # a half-open probe is in flight
        self.trips = 0

    def acquire(self, now: float) -> float | None:
        """Try to admit a request.

        Returns ``None`` when admitted (closed, or taking the half-open
        probe slot) or the remaining ``retry_after`` seconds when the
        request must be rejected with a 503.
        """
        if self.state == CLOSED:
            return None
        if self.state == OPEN:
            remaining = self.cooldown - (now - self.opened_at)
            if remaining > 0:
                return max(0.001, remaining)
            self.state = HALF_OPEN
            self.probing = False
        # half-open: one probe at a time.
        if self.probing:
            return max(0.001, self.cooldown)
        self.probing = True
        return None

    def settle(self, status: int | None, now: float) -> None:
        """Feed one admitted request's final status back."""
        probe = self.probing and self.state == HALF_OPEN
        if probe:
            self.probing = False
        if status in SUCCESS_STATUSES:
            self.failures = 0
            if probe:
                self.state = CLOSED
            return
        if status is None or status in FAILURE_STATUSES:
            if probe:
                # The probe failed: straight back to open.
                self.state = OPEN
                self.opened_at = now
                self.trips += 1
                return
            self.failures += 1
            if self.state == CLOSED and self.failures >= self.threshold:
                self.state = OPEN
                self.opened_at = now
                self.trips += 1
            return
        # 429/503 and anything else: neutral — no state movement.


class BreakerBoard:
    """All breakers for one daemon, keyed ``(tenant, workload)``.

    ``threshold=0`` (``Settings.breaker_threshold`` explicitly zeroed)
    disables the board: :meth:`acquire` always admits and :meth:`settle`
    is a no-op, so the request path has no breaker overhead at all.
    """

    def __init__(self, threshold: int, cooldown: float = BREAKER_COOLDOWN,
                 *, clock=time.monotonic):
        self.threshold = threshold
        self.cooldown = cooldown
        self.enabled = self.threshold > 0
        self._clock = clock
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self.rejected = 0

    def _get(self, tenant: str, workload: str) -> CircuitBreaker:
        key = (tenant, workload)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.threshold, self.cooldown)
            self._breakers[key] = breaker
        return breaker

    def acquire(self, tenant: str, workload: str) -> float | None:
        """``None`` = admitted; a float = rejected, retry after that."""
        if not self.enabled:
            return None
        wait = self._get(tenant, workload).acquire(self._clock())
        if wait is not None:
            self.rejected += 1
        return wait

    def settle(self, tenant: str, workload: str,
               status: int | None) -> None:
        if not self.enabled:
            return
        breaker = self._breakers.get((tenant, workload))
        if breaker is not None:
            breaker.settle(status, self._clock())

    def state_of(self, tenant: str, workload: str) -> str:
        breaker = self._breakers.get((tenant, workload))
        return breaker.state if breaker is not None else CLOSED

    def stats(self) -> dict:
        states = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        open_now = []
        trips = 0
        for (tenant, workload), breaker in self._breakers.items():
            states[breaker.state] += 1
            trips += breaker.trips
            if breaker.state != CLOSED:
                open_now.append(f"{tenant}/{workload}")
        return {
            "enabled": self.enabled,
            "threshold": self.threshold,
            "cooldown_seconds": self.cooldown,
            "tracked": len(self._breakers),
            "states": states,
            "trips": trips,
            "rejected": self.rejected,
            "open_now": sorted(open_now),
        }
