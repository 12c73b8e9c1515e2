"""The load generator: keep-alive HTTP/1.1 clients on one asyncio loop.

One process, one thread, at most ``nproc`` connections.  Two drivers:

* :func:`open_loop` — requests are *due* on a precomputed schedule
  (seeded Poisson arrivals).  Each connection takes the next due
  request as soon as it is free, so when every connection is busy the
  due requests pile up in a client-side backlog.  Latency is timed from
  the due time, so a stall is charged to every request it delays.
* :func:`closed_loop` — each connection sends its next request only
  after the previous reply (a batch caller waiting for its answer).

Every request carries a unique ``echo`` token; a reply whose echo does
not match counts as failed, as does an unexpected status or a timeout.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass, field


def nproc() -> int:
    """CPUs this process may run on (the connection/thread ceiling)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Sample:
    """One completed (or failed) request."""

    echo: str
    pair: str
    due: float          # perf_counter seconds the request was due
    sent: float         # when its bytes went out
    done: float         # when the full reply was read
    status: int         # HTTP status, 0 on a transport failure
    body: dict
    #: How late the generator sent it although a connection was free.
    late: float = 0.0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class LoadReport:
    #: perf_counter seconds the load started (the schedule's zero).
    origin: float
    samples: list[Sample] = field(default_factory=list)
    backlog_peak: int = 0


class Connection:
    """One keep-alive HTTP/1.1 connection (strict request/response)."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout
        self.reader = self.writer = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        """Send one request; ``(0, {...})`` on any transport failure."""
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        try:
            if self.writer is None:
                await self._open()
            self.writer.write(head + body)
            return await asyncio.wait_for(self._read(), self.timeout)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError) as exc:
            await self.close()
            return 0, {"error": {"code": "transport",
                                 "message": f"{type(exc).__name__}: {exc}"}}

    async def _read(self) -> tuple[int, dict]:
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep_alive = value.strip().lower() != "close"
        raw = await self.reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


def _check_connections(connections: int) -> None:
    if connections > nproc():
        raise ValueError(f"{connections} connections exceed "
                         f"nproc={nproc()}")


def _check_threads() -> None:
    threads = threading.active_count()
    if threads > nproc():
        raise RuntimeError(f"load generator runs {threads} threads "
                           f"(nproc={nproc()})")


async def open_loop(host: str, port: int, schedule: list[tuple],
                    connections: int, timeout: float) -> LoadReport:
    """Send ``schedule`` = [(due_offset_s, echo, pair, payload), ...],
    offsets counted from now."""
    _check_connections(connections)
    report = LoadReport(time.perf_counter())
    origin = report.origin
    queue = list(schedule)
    cursor = 0

    async def worker(conn: Connection) -> None:
        nonlocal cursor
        while cursor < len(queue):
            offset, echo, pair, payload = queue[cursor]
            cursor += 1
            free = time.perf_counter()
            due = origin + offset
            if due > free:
                await asyncio.sleep(due - free)
            sent = time.perf_counter()
            # Backlog: requests already due but not yet sent.
            backlog = 0
            for later in range(cursor, len(queue)):
                if origin + queue[later][0] > sent:
                    break
                backlog += 1
            report.backlog_peak = max(report.backlog_peak, backlog)
            status, body = await conn.request("POST", "/run", payload)
            report.samples.append(Sample(
                echo=echo, pair=pair, due=due, sent=sent,
                done=time.perf_counter(), status=status, body=body,
                late=max(0.0, sent - max(due, free))))

    conns = [Connection(host, port, timeout) for _ in range(connections)]
    try:
        await asyncio.gather(*(worker(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    _check_threads()
    return report


async def closed_loop(host: str, port: int, next_request,
                      connections: int, timeout: float,
                      seconds: float | None = None,
                      count: int | None = None) -> LoadReport:
    """Each connection loops ``next_request(i) -> (echo, pair, payload)``
    until ``seconds`` have passed or ``count`` requests were taken; the
    requests in flight then finish."""
    _check_connections(connections)
    report = LoadReport(time.perf_counter())
    deadline = report.origin + (seconds if seconds is not None
                                else float("inf"))
    taken = 0

    async def worker(index: int, conn: Connection) -> None:
        nonlocal taken
        while time.perf_counter() < deadline \
                and (count is None or taken < count):
            taken += 1
            echo, pair, payload = next_request(index)
            sent = time.perf_counter()
            status, body = await conn.request("POST", "/run", payload)
            report.samples.append(Sample(
                echo=echo, pair=pair, due=sent, sent=sent,
                done=time.perf_counter(), status=status, body=body))

    conns = [Connection(host, port, timeout) for _ in range(connections)]
    try:
        await asyncio.gather(*(worker(i, conn)
                               for i, conn in enumerate(conns)))
    finally:
        for conn in conns:
            await conn.close()
    _check_threads()
    return report
