"""The benchmark: drive the offline sweep or the serve daemon from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

``harness_sweep``
    One caller process runs ``run_workload`` over the whole grid
    (10 programs x 10 configs) in a seeded order, closed loop, and
    round again for the rest of the run; each pair counts at its mean.
``serve_zipf``
    ``python -m repro.serve`` with its defaults; an open loop of seeded
    Poisson arrivals at a ladder of fixed rates over keep-alive
    connections, zipf-popular keys, a fixed share of cold first touches.
``serve_churn``
    The daemon with a fresh persist store and a result cache smaller
    than the key universe; two closed-loop clients drawing uniform keys
    in whole epochs.

Every run's outcome is checked against the pinned oracle
(``oracle.json``).  Untraced (``--trace 0``) the run reports the
end-to-end metrics; traced (``--trace 1``) it installs the timing shims
and reports the per-layer metrics.  A human-readable table comes first;
the last line of stdout is one JSON object.  A result file per run is
kept under ``.perfbench_out/results`` for ``compare.py``.  Exit status
is 1 when any output disagreed with the oracle, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack

import client
import grid
import spans

HOST = "127.0.0.1"
OUT = os.path.join(grid.ROOT, ".perfbench_out")
#: Set-up is measured this many times per run, after one untimed spawn
#: that warms the page cache and the bytecode cache; the median is
#: reported.
SETUP_SPAWNS = 5
#: Longest a run may wait for one reply before counting it failed.
REQUEST_TIMEOUT = 60.0
#: A run gives up (exit 2, no result) this long after it started, so
#: it always ends within the 180 s a run is allowed.
RUN_DEADLINE = 170.0

#: serve_zipf: ladder of fixed rates (requests/s) and the share of the
#: run's seconds each rung lasts; the middle rung is the nominal rate.
#: At the benchmark's 55 s it gets 48 s: 602 requests.  The nominal rate
#: leaves the daemon headroom: while a cold miss holds the interpreter
#: lock a hit takes about 20 ms, so at 25/s the free connection would
#: saturate as soon as the host ran twice slower.
ZIPF_LADDER = ((6.25, 1 / 16), (12.5, 7 / 8), (25.0, 1 / 16))
ZIPF_NOMINAL = 1
#: Share of each rung's requests that are first touches of cold keys
#: (rounded to whole cycles of :data:`grid.COLD_ORDER` from one cycle up).
ZIPF_COLD_SHARE = 0.045
ZIPF_EXPONENT = 1.1
#: p99 limit a rung must meet for ``serve.max_rate_rps``.
ZIPF_LIMIT_MS = 1000.0
#: serve_churn: result-cache entries per shard (8 shards by default)
#: against a universe of 2 tenants x 10 pairs.
CHURN_CACHE_CAPACITY = 1
CHURN_TENANTS = 2
#: serve_churn sends one epoch (every key once) per this many of the
#: run's seconds, after one untimed epoch of first touches (reference
#: tier).  Whole epochs, counted rather than timed, keep the mix of heat
#: tiers (threaded, then pycodegen) the same in every run however fast
#: the host is.
CHURN_EPOCH_SECONDS = 3.0

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics measured outside the spans: name -> unit.
COUNTER_METRICS = {
    "serve.hit_ratio": "share",
    "serve.executions": "count",
    "serve.coalesced": "count",
    "serve.reference_tier_share": "share",
    "serve.peak_waiting": "count",
    "serve.rejected": "count",
    "serve.evictions": "count",
    "serve.max_rate_rps": "1/s",
    "persist.store_mb": "MB",
    "client.late_ms": "ms",
    "client.backlog_peak": "count",
}

PER_LAYER = dict(spans.SPAN_METRICS, **COUNTER_METRICS)


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def child_env() -> dict:
    """The environment of every process the benchmark starts: the
    repository's sources on the path, no ``REPRO_*`` knob inherited
    from the caller, and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = grid.SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A process in its own session; :meth:`stop` kills its group."""

    def __init__(self, argv: list[str], **popen):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=grid.ROOT,
                                     start_new_session=True, **popen)

    def stop(self, grace: float = 0.0) -> None:
        """SIGINT, up to ``grace`` seconds to exit, then SIGKILL the
        whole process group and reap the child."""
        if grace and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(10)


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One line of the child's stdout, or BenchError past ``deadline``."""
    remaining = deadline - time.perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
    if not ready:
        raise BenchError("child process timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"child process exited ({proc.poll()})")
    return line


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc status")


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far (Linux /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total / (1 << 20)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """The q-th percentile as ``statistics.quantiles`` computes it."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def latency_metrics(latencies_ms) -> tuple[dict, dict]:
    """p50/p90 and their sample counts."""
    values = list(latencies_ms)
    metrics = {f"p{q}_ms": percentile(values, q) for q in (50, 90)}
    counts = {f"p{q}_ms": len(values) for q in (50, 90)}
    return metrics, counts


class Tally:
    """Attempted/failed requests and why each failure happened."""

    def __init__(self, oracle: dict):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def check(self, pair: str, outcome: dict) -> bool:
        self.attempted += 1
        expected = self.oracle[pair]
        if outcome == expected:
            return True
        self.failed += 1
        reason = (f"status {outcome.get('status')}"
                  if outcome.get("status") != expected["status"]
                  else "fingerprint mismatch")
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return False

    def check_sample(self, sample: client.Sample) -> bool:
        if sample.body.get("echo") != sample.echo:
            self.attempted += 1
            self.failed += 1
            self.reasons["lost echo"] = self.reasons.get("lost echo", 0) + 1
            return False
        return self.check(sample.pair, grid.outcome_of(sample.status,
                                                       sample.body))


# ----------------------------------------------------------------------
# harness_sweep
# ----------------------------------------------------------------------

def spawn_worker(traced: bool, log) -> tuple[Child, float]:
    argv = [sys.executable, os.path.join(grid.HERE, "sweep_worker.py")]
    if traced:
        argv.append("--trace")
    worker = Child(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                   stderr=log, text=True)
    line = read_line(worker.proc, worker.started + 60)
    if line.strip() != "READY":
        raise BenchError(f"sweep worker said {line!r}")
    return worker, time.perf_counter() - worker.started


def harness_sweep(run: "Run") -> None:
    """Every pair runs at least once, most of them more often.  Each
    pair counts once, at its mean time in the run: the latencies and the
    throughput are those of one grid pass at the run's mean speed, so
    they do not depend on which pairs the seeded order repeated."""
    plan = list(grid.GRID)
    random.Random(run.seed).shuffle(plan)
    log = run.stack.enter_context(open(run.path("worker.log"), "w"))
    setups = []
    for index in range(1 if run.traced else SETUP_SPAWNS + 1):
        if index:
            worker.proc.stdin.close()
            worker.stop()
        worker, seconds = spawn_worker(run.traced, log)
        run.stack.callback(worker.stop)
        if index or run.traced:
            setups.append(seconds)
    # Traced, one pass only: its counts are then the same in every run.
    worker.proc.stdin.write(json.dumps({
        "plan": plan, "seconds": 0 if run.traced else run.seconds,
        "trace_out": run.trace_file("worker") if run.traced else None})
        + "\n")
    worker.proc.stdin.close()
    began = time.perf_counter()
    times: dict[str, list[float]] = {}
    while True:
        record = json.loads(read_line(worker.proc, run.deadline))
        if record.get("done"):
            break
        pair, ms = record["pair"], record["ms"]
        times.setdefault(pair, []).append(ms)
        run.samples.append((pair, ms, time.perf_counter() - began))
        run.tally.check(pair, record["outcome"])
    worker.proc.wait(10)
    if set(times) != set(grid.GRID):
        raise BenchError("sweep worker skipped pairs of the grid")
    mean = [statistics.fmean(values) for values in times.values()]
    metrics, counts = latency_metrics(mean)
    run.e2e.update(metrics, setup_s=statistics.median(setups),
                   runs_per_s=1e3 * len(mean) / sum(mean),
                   peak_rss_mb=record["peak_rss_kb"] / 1024)
    runs = len(run.samples)
    run.counts.update(counts, runs_per_s=runs)
    run.notes.append(f"{runs} runs in {record['wall_s']:.1f} s "
                     f"({runs / record['wall_s']:.3f}/s as run)")


# ----------------------------------------------------------------------
# The serve daemon
# ----------------------------------------------------------------------

class Daemon:
    """One ``repro.serve`` daemon on a fresh port (``--port 0``)."""

    def __init__(self, run: "Run", args: list[str], index: int):
        self.log_path = run.path(f"daemon{index}.log")
        argv = [sys.executable]
        if run.traced:
            argv += [os.path.join(grid.HERE, "serve_launcher.py"),
                     run.trace_file("daemon"), "--"]
        else:
            argv += ["-m", "repro.serve"]
        argv += ["--host", HOST, "--port", "0", *args]
        self.traced = run.traced
        with open(self.log_path, "w") as log:
            self.child = Child(argv, stdout=subprocess.DEVNULL, stderr=log)
        run.stack.callback(self.stop)
        self.port = self._wait_ready()
        self.setup_s = time.perf_counter() - self.child.started

    def _wait_ready(self, timeout: float = 60.0) -> int:
        """Poll the log for the bound port, then ``/healthz``."""
        deadline = self.child.started + timeout
        port = None
        while time.perf_counter() < deadline:
            if self.child.proc.poll() is not None:
                raise BenchError(f"daemon exited; see {self.log_path}")
            if port is None:
                with open(self.log_path) as log:
                    found = re.search(r"serving on http://[^:]+:(\d+)",
                                      log.read())
                port = int(found.group(1)) if found else None
            if port is not None and self.get("/healthz", port)[0] == 200:
                return port
            time.sleep(0.002)
        raise BenchError(f"daemon not ready in {timeout}s")

    def get(self, path: str, port: int | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(HOST, port or self.port,
                                          timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, ValueError):
            return 0, {}
        finally:
            conn.close()

    def stop(self) -> None:
        # A traced daemon writes its spans on the way out.
        self.child.stop(grace=15.0 if self.traced else 0.0)


def start_daemon(run: "Run", args: list[str]) -> Daemon:
    """Start the daemon once untimed, then SETUP_SPAWNS times (once in
    all, traced); keep the last."""
    setups = []
    for index in range(1 if run.traced else SETUP_SPAWNS + 1):
        if index:
            daemon.stop()
        daemon = Daemon(run, args, index)
        if index or run.traced:
            setups.append(daemon.setup_s)
    run.e2e["setup_s"] = statistics.median(setups)
    return daemon


def stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Per-layer counters from two ``/stats`` snapshots."""
    def get(snapshot, *path):
        for key in path:
            snapshot = (snapshot or {}).get(key) or {}
        return snapshot or 0

    def delta(*path):
        return get(after, *path) - get(before, *path)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    executions = delta("server", "executions")
    rejected = (delta("admission", "rejected_quota")
                + delta("admission", "rejected_backpressure")
                + delta("server", "error_codes", "circuit_open"))
    return {
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.executions": executions,
        "serve.coalesced": delta("server", "coalesced"),
        "serve.reference_tier_share": (
            delta("server", "tiers", "reference") / executions
            if executions else 0.0),
        "serve.peak_waiting": get(after, "admission", "peak_waiting"),
        "serve.rejected": rejected,
        "serve.evictions": delta("cache", "evictions"),
    }


def record_client_spans(run: "Run", samples) -> None:
    if not run.traced:
        return
    recorder = spans.Recorder()
    for sample in samples:
        recorder.add("client.request", sample.echo, int(sample.due * 1e9),
                     int(sample.done * 1e9),
                     {"sent_to_done_ns": int((sample.done - sample.sent)
                                             * 1e9)})
    recorder.dump(run.trace_file("client"))


def request(tenant: str, pair: str, echo: str) -> dict:
    program, overrides = grid.split(pair)
    return {"tenant": tenant, "workload": program, "config": overrides,
            "echo": echo}


def completing_pairs(program: str) -> list[str]:
    return [f"{program}/{config}" for config in grid.CONFIGS
            if f"{program}/{config}" not in grid.BUDGET_OVERRUNS]


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------

def zipf_schedule(seed: int, seconds: float):
    """The warm-up keys and the ladder's timed schedule for one seed.

    The hot set is one seeded config of every program for one tenant,
    in the paper's program order (rank 0 most popular); hot requests
    draw zipf over it.  A fixed share of each rung's requests are the
    first request of a new tenant, on the default config: a cold miss.
    Cold misses are evenly spaced (seeded jitter of +-10 % of their
    slot) and cycle through ``grid.COLD_ORDER`` in whole cycles, so the
    nominal rung misses each program equally often, the same in every
    run, and the costly ones never queue behind each other."""
    rng = random.Random(seed)
    hot = [(f"hot-{seed}", rng.choice(completing_pairs(program)))
           for program in grid.PROGRAMS]
    weights = [1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(hot))]
    schedule, rungs = [], []
    offset = 0.0
    for rung, (rate, share) in enumerate(ZIPF_LADDER):
        duration = seconds * share
        count = max(1, round(rate * duration))
        cold = max(1, round(count * ZIPF_COLD_SHARE))
        cycle = len(grid.COLD_ORDER)
        if cold >= cycle:
            cold = cycle * round(cold / cycle)
        cold_at = {int((k + 0.5 + rng.uniform(-0.1, 0.1)) * count / cold):
                   grid.COLD_ORDER[k % len(grid.COLD_ORDER)]
                   for k in range(cold)}
        start = offset
        gaps = [rng.expovariate(rate) for _ in range(count)]
        scale = duration / sum(gaps)
        for index in range(count):
            echo = f"z{seed}-{rung}-{index}"
            if index in cold_at:
                key = (f"new-{echo}", f"{cold_at[index]}/ALL_ON")
            else:
                key = rng.choices(hot, weights)[0]
            schedule.append((offset, echo, *key))
            offset += gaps[index] * scale
        rungs.append((rate, start, offset))
    return hot, schedule, rungs


def serve_zipf(run: "Run") -> None:
    hot, schedule, rungs = zipf_schedule(run.seed, run.seconds)
    daemon = start_daemon(run, [])
    warm = []
    for index, (tenant, pair) in enumerate(hot):
        echo = f"{spans.WARMUP_PREFIX}{run.seed}-{index}"
        warm.append((echo, pair, request(tenant, pair, echo)))
    warm_iter = iter(warm)
    samples = run.load(client.closed_loop(
        HOST, daemon.port, lambda _i: next(warm_iter), run.connections,
        REQUEST_TIMEOUT, count=len(warm))).samples
    for sample in samples:
        run.tally.check_sample(sample)
    before = daemon.get("/stats")[1] if run.traced else {}
    timed = [(offset, echo, pair, request(tenant, pair, echo))
             for offset, echo, tenant, pair in schedule]
    report = run.load(client.open_loop(
        HOST, daemon.port, timed, run.connections, REQUEST_TIMEOUT))
    for sample in report.samples:
        run.tally.check_sample(sample)
    run.e2e["peak_rss_mb"] = peak_rss_mb(daemon.child.proc.pid)
    after = daemon.get("/stats")[1] if run.traced else {}
    origin = report.origin
    per_rung = [[s for s in report.samples
                 if start <= s.due - origin < end] for _r, start, end in rungs]
    nominal = per_rung[ZIPF_NOMINAL]
    metrics, counts = latency_metrics(s.latency_ms for s in nominal)
    span = max(s.done for s in report.samples) - origin
    run.e2e.update(metrics, runs_per_s=len(report.samples) / span)
    run.counts.update(counts, runs_per_s=len(report.samples))
    max_rate = 0.0
    for (rate, _start, end), rung in zip(rungs, per_rung):
        p99 = percentile([s.latency_ms for s in rung], 99)
        spill = max(s.done for s in rung) - origin - end
        ok = all(run.tally.oracle[s.pair]["status"] == s.status
                 for s in rung)
        if ok and p99 <= ZIPF_LIMIT_MS and spill * 1e3 <= ZIPF_LIMIT_MS:
            max_rate = rate
        run.notes.append(f"rung {rate:g} rps: n={len(rung)} "
                         f"p99={p99:.1f} ms spill={spill * 1e3:.0f} ms")
    daemon.stop()
    run.layers.update(stats_delta(before, after))
    run.layers.update(client_health(run, report),
                      **{"serve.max_rate_rps": max_rate})
    record_client_spans(run, report.samples)


def client_health(run: "Run", report: client.LoadReport) -> dict:
    """Generator self-checks; a run whose generator fell behind its
    schedule is flagged (it measured the client, not the daemon)."""
    late = [s.late * 1e3 for s in report.samples]
    late_p99 = percentile(late, 99) if late else 0.0
    if late_p99 > 10.0:
        run.flags.append(f"generator fell behind: p99 late {late_p99:.1f} ms")
    return {"client.late_ms": late_p99,
            "client.backlog_peak": report.backlog_peak}


# ----------------------------------------------------------------------
# serve_churn
# ----------------------------------------------------------------------

def churn_keys(seed: int, warm_epochs: int = 0):
    """Endless uniform draws over 2 tenants x the 10 programs on the
    default config, without replacement within each epoch so every run
    sees the same mix of programs.  The first ``warm_epochs`` epochs
    carry warm-up echo tokens."""
    rng = random.Random(seed)
    tenants = [f"churn{i}-{seed}" for i in range(CHURN_TENANTS)]
    universe = [(tenant, f"{program}/ALL_ON")
                for program in grid.PROGRAMS for tenant in tenants]
    serial = 0
    while True:
        epoch = list(universe)
        rng.shuffle(epoch)
        warm = serial < warm_epochs * len(universe)
        for tenant, pair in epoch:
            echo = f"{spans.WARMUP_PREFIX if warm else ''}c{seed}-{serial}"
            serial += 1
            yield echo, pair, request(tenant, pair, echo)


def serve_churn(run: "Run") -> None:
    store = tempfile.mkdtemp(prefix="store-", dir=run.dir)
    args = ["--persist-dir", store,
            "--cache-capacity", str(CHURN_CACHE_CAPACITY)]
    daemon = start_daemon(run, args)
    keys = churn_keys(run.seed, warm_epochs=1)
    universe = CHURN_TENANTS * len(grid.PROGRAMS)
    # The untimed warm-up epoch makes every key's first touch, which
    # runs on the reference tier and lasts up to a second or two.
    warm = run.load(client.closed_loop(
        HOST, daemon.port, lambda _i: next(keys), run.connections,
        REQUEST_TIMEOUT, count=universe))
    for sample in warm.samples:
        run.tally.check_sample(sample)
    before = daemon.get("/stats")[1] if run.traced else {}
    epochs = max(1, round(run.seconds / CHURN_EPOCH_SECONDS))
    report = run.load(client.closed_loop(
        HOST, daemon.port, lambda _i: next(keys), run.connections,
        REQUEST_TIMEOUT, count=epochs * universe))
    for sample in report.samples:
        run.tally.check_sample(sample)
    run.e2e["peak_rss_mb"] = peak_rss_mb(daemon.child.proc.pid)
    after = daemon.get("/stats")[1] if run.traced else {}
    metrics, counts = latency_metrics(s.latency_ms for s in report.samples)
    run.samples += [(s.pair, s.latency_ms, s.done - report.origin)
                    for s in report.samples]
    span = max(s.done for s in report.samples) - report.origin
    run.e2e.update(metrics, runs_per_s=len(report.samples) / span)
    run.counts.update(counts, runs_per_s=len(report.samples))
    daemon.stop()
    run.layers.update(stats_delta(before, after))
    run.layers.update(client_health(run, report),
                      **{"persist.store_mb": dir_mb(store)})
    record_client_spans(run, report.samples)


WORKLOADS = {
    "harness_sweep": harness_sweep,
    "serve_zipf": serve_zipf,
    "serve_churn": serve_churn,
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

class Run:
    """State of one benchmark run; its scratch directory is removed at
    the end, its traces and result file are kept."""

    def __init__(self, args: argparse.Namespace, stack: ExitStack):
        self.deadline = time.perf_counter() + RUN_DEADLINE
        self.steal = steal_ticks()
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.traced = args.seconds, bool(args.trace)
        self.stack = stack
        os.makedirs(OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT)
        stack.callback(shutil.rmtree, self.dir, True)
        self.tag = (f"{self.workload}-seed{self.seed}-trace{int(self.traced)}"
                    f"-{os.getpid()}")
        self.connections = min(2, client.nproc())
        self.tally = Tally(grid.load_oracle())
        self.e2e: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []
        self.flags: list[str] = []
        #: (pair, ms, seconds into the run) of each timed sweep run or
        #: churn request, kept in the result file to study the spread.
        self.samples: list[tuple[str, float, float]] = []
        self.traces: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def load(self, driver) -> client.LoadReport:
        """Run a load-generator coroutine within the run's deadline."""
        remaining = self.deadline - time.perf_counter()
        try:
            return asyncio.run(asyncio.wait_for(driver, remaining))
        except asyncio.TimeoutError:
            raise BenchError("load generator passed the run deadline") \
                from None

    def trace_file(self, role: str) -> str:
        path = os.path.join(OUT, "traces", f"{self.tag}-{role}.jsonl")
        self.traces.append(path)
        return path

    def per_layer(self) -> dict[str, float]:
        layers = {name: 0.0 for name in PER_LAYER}
        found = [path for path in self.traces if os.path.exists(path)]
        if found:
            layers.update(spans.span_metrics(spans.load(found)))
        layers.update(self.layers)
        return layers


def overhead_note(run: Run) -> str:
    """Tracing overhead: this traced run against the latest untraced run
    of the same workload and seed (make that one just before, since the
    host's speed drifts)."""
    folder = os.path.join(OUT, "results")
    prefix = f"{run.workload}-seed{run.seed}-trace0-"
    paths = [os.path.join(folder, name)
             for name in (os.listdir(folder) if os.path.isdir(folder)
                          else ()) if name.startswith(prefix)]
    if not paths:
        return ("tracing overhead: run this seed untraced first to "
                "compare")
    with open(max(paths, key=os.path.getmtime)) as handle:
        untraced = json.load(handle)["e2e"]
    parts = [f"{name} {100 * (run.e2e[name] / untraced[name] - 1):+.1f}%"
             for name in ("runs_per_s", "p50_ms", "p90_ms")]
    return "tracing overhead (traced vs untraced, same seed): " + \
        ", ".join(parts)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(grid.SRC, "repro")):
        print(f"error: no repro sources under {grid.SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the ExitStack, which kills every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with ExitStack() as stack:
        run = Run(args, stack)
        try:
            WORKLOADS[args.workload](run)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    return report(run)


def report(run: Run) -> int:
    correct = run.tally.failed == 0
    lines = [f"workload {run.workload} seed {run.seed} "
             f"({'traced' if run.traced else 'untraced'})"]
    units = PER_LAYER if run.traced else END_TO_END
    values = run.per_layer() if run.traced else run.e2e
    for name, unit in units.items():
        count = run.counts.get(name)
        suffix = f"  (n={count})" if count else ""
        lines.append(f"  {name:34s} {values[name]:14.4f} {unit}{suffix}")
    share = run.tally.failed / max(1, run.tally.attempted)
    lines.append(f"  {'failed_share':34s} {share:14.4f} share  "
                 f"({run.tally.failed} of {run.tally.attempted})"
                 + "".join(f"  {n} x {why}"
                           for why, n in run.tally.reasons.items()))
    steal, total = (now - then for now, then in zip(steal_ticks(),
                                                     run.steal))
    if total and steal / total > 0.02:
        run.flags.append(f"host stole {100 * steal / total:.0f}% of CPU "
                         "time during the run; its timings are suspect")
    lines += [f"  {note}" for note in run.notes]
    lines += [f"  FLAG: {flag}" for flag in run.flags]
    if run.traced:
        lines.append("  " + overhead_note(run))
        lines.append("  traces: " + " ".join(
            os.path.relpath(path, grid.ROOT) for path in run.traces))
    if not correct:
        lines.append("  FAILED: outputs disagree with the oracle")
    print("\n".join(lines))
    result = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "traced": run.traced, "correct": correct,
        "attempted": run.tally.attempted, "failed": run.tally.failed,
        "e2e": run.e2e, "counts": run.counts, "flags": run.flags,
        "per_layer": values if run.traced else {},
        "samples": run.samples,
    }
    folder = os.path.join(OUT, "results")
    os.makedirs(folder, exist_ok=True)
    with open(os.path.join(folder, f"{run.tag}.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
