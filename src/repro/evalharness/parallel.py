"""Process-pool fan-out of workload runs (``--jobs N``).

Each run of one (workload, config) pair is an independent, deterministic
computation, so the harness can farm runs out to worker processes.  The
workers are plain top-level functions taking picklable task tuples —
workloads travel by *name* (rehydrated from ``WORKLOADS_BY_NAME`` in the
worker) and results travel back with the workload field replaced by its
name, because :class:`~repro.workloads.base.Workload` carries setup and
checksum callables that may not pickle.

``jobs <= 1`` runs every task serially in-process through the exact same
worker functions, so the two paths cannot drift apart behaviourally.
Workers share the memo cache directory (if any); its atomic writes make
that safe without locking.  Every task tuple carries the caller's
resolved :class:`~repro.settings.Settings`, so workers never consult
their environment.

The pool is *supervised*: a worker that raises, dies (``worker.crash``),
or stops making progress (``worker.hang`` + ``Settings.task_timeout``) does
not take the sweep down with it.  Failed tasks are retried once in a
fresh pool round, then once more inline in the parent process; tasks
that still fail are collected as :class:`TaskFailure` records and
reported together in a :class:`~repro.errors.HarnessError` *after* the
rest of the sweep has completed (and its memo entries persisted).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

from repro.config import ALL_ON, OptConfig
from repro.errors import HarnessError, SpecializationError, WorkerFault
from repro.evalharness.memo import Memoizer
from repro.evalharness.runner import RunResult, run_workload
from repro.faults import FaultRegistry
from repro.settings import Settings
from repro.workloads import WORKLOADS_BY_NAME


@dataclasses.dataclass
class TaskFailure:
    """One task that failed every rung of the retry ladder."""
    index: int
    error_type: str
    error: str
    attempts: int


# ----------------------------------------------------------------------
# Result transport
# ----------------------------------------------------------------------

def _pack(result: RunResult) -> dict:
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
    }
    fields["workload"] = result.workload.name
    return fields


def _unpack(fields: dict) -> RunResult:
    workload = WORKLOADS_BY_NAME[fields["workload"]]
    return RunResult(**{**fields, "workload": workload})


# ----------------------------------------------------------------------
# Worker functions (must be top-level for pickling)
# ----------------------------------------------------------------------

def _worker_faults(settings: Settings, attempt: int) -> None:
    """Fire injected worker faults, on the first pool attempt only.

    ``attempt`` is 0 for the initial pool round, positive for retries,
    and negative for the serial path (where a crash or hang would take
    down the harness itself rather than a supervised worker — worker
    faults only make sense under the pool).  Firing only at attempt 0
    keeps the retry ladder deterministic: the re-dispatched task runs
    clean.
    """
    if attempt != 0 or not settings.faults:
        return
    registry = FaultRegistry.from_spec(settings.faults)
    if registry.enabled("worker.hang") \
            and registry.should_fire("worker.hang"):
        time.sleep(registry.param("worker.hang", "secs", 30.0))
    if registry.enabled("worker.crash") \
            and registry.should_fire("worker.crash"):
        os._exit(86)
    if registry.enabled("worker.error") \
            and registry.should_fire("worker.error"):
        raise WorkerFault("injected worker fault (worker.error)")


def _run_config_task(task) -> dict:
    """Worker: run one workload under one configuration."""
    name, config, settings, memo_dir, attempt = task
    _worker_faults(settings, attempt)
    workload = WORKLOADS_BY_NAME[name]
    memo = Memoizer(memo_dir) if memo_dir is not None else None
    return _pack(run_workload(workload, config, memo=memo,
                              settings=settings))


def _run_ablation_task(task) -> tuple[dict, bool]:
    """Worker: run one single-ablation configuration for Table 5.

    Mirrors the fallback in :func:`repro.evalharness.tables.build_table5`:
    if the ablation alone makes specialization diverge, additionally
    disable complete loop unrolling and star the result.
    """
    name, ablation, settings, memo_dir, attempt = task
    _worker_faults(settings, attempt)
    workload = WORKLOADS_BY_NAME[name]
    memo = Memoizer(memo_dir) if memo_dir is not None else None
    try:
        result = run_workload(workload, ALL_ON.without(ablation),
                              memo=memo, settings=settings)
        starred = False
    except SpecializationError:
        result = run_workload(
            workload, ALL_ON.without(ablation, "complete_loop_unrolling"),
            memo=memo, settings=settings,
        )
        starred = True
    return _pack(result), starred


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------

def _pool_round(worker, payloads, pending, jobs: int, attempt: int,
                timeout: float, finish, failures: dict) -> list[int]:
    """Run one supervised pool round over ``pending`` task indices.

    Returns the indices that must be retried.  A broken pool (a worker
    hard-crashed) or a no-progress timeout abandons the round: completed
    futures are harvested, everything else is queued for retry, and the
    pool is discarded without waiting on possibly-hung workers.
    """
    workers = min(jobs, len(pending))
    pool = ProcessPoolExecutor(max_workers=workers)
    futures = {
        pool.submit(worker, (*payloads[index], attempt)): index
        for index in pending
    }
    remaining = set(futures)
    retry: list[int] = []
    abandoned = False

    def record(index: int, error_type: str, message: str) -> None:
        failures[index] = TaskFailure(index, error_type, message,
                                      attempt + 1)
        retry.append(index)

    try:
        while remaining:
            done, _ = wait(remaining, timeout=timeout or None,
                           return_when=FIRST_COMPLETED)
            if not done:
                abandoned = True
                for future in remaining:
                    record(futures[future], "TimeoutError",
                           f"worker made no progress within {timeout:g}s")
                break
            for future in done:
                remaining.discard(future)
                index = futures[future]
                try:
                    finish(index, future.result())
                except BrokenProcessPool as err:
                    abandoned = True
                    record(index, type(err).__name__,
                           str(err) or "worker process died")
                except Exception as err:  # noqa: BLE001
                    record(index, type(err).__name__, str(err))
            if abandoned:
                # The pool is unusable; harvest whatever already
                # finished and queue the rest for the next round.
                for future in remaining:
                    index = futures[future]
                    try:
                        if future.done():
                            finish(index, future.result())
                            continue
                    except Exception as err:  # noqa: BLE001
                        record(index, type(err).__name__,
                               str(err) or "worker process died")
                        continue
                    record(index, "BrokenProcessPool",
                           "pool died before the task ran")
                break
    finally:
        # After a hang/crash do not wait on the corpse; cancel anything
        # not yet started.  Injected hangs are bounded sleeps, so
        # orphaned workers drain themselves.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
    return retry


def _map_tasks(worker, payloads, settings: Settings,
               on_done=None) -> list:
    """Run ``worker`` over ``payloads``, preserving input order.

    Supervision ladder per task: pool attempt 0 (worker faults armed) →
    pool attempt 1 in a fresh pool → inline attempt 2 in the parent.
    Raises :class:`HarnessError` listing every task that exhausted the
    ladder — only after all other tasks have completed.
    """
    jobs = settings.jobs or os.cpu_count() or 1
    results: list = [None] * len(payloads)
    failures: dict[int, TaskFailure] = {}

    def finish(index: int, value) -> None:
        results[index] = value
        failures.pop(index, None)
        if on_done is not None:
            on_done(index)

    if jobs <= 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            try:
                finish(index, worker((*payload, -1)))
            except Exception as err:  # noqa: BLE001
                failures[index] = TaskFailure(index, type(err).__name__,
                                              str(err), 1)
    else:
        timeout = settings.task_timeout
        pending = list(range(len(payloads)))
        for attempt in range(2):
            if not pending:
                break
            pending = _pool_round(worker, payloads, pending, jobs,
                                  attempt, timeout, finish, failures)
        for index in pending:
            # Last rung: run inline, where nothing can crash the pool.
            try:
                finish(index, worker((*payloads[index], 2)))
            except Exception as err:  # noqa: BLE001
                prior = failures.get(index)
                attempts = (prior.attempts if prior else 2) + 1
                failures[index] = TaskFailure(index, type(err).__name__,
                                              str(err), attempts)
    if failures:
        raise HarnessError(sorted(failures.values(),
                                  key=lambda f: f.index))
    return results


def _settings(settings: Settings | None, jobs: int | None) -> Settings:
    return (settings or Settings.from_env()).override(jobs=jobs)


def run_configs(tasks: list[tuple[str, OptConfig]],
                jobs: int | None = None,
                memo: Memoizer | None = None,
                progress=None,
                settings: Settings | None = None) -> list[RunResult]:
    """Run (workload name, config) tasks, possibly in parallel.

    ``jobs`` overrides ``settings.jobs``; ``settings`` is resolved from
    the environment when not given.
    """
    settings = _settings(settings, jobs)
    memo_dir = memo.directory if memo is not None else None
    payloads = [(name, config, settings, memo_dir)
                for name, config in tasks]
    on_done = None
    if progress is not None:
        on_done = lambda index: progress(*tasks[index])  # noqa: E731
    packed = _map_tasks(_run_config_task, payloads, settings, on_done)
    return [_unpack(fields) for fields in packed]


def run_ablations(tasks: list[tuple[str, str]],
                  jobs: int | None = None,
                  memo: Memoizer | None = None,
                  progress=None,
                  settings: Settings | None = None
                  ) -> list[tuple[RunResult, bool]]:
    """Run (workload name, ablation) tasks for Table 5.

    Returns ``(result, starred)`` per task, aligned with the input.
    """
    settings = _settings(settings, jobs)
    memo_dir = memo.directory if memo is not None else None
    payloads = [(name, ablation, settings, memo_dir)
                for name, ablation in tasks]
    on_done = None
    if progress is not None:
        on_done = lambda index: progress(*tasks[index])  # noqa: E731
    packed = _map_tasks(_run_ablation_task, payloads, settings, on_done)
    return [(_unpack(fields), starred) for fields, starred in packed]
