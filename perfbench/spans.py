"""Span tracing for the benchmark's traced runs, and the trace reader.

Recording
---------
:func:`install` wraps the public calls into each layer with timing
shims, patched where the caller looks the name up (so
``repro.evalharness.runner.compile_source``, not
``repro.frontend.compile_source``).  A span is one tuple::

    (name, id, sid, parent, start_ns, end_ns, attrs)

``id`` is the request's identifier (the run index in the sweep, the
``echo`` token in the daemon), ``sid`` the span's own number and
``parent`` the ``sid`` of the span that caused it.  Spans stay in memory
and :meth:`Recorder.dump` writes them as JSON lines when the run ends.

Nothing under ``src/`` is modified: the shims live here and are only
installed by the benchmark's own sweep worker and daemon launcher.

Reading
-------
``python3 perfbench/spans.py TRACE.jsonl [...]`` derives each span's
self time (its duration minus the part of it its children cover) and
prints the per-layer metrics by name with units.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

_now = time.perf_counter_ns

#: ``(rid, sid)`` of the coroutine span the current task is inside.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    """In-memory span store shared by every shim in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Open ``handle`` span per request id, so a run executed on a
        #: worker thread can name its cross-thread parent.
        self.open_by_id: dict[str, int] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.root = None
        return local

    def enclosing(self, local) -> tuple:
        """``(rid, parent sid)`` for a span starting now on this thread."""
        if local.stack:
            return local.stack[-1]
        return _current.get() or (local.rid, local.root)

    def bind(self, rid, root: int | None = None) -> None:
        """Tag this thread's next spans with request ``rid``."""
        local = self._state()
        local.rid = rid
        local.root = root

    def wrap(self, name: str, fn, before=None, after=None):
        """A shim timing ``fn`` as span ``name``.

        ``before(args)`` captures state; ``after(args, state, result,
        exc)`` returns the span's attrs (or None)."""
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            local = recorder._state()
            stack = local.stack
            sid = next(recorder._ids)
            rid, parent = recorder.enclosing(local)
            state = before(args) if before else None
            stack.append((rid, sid))
            result = exc = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _now()
                stack.pop()
                attrs = after(args, state, result, exc) if after else None
                recorder.spans.append(
                    (name, rid, sid, parent, start, end, attrs))

        return shim

    def wrap_async(self, name: str, fn, rid_of, after=None):
        """A shim for a coroutine method; ``rid_of(args)`` names the
        request (the span also becomes the thread root for it)."""
        recorder = self

        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            rid = rid_of(args)
            sid = next(recorder._ids)
            if rid is not None:
                recorder.open_by_id[rid] = sid
            token = _current.set((rid, sid))
            start = _now()
            result = exc = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = _now()
                _current.reset(token)
                if rid is not None:
                    recorder.open_by_id.pop(rid, None)
                attrs = after(args, None, result, exc) if after else None
                recorder.spans.append(
                    (name, rid, sid, None, start, end, attrs))

        return shim

    def add(self, name: str, rid, start: int, end: int,
            attrs: dict | None = None) -> None:
        """Record a span measured outside any shim (the client's)."""
        self.spans.append((name, rid, next(self._ids), None, start, end,
                           attrs))

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


# ----------------------------------------------------------------------
# Shim installation
# ----------------------------------------------------------------------

def _error_code(exc) -> str:
    return getattr(exc, "code", None) or type(exc).__name__


def _contexts(specializer) -> int:
    return sum(stats.contexts_specialized
               for stats in specializer.runtime.stats.regions.values())


def _machine_state(args):
    stats = args[0].stats
    return (stats.instructions,
            stats.degraded_translations + stats.degraded_compilations)


def _machine_attrs(args, state, result, exc):
    machine = args[0]
    stats = machine.stats
    return {"kind": "static" if machine.runtime is None else "dynamic",
            "instructions": stats.instructions - state[0],
            "degraded": (stats.degraded_translations
                         + stats.degraded_compilations - state[1])}


def _run_attrs(args, state, result, exc):
    attrs = {"program": args[0].name}
    if exc is not None:
        attrs["status"] = _error_code(exc)
        return attrs
    attrs["status"] = "ok"
    attrs["dc_cycles"] = result.dc_cycles
    attrs["generated"] = sum(stats.instructions_generated
                             for stats in result.region_stats.values())
    return attrs


def _wrap_translation(recorder: Recorder, cls) -> None:
    """Time only calls that built a translation, not cache lookups.

    ``translation`` runs on every call into a function; a span per call
    would swamp the trace, so the shim compares the returned object
    with the last one it saw for that function on that backend."""
    original = cls.translation

    @functools.wraps(original)
    def shim(self, fn, *args, **kwargs):
        start = _now()
        result = original(self, fn, *args, **kwargs)
        seen = self.__dict__.setdefault("_perfbench_seen", {})
        if seen.get(id(fn)) is not result:
            seen[id(fn)] = result
            rid, parent = recorder.enclosing(recorder._state())
            recorder.spans.append(("machine.translation", rid,
                                   next(recorder._ids), parent, start,
                                   _now(), None))
        return result

    cls.translation = shim


def _wrap_setup(recorder: Recorder, workload) -> None:
    """``Workload.setup`` is a frozen dataclass field: rebind it, and
    time the input's ``checksum`` (the harness's verification)."""
    original = workload.setup

    def setup_and_wrap(memory):
        inp = original(memory)
        if inp.checksum is not None:
            inp.checksum = recorder.wrap("evalharness.verify",
                                         inp.checksum)
        return inp

    object.__setattr__(workload, "setup",
                       recorder.wrap("workloads.setup", setup_and_wrap))


def install(recorder: Recorder, serve: bool = False) -> None:
    """Install every shim (idempotence is the caller's business)."""
    from repro.evalharness import runner
    from repro.machine.interp import Machine
    from repro.machine.pycodegen import PyCodegenBackend
    from repro.machine.threaded import ThreadedBackend
    from repro.runtime.persist import PersistStore
    from repro.runtime.specializer import Specializer
    from repro.workloads import WORKLOADS_BY_NAME

    wrap = recorder.wrap
    runner.compile_source = wrap("frontend.compile_source",
                                 runner.compile_source)
    runner.compile_static = wrap("dyc.compile_static",
                                 runner.compile_static)
    runner.compile_annotated = wrap("dyc.compile_annotated",
                                    runner.compile_annotated)
    runner.run_workload = wrap("evalharness.run_workload",
                               runner.run_workload, after=_run_attrs)
    for workload in WORKLOADS_BY_NAME.values():
        _wrap_setup(recorder, workload)
    Machine.run = wrap("machine.run", Machine.run,
                       before=_machine_state, after=_machine_attrs)
    _wrap_translation(recorder, ThreadedBackend)
    _wrap_translation(recorder, PyCodegenBackend)

    def spec_before(args):
        return _contexts(args[0])

    def spec_after(args, state, result, exc):
        return {"contexts": _contexts(args[0]) - state}

    for method in ("specialize_entry", "specialize_continuation"):
        setattr(Specializer, method,
                wrap("runtime.specialize", getattr(Specializer, method),
                     before=spec_before, after=spec_after))

    def get_after(args, state, result, exc):
        return {"hit": result is not None}

    def put_after(args, state, result, exc):
        attrs = {"ok": bool(result)}
        if result:
            store, kind, digest_ = args[0], args[1], args[2]
            try:
                attrs["bytes"] = os.path.getsize(store._path(kind,
                                                             digest_))
            except OSError:
                pass
        return attrs

    PersistStore.get = wrap("persist.get", PersistStore.get,
                            after=get_after)
    PersistStore.put = wrap("persist.put", PersistStore.put,
                            after=put_after)
    if serve:
        _install_serve(recorder)


def _install_serve(recorder: Recorder) -> None:
    from repro.serve import app

    app.run_workload = recorder.wrap("evalharness.run_workload",
                                     app.run_workload, after=_run_attrs)

    def rid_of(args):
        path, body = args[2], args[3]
        if path != "/run":
            return None
        try:
            return json.loads(body).get("echo")
        except (ValueError, AttributeError):
            return None

    def handle_after(args, state, result, exc):
        if result is None:
            return None
        status, payload = result
        return {"status": status,
                "cached": bool(payload.get("cached")),
                "coalesced": bool(payload.get("coalesced"))}

    original_handle = app.ServeApp.handle
    app.ServeApp.handle = recorder.wrap_async(
        "serve.handle", original_handle, rid_of, after=handle_after)

    # The run executes on an executor thread, which asyncio does not
    # give the request's context: carry the echo across explicitly.
    original_execute = app.ServeApp._execute

    @functools.wraps(original_execute)
    def execute(self, request, *args, **kwargs):
        recorder.bind(request.echo, recorder.open_by_id.get(request.echo))
        try:
            return original_execute(self, request, *args, **kwargs)
        finally:
            recorder.bind(None)

    app.ServeApp._execute = execute


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

#: Per-layer metrics derived from spans: name -> unit.
SPAN_METRICS = {
    "frontend.parse_ms": "ms",
    "dyc.static_compile_ms": "ms",
    "dyc.genext_build_ms": "ms",
    "workloads.input_setup_ms": "ms",
    "machine.static_run_ms": "ms",
    "machine.dynamic_run_ms": "ms",
    "machine.translate_ms": "ms",
    "machine.translations": "count",
    "machine.minstr_per_s": "Minstr/s",
    "machine.instructions": "count",
    "machine.degraded": "count",
    "runtime.specialize_ms": "ms",
    "runtime.specialize_share": "share",
    "runtime.contexts_specialized": "count",
    "runtime.wasted_contexts_share": "share",
    "runtime.instructions_generated": "count",
    "runtime.dc_cycles": "cycles",
    "evalharness.run_ms": "ms",
    "evalharness.run_self_ms": "ms",
    "evalharness.verify_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.handle_ms": "ms",
    "serve.hit_ms": "ms",
    "serve.http_ms": "ms",
    "serve.wait_ms": "ms",
    "persist.get_ms": "ms",
    "persist.put_ms": "ms",
    "persist.hit_ratio": "share",
    "persist.writes": "count",
    "persist.bytes_written": "bytes",
}


#: Request ids of untimed warm-up requests; their spans are ignored.
WARMUP_PREFIX = "warm-"


def load(paths) -> list[tuple]:
    """Spans of several traces (one per process), with span numbers
    made unique across files."""
    spans = []
    for index, path in enumerate(paths):
        base = index << 40
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                name, rid, sid, parent, start, end, attrs = json.loads(line)
                spans.append((name, rid, base + sid,
                              None if parent is None else base + parent,
                              start, end, attrs))
    return spans


def self_times(spans) -> dict[int, int]:
    """sid -> self time in ns: duration minus the union of children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, _rid, _sid, parent, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for _name, _rid, sid, _parent, start, end, _attrs in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def span_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of :data:`SPAN_METRICS` from one trace.

    ``_ms`` values are medians over runs (or requests) of the summed
    self time of that layer's spans in the run; counts of the paper's
    model (instructions, generated instructions, DC cycles) are medians
    per completed run; other counts are totals over the trace."""
    spans = [span for span in spans
             if not str(span[1]).startswith(WARMUP_PREFIX)]
    own = self_times(spans)
    runs: dict = {}           # rid -> run_workload span
    per_run: dict = {}        # (rid, key) -> summed value
    totals: dict = {}

    def bump(table, key, value):
        table[key] = table.get(key, 0) + value

    persist_get, persist_put = [], []
    handles = []
    for span in spans:
        name, rid, sid, _parent, start, end, attrs = span
        attrs = attrs or {}
        self_ns = own[sid]
        if name == "evalharness.run_workload":
            runs[rid] = span
            continue
        if name == "machine.run":
            kind = attrs.get("kind")
            bump(per_run, (rid, f"machine.{kind}_run"), self_ns)
            bump(per_run, (rid, "machine.instructions"),
                 attrs.get("instructions", 0))
            bump(totals, "instructions", attrs.get("instructions", 0))
            bump(totals, "machine_ns", self_ns)
            bump(totals, "machine.degraded", attrs.get("degraded", 0))
        elif name == "runtime.specialize":
            bump(per_run, (rid, name), self_ns)
            bump(per_run, (rid, "contexts"), attrs.get("contexts", 0))
            bump(totals, "specialize_ns", self_ns)
        elif name == "machine.translation":
            bump(per_run, (rid, name), self_ns)
            bump(per_run, (rid, "translations"), 1)
        elif name == "persist.get":
            persist_get.append((end - start, attrs.get("hit", False)))
        elif name == "persist.put":
            persist_put.append(end - start)
            if attrs.get("ok"):
                bump(totals, "persist.writes", 1)
                bump(totals, "persist.bytes_written",
                     attrs.get("bytes", 0))
        elif name == "serve.handle":
            handles.append(span)
        else:
            bump(per_run, (rid, name), self_ns)

    ok = [rid for rid, span in runs.items()
          if (span[6] or {}).get("status") == "ok"]
    contexts_all = sum(per_run.get((rid, "contexts"), 0) for rid in runs)
    contexts_wasted = sum(per_run.get((rid, "contexts"), 0)
                          for rid in runs if rid not in ok)
    run_ns = sum(span[5] - span[4] for span in runs.values())

    def ms_median(key):
        return _median(per_run.get((rid, key), 0) / 1e6 for rid in runs)

    machine_s = totals.get("machine_ns", 0) / 1e9
    out = {
        "frontend.parse_ms": ms_median("frontend.compile_source"),
        "dyc.static_compile_ms": ms_median("dyc.compile_static"),
        "dyc.genext_build_ms": ms_median("dyc.compile_annotated"),
        "workloads.input_setup_ms": ms_median("workloads.setup"),
        "machine.static_run_ms": ms_median("machine.static_run"),
        "machine.dynamic_run_ms": ms_median("machine.dynamic_run"),
        "machine.translate_ms": ms_median("machine.translation"),
        "machine.translations": _median(
            per_run.get((rid, "translations"), 0) for rid in runs),
        "machine.minstr_per_s": (totals.get("instructions", 0) / 1e6
                                 / machine_s if machine_s else 0.0),
        "machine.instructions": _median(
            per_run.get((rid, "machine.instructions"), 0) for rid in ok),
        "machine.degraded": totals.get("machine.degraded", 0),
        "runtime.specialize_ms": ms_median("runtime.specialize"),
        "runtime.specialize_share": (totals.get("specialize_ns", 0)
                                     / run_ns if run_ns else 0.0),
        "runtime.contexts_specialized": contexts_all,
        "runtime.wasted_contexts_share": (contexts_wasted / contexts_all
                                          if contexts_all else 0.0),
        "runtime.instructions_generated": _median(
            runs[rid][6].get("generated", 0) for rid in ok),
        "runtime.dc_cycles": _median(
            runs[rid][6].get("dc_cycles", 0) for rid in ok),
        "evalharness.run_ms": _median(
            (span[5] - span[4]) / 1e6 for span in runs.values()),
        "evalharness.run_self_ms": _median(
            own[span[2]] / 1e6 for span in runs.values()),
        "evalharness.verify_ms": ms_median("evalharness.verify"),
        "persist.get_ms": _median(ns / 1e6 for ns, _ in persist_get),
        "persist.put_ms": _median(ns / 1e6 for ns in persist_put),
        "persist.hit_ratio": (sum(1 for _, hit in persist_get if hit)
                              / len(persist_get) if persist_get else 0.0),
        "persist.writes": totals.get("persist.writes", 0),
        "persist.bytes_written": totals.get("persist.bytes_written", 0),
    }
    out.update(_serve_metrics(spans, handles, runs, own))
    return out


def _serve_metrics(spans, handles, runs, own) -> dict[str, float]:
    """Metrics joining the daemon's spans with the client's by echo."""
    client = {span[1]: span for span in spans
              if span[0] == "client.request"}
    handle_by_rid = {span[1]: span for span in handles
                     if span[1] is not None}
    http, wait = [], []
    for rid, span in client.items():
        sent_to_done = (span[6] or {}).get("sent_to_done_ns")
        handle = handle_by_rid.get(rid)
        if handle is not None and sent_to_done is not None:
            http.append((sent_to_done - (handle[5] - handle[4])) / 1e6)
        run = runs.get(rid)
        if run is not None:
            wait.append(((span[5] - span[4]) - (run[5] - run[4])) / 1e6)
    run_handles = [span for span in handles if span[1] is not None]
    return {
        "serve.exec_ms": _median((span[5] - span[4]) / 1e6
                                 for rid, span in runs.items()
                                 if rid in handle_by_rid) if handles
        else 0.0,
        "serve.handle_ms": _median(own[span[2]] / 1e6
                                   for span in run_handles),
        "serve.hit_ms": _median((span[5] - span[4]) / 1e6
                                for span in run_handles
                                if (span[6] or {}).get("cached")),
        "serve.http_ms": _median(http),
        "serve.wait_ms": _median(wait),
    }


def main(argv: list[str]) -> int:
    """Print the span-derived per-layer metrics, one column per traced
    run: files named ``<run>-<role>.jsonl`` group into one run."""
    if not argv:
        print("usage: python3 perfbench/spans.py TRACE.jsonl [...]",
              file=sys.stderr)
        return 2
    runs: dict[str, list[str]] = {}
    for path in argv:
        runs.setdefault(os.path.basename(path).rsplit("-", 1)[0],
                        []).append(path)
    columns = {tag.split("-trace")[0]: span_metrics(load(paths))
               for tag, paths in runs.items()}
    print(f"{'metric':34s} {'unit':8s}"
          + "".join(f" {label:>20s}" for label in columns))
    for name, unit in SPAN_METRICS.items():
        print(f"{name:34s} {unit:8s}"
              + "".join(f" {metrics[name]:20.4f}"
                        for metrics in columns.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
