"""Workload inspector: ``python -m repro.workloads [name ...]``.

Runs the named workloads (default: all) statically and dynamically,
verifies their outputs agree, and prints a per-region report: speedup,
break-even, generated-code size, and which staged optimizations fired.
Add ``--dump`` to also print the specialized region code,
and ``--backend=reference|threaded|pycodegen`` to pick the execution
backend (the reported numbers are identical either way).

``python -m repro.workloads bench`` runs the wall-clock backend
benchmark (same report as ``python -m repro.evalharness bench``); with
``--compare`` it diffs the committed ``BENCH_interp.json`` against a
fresh run and exits non-zero on semantic divergence (checksum or
workload-set changes — wall-clock drift is only reported).

``python -m repro.workloads snapshot save|load PATH`` captures the
persistent artifact store (``--persist-dir=DIR``, default
``$REPRO_PERSIST_DIR`` or ``.repro_persist``) into one integrity-checked
snapshot file, or unpacks a snapshot into the store to warm-start later
runs; invalid records are skipped, never installed.
"""

from __future__ import annotations

import sys

from repro.evalharness.runner import run_workload
from repro.ir import format_function
from repro.settings import Settings, SettingsError
from repro.workloads import ALL_WORKLOADS, get_workload


def report(name: str, dump: bool, settings: Settings) -> None:
    workload = get_workload(name)
    result = run_workload(workload, settings=settings)
    print(f"\n=== {workload.name} ({workload.kind}): "
          f"{workload.description} ===")
    print(f"static vars: {workload.static_vars} = "
          f"{workload.static_values}")
    print(f"whole-program speedup (incl. DC overhead): "
          f"{result.whole_program_speedup:.2f}x; region share of "
          f"static execution: {result.region_fraction_of_static:.0%}")
    for metrics in result.region_metrics():
        print(f"  {metrics.region_label}: "
              f"asymptotic {metrics.asymptotic_speedup:.2f}x, "
              f"break-even {metrics.breakeven_units:.0f} "
              f"{metrics.breakeven_unit}, "
              f"{metrics.instructions_generated} instructions at "
              f"{metrics.overhead_per_instruction:.0f} cyc/instr")
    for region_id, stats in sorted(result.region_stats.items()):
        used = []
        if stats.unrolling:
            used.append(f"{stats.unrolling} unrolling "
                        f"({stats.contexts_specialized} contexts)")
        if stats.used_static_loads:
            used.append(f"static loads ({stats.static_loads_folded})")
        if stats.used_static_calls:
            used.append(f"static calls ({stats.static_calls_folded})")
        if stats.used_zcp:
            used.append(f"zcp ({stats.zcp_zero_hits} zero / "
                        f"{stats.zcp_copy_hits} copy)")
        if stats.used_dae:
            used.append(f"dae ({stats.dae_removed})")
        if stats.used_sr:
            used.append(f"sr ({stats.sr_applied})")
        if stats.used_internal_promotions:
            used.append(
                f"promotions ({stats.internal_promotions_executed})"
            )
        if stats.used_polyvariant_division:
            used.append(f"divisions ({stats.divisions_used})")
        print(f"  region {region_id}: {', '.join(used) or 'plain'}")
    print(f"  outputs verified: {result.outputs_match}")
    if result.degraded:
        parts = []
        if result.degraded_compilations:
            parts.append(f"{result.degraded_compilations} compilations "
                         "fell back down the backend ladder")
        if result.degraded_translations:
            parts.append(f"{result.degraded_translations} translations "
                         "fell back to the reference interpreter")
        for region_id, stats in sorted(result.region_stats.items()):
            if not stats.degraded:
                continue
            detail = []
            if stats.specialization_failures:
                detail.append(f"{stats.specialization_failures} failed "
                              "specializations")
            if stats.respecializations:
                detail.append(f"{stats.respecializations} retried")
            if stats.fallback_executions:
                detail.append(f"{stats.fallback_executions} fallback "
                              "runs")
            if stats.quarantined_contexts:
                detail.append(f"{stats.quarantined_contexts} "
                              "quarantined")
            if stats.budget_truncations:
                detail.append(f"{stats.budget_truncations} budget "
                              "truncations")
            if stats.residualized_continuations:
                detail.append(f"{stats.residualized_continuations} "
                              "residualized continuations")
            if stats.cache_corruptions:
                detail.append(f"{stats.cache_corruptions} corrupt "
                              "cache hits")
            parts.append(f"region {region_id}: {', '.join(detail)}")
        print(f"  DEGRADED — {'; '.join(parts)}")
    if dump:
        # Re-run to capture the emitted code.
        from repro.dyc import compile_annotated
        from repro.frontend import compile_source
        from repro.ir import Memory
        from repro.runtime.cache import UncheckedCache

        module = compile_source(workload.source)
        compiled = compile_annotated(module)
        memory = Memory()
        inputs = workload.setup(memory)
        machine, runtime = compiled.make_machine(memory=memory)
        machine.run(workload.entry, *inputs.args)
        for region_id, cache in sorted(runtime.entry_caches.items()):
            if isinstance(cache, UncheckedCache):
                codes = [cache._value] if cache._filled else []
            else:
                codes = [value for _, value in cache.items()]
            for code in codes[:1]:
                print(f"\n--- emitted code, region {region_id} ---")
                print(format_function(code.function))


def snapshot(action: str, path: str, persist_dir: str) -> int:
    """``snapshot save|load PATH``: store <-> snapshot-file hand-off."""
    from repro.runtime import persist

    store_dir = persist_dir or persist.DEFAULT_PERSIST_DIR
    if action == "save":
        outcome = persist.save_snapshot(store_dir, path)
        if not outcome.ok:
            print(f"snapshot save failed: {outcome.error}",
                  file=sys.stderr)
            return 1
        print(f"snapshot of {outcome.loaded} record(s) from "
              f"{store_dir} written to {path}")
        return 0
    outcome = persist.load_snapshot(path, store_dir)
    if not outcome.ok:
        print(f"snapshot load failed: {outcome.error}", file=sys.stderr)
        return 1
    skipped = f", {outcome.skipped} invalid record(s) skipped" \
        if outcome.skipped else ""
    print(f"{outcome.loaded} record(s) loaded into {store_dir}"
          f"{skipped}")
    return 0


def bench(compare: bool, output: str | None, repeat: int) -> int:
    """Delegate to the evalharness bench (one shared implementation)."""
    from repro.evalharness.__main__ import _bench

    class _Args:
        pass

    args = _Args()
    args.compare = compare
    args.repeat = repeat
    if output is None:
        from repro.evalharness.bench import DEFAULT_BENCH_PATH
        output = DEFAULT_BENCH_PATH
    args.output = output
    return _bench(args)


def main(argv: list[str]) -> int:
    dump = "--dump" in argv
    compare = "--compare" in argv
    backend = None
    output = None
    persist_dir = None
    repeat = 3
    for arg in argv:
        if arg.startswith("--backend="):
            backend = arg.split("=", 1)[1]
        elif arg.startswith("--output="):
            output = arg.split("=", 1)[1]
        elif arg.startswith("--persist-dir="):
            persist_dir = arg.split("=", 1)[1]
        elif arg.startswith("--repeat="):
            repeat = int(arg.split("=", 1)[1])
        elif arg.startswith("--") and arg not in ("--dump", "--compare"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            return 2
    try:
        settings = Settings.from_env(backend=backend,
                                     persist_dir=persist_dir)
    except SettingsError as err:
        print(f"bad setting: {err}", file=sys.stderr)
        return 2
    names = [a for a in argv if not a.startswith("--")]
    if names and names[0] == "snapshot":
        if len(names) != 3 or names[1] not in ("save", "load"):
            print("usage: python -m repro.workloads snapshot "
                  "save|load PATH [--persist-dir=DIR]", file=sys.stderr)
            return 2
        return snapshot(names[1], names[2], settings.persist_dir)
    if names and names[0] == "bench":
        if len(names) > 1:
            print("bench takes no workload names", file=sys.stderr)
            return 2
        return bench(compare, output, repeat)
    if compare:
        print("--compare only applies to the bench subcommand",
              file=sys.stderr)
        return 2
    if not names:
        names = [w.name for w in ALL_WORKLOADS]
    for name in names:
        try:
            report(name, dump, settings)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
