"""Run one workload under one optimization configuration.

Each run executes the workload twice on fresh memories — once statically
compiled (annotations ignored, §3.3) and once dynamically compiled — and
verifies the two produce identical output before reporting any numbers.
Per-region timings use the machine's tracked-scope accounting (inclusive
cycles in the dynamically compiled functions of Table 1), divided by the
invocation count, mirroring the paper's measurement methodology (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ALL_ON, OptConfig
from repro.dyc import compile_annotated, compile_static
from repro.errors import ReproError, SpecializationError
from repro.evalharness.metrics import RegionMetrics
from repro.frontend import compile_source
from repro.ir import Memory, Module
from repro.machine import ALPHA_21164, ICacheModel, Machine
from repro.machine.costs import CostModel
from repro.runtime import persist
from repro.runtime.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.runtime.stats import RegionStats
from repro.settings import Settings
from repro.workloads.base import Workload


class VerificationError(ReproError):
    """Static and dynamic runs produced different output."""


@dataclass
class RunResult:
    """Everything measured about one (workload, config) pair."""

    workload: Workload
    config: OptConfig
    # Whole-program cycle totals.
    static_total_cycles: float
    dynamic_total_cycles: float     # execution only (incl. dispatch)
    dc_cycles: float                # dynamic-compilation overhead
    # Inclusive cycles in the dynamically compiled functions.
    static_region_cycles: dict[str, float]
    dynamic_region_cycles: dict[str, float]
    region_entries: dict[str, int]
    # Per-region runtime statistics (keyed by region id).
    region_stats: dict[int, RegionStats]
    #: function name -> region ids
    region_functions: dict[str, list[int]]
    outputs_match: bool = True
    return_values: tuple = ()
    #: Backend-ladder degradations over both machines (static+dynamic):
    #: threaded translations that fell back to the reference
    #: interpreter, and codegen compilations that fell back to the
    #: threaded backend or the reference interpreter.
    degraded_translations: int = 0
    degraded_compilations: int = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when any region walked down the degradation ladder
        (failed specializations, fallback executions, quarantines,
        budget truncations, or cache corruption recoveries) or any
        backend walked down the backend ladder (refused translations
        or compilations)."""
        if self.degraded_translations or self.degraded_compilations:
            return True
        return any(stats.degraded for stats in self.region_stats.values())

    @property
    def whole_program_speedup(self) -> float:
        """Including dynamic compilation overhead (Table 4)."""
        denominator = self.dynamic_total_cycles + self.dc_cycles
        if denominator == 0:
            return float("inf")
        return self.static_total_cycles / denominator

    @property
    def region_fraction_of_static(self) -> float:
        """Percent of static execution spent in dynamic regions
        (Table 4's "% of total static execution")."""
        if self.static_total_cycles == 0:
            return 0.0
        return (sum(self.static_region_cycles.values())
                / self.static_total_cycles)

    def region_metrics(self) -> list[RegionMetrics]:
        """Per-dynamic-region metrics for Table 3."""
        out: list[RegionMetrics] = []
        for name in self.workload.region_functions:
            invocations = max(1, self.region_entries.get(name, 0))
            static_cycles = self.static_region_cycles.get(name, 0.0)
            dynamic_cycles = self.dynamic_region_cycles.get(name, 0.0)
            region_ids = self.region_functions.get(name, [])
            dc = sum(
                self.region_stats[r].dc_cycles for r in region_ids
                if r in self.region_stats
            )
            generated = sum(
                self.region_stats[r].instructions_generated
                for r in region_ids if r in self.region_stats
            )
            label = (self.workload.name if
                     len(self.workload.region_functions) == 1
                     else f"{self.workload.name}: {name}")
            out.append(RegionMetrics(
                name=self.workload.name,
                region_label=label,
                static_cycles_per_invocation=static_cycles / invocations,
                dynamic_cycles_per_invocation=(
                    dynamic_cycles / invocations
                ),
                dc_overhead_cycles=dc,
                instructions_generated=generated,
                invocations=invocations,
                breakeven_unit=self.workload.breakeven_unit,
                units_per_invocation=self.workload.units_per_invocation,
            ))
        return out

    def stats_for_function(self, name: str) -> list[RegionStats]:
        return [
            self.region_stats[r]
            for r in self.region_functions.get(name, [])
            if r in self.region_stats
        ]


def _machine_kwargs(workload: Workload, cost_model: CostModel, backend: str):
    icache = None
    if workload.icache_capacity_bytes is not None:
        icache = ICacheModel(
            capacity_bytes=workload.icache_capacity_bytes
        )
    return dict(cost_model=cost_model, icache=icache, backend=backend)


def run_workload(workload: Workload,
                 config: OptConfig = ALL_ON,
                 cost_model: CostModel = ALPHA_21164,
                 overhead: OverheadModel = DEFAULT_OVERHEAD,
                 module: Module | None = None,
                 verify: bool = True,
                 backend: str | None = None,
                 memo=None,
                 settings: Settings | None = None) -> RunResult:
    """Execute ``workload`` statically and dynamically; return metrics.

    ``backend`` overrides ``settings``, which is resolved from the
    environment when not given.

    With a :class:`~repro.evalharness.memo.Memoizer` in ``memo``, the run
    (or its deterministic :class:`SpecializationError`) is served from and
    stored to the content-hash cache.  The backend is deliberately not
    part of the cache key: all backends produce byte-identical stats.
    """
    settings = (settings or Settings.from_env()).override(backend=backend)
    if memo is not None and module is None:
        key = memo.key_for(workload, config, cost_model, overhead, verify,
                           settings)
        cached = memo.get(key)   # raises cached SpecializationError
        if cached is not None:
            return cached
        try:
            result = run_workload(
                workload, config, cost_model, overhead,
                verify=verify, settings=settings,
            )
        except SpecializationError as err:
            memo.put_error(key, err)
            raise
        memo.put(key, result)
        return result
    canonical_module = module is None
    if module is None:
        module = compile_source(workload.source)
    tracked = frozenset(workload.region_functions)

    # --- static baseline ---------------------------------------------
    static_module = compile_static(module)
    static_memory = Memory()
    static_input = workload.setup(static_memory)
    static_machine = Machine(
        static_module, memory=static_memory, tracked=tracked,
        **_machine_kwargs(workload, cost_model, settings.backend),
    )
    static_result = static_machine.run(workload.entry,
                                       *static_input.args)

    # --- dynamically compiled run --------------------------------------
    compiled = compile_annotated(module, config)
    dynamic_memory = Memory()
    dynamic_input = workload.setup(dynamic_memory)
    dynamic_machine, runtime = compiled.make_machine(
        memory=dynamic_memory, tracked=tracked, overhead=overhead,
        settings=settings,
        **_machine_kwargs(workload, cost_model, settings.backend),
    )
    persist_store = persist.active_store()
    if persist_store is None and settings.persist_dir:
        persist_store = persist.activate(settings.persist_dir,
                                         settings.faults)
    if persist_store is not None and canonical_module \
            and persist.run_eligible(config, settings):
        # Route entry/continuation specialization through the
        # cross-process store, keyed like the memo cache keys runs (the
        # import is lazy only to keep runner import-light).
        from repro.evalharness.memo import memo_key
        persist.bind_runtime(
            runtime, persist_store,
            memo_key(workload, config, cost_model, overhead, verify,
                     settings),
        )
    dynamic_result = dynamic_machine.run(workload.entry,
                                         *dynamic_input.args)

    # --- verification ---------------------------------------------------
    outputs_match = True
    if verify:
        if static_input.checksum is not None:
            lhs = static_input.checksum(static_memory, static_machine)
            rhs = dynamic_input.checksum(dynamic_memory, dynamic_machine)
            outputs_match = lhs == rhs
        else:
            outputs_match = static_result == dynamic_result
        if not outputs_match:
            raise VerificationError(
                f"{workload.name}: dynamic run diverged from static run "
                f"under config {config}"
            )

    # Region entries: prefer dispatch counts (exact), falling back to
    # scope-entry counts.
    region_entries: dict[str, int] = {}
    for name in workload.region_functions:
        entries = dynamic_machine.stats.scope_entries.get(name, 0)
        region_entries[name] = entries

    return RunResult(
        workload=workload,
        config=config,
        static_total_cycles=static_machine.stats.cycles,
        dynamic_total_cycles=dynamic_machine.stats.cycles,
        dc_cycles=dynamic_machine.stats.dc_cycles,
        static_region_cycles=dict(static_machine.stats.scope_cycles),
        dynamic_region_cycles=dict(dynamic_machine.stats.scope_cycles),
        region_entries=region_entries,
        region_stats=dict(runtime.stats.regions),
        region_functions=dict(compiled.region_functions),
        outputs_match=outputs_match,
        return_values=(static_result, dynamic_result),
        degraded_translations=(
            static_machine.stats.degraded_translations
            + dynamic_machine.stats.degraded_translations
        ),
        degraded_compilations=(
            static_machine.stats.degraded_compilations
            + dynamic_machine.stats.degraded_compilations
        ),
    )
