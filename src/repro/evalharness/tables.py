"""Builders and renderers for the paper's Tables 1–5."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import ALL_ON, OptConfig, TABLE5_ABLATIONS
from repro.dyc import compile_annotated
from repro.evalharness.parallel import run_ablations, run_configs
from repro.evalharness.runner import RunResult
from repro.frontend import compile_source
from repro.settings import Settings
from repro.workloads import ALL_WORKLOADS, APPLICATIONS


@dataclass
class Table:
    """A rendered-ready table: title, headers, and rows of strings."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)


def render_table(table: Table) -> str:
    """Plain-text rendering with aligned columns."""
    widths = [len(h) for h in table.headers]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines = [table.title, "=" * len(table.title), fmt(table.headers),
             fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in table.rows)
    return "\n".join(lines)


def _fmt_speedup(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.2f}" if value < 10 else f"{value:.1f}"


def _fmt_breakeven(metrics) -> str:
    value = metrics.breakeven_units
    if math.isinf(value):
        return "never"
    value = max(1.0, value)
    return f"{value:.0f} {metrics.breakeven_unit}"


# ----------------------------------------------------------------------
# Table 1: application characteristics
# ----------------------------------------------------------------------

def build_table1(workloads=ALL_WORKLOADS) -> Table:
    table = Table(
        title="Table 1: Application Characteristics",
        headers=["Program", "Kind", "Description",
                 "Annotated Static Variables", "Values",
                 "Src Lines", "#Fns", "Region IR Instrs"],
    )
    for workload in workloads:
        module = compile_source(workload.source)
        compiled = compile_annotated(module, ALL_ON)
        instrs = 0
        for name in workload.region_functions:
            for region_id in compiled.region_functions.get(name, []):
                template = compiled.regions[region_id].template
                instrs += sum(
                    len(template.blocks[label])
                    for label in compiled.regions[region_id].blocks
                )
        table.rows.append([
            workload.name,
            workload.kind,
            workload.description,
            workload.static_vars,
            workload.static_values,
            str(workload.lines_of_source()),
            str(len(workload.region_functions)),
            str(instrs),
        ])
    return table


# ----------------------------------------------------------------------
# Table 2: optimizations used by each program
# ----------------------------------------------------------------------

#: (column header, RegionStats predicate) in the paper's column order.
TABLE2_COLUMNS = [
    ("Unroll", lambda s: s.unrolling or ""),
    ("DAE", lambda s: "x" if s.used_dae else ""),
    ("ZCP", lambda s: "x" if s.used_zcp else ""),
    ("StLoads", lambda s: "x" if s.used_static_loads else ""),
    ("Unchecked", lambda s: "x" if s.used_unchecked_dispatch else ""),
    ("StCalls", lambda s: "x" if s.used_static_calls else ""),
    ("SR", lambda s: "x" if s.used_sr else ""),
    ("Promote", lambda s: "x" if s.used_internal_promotions else ""),
    ("PolyDiv", lambda s: "x" if s.used_polyvariant_division else ""),
]


def _merge_stat_cell(stats, extractor) -> str:
    values = {extractor(s) for s in stats}
    values.discard("")
    if not values:
        return ""
    return sorted(values)[-1]


def build_table2(results: dict[str, RunResult] | None = None) -> Table:
    if results is None:
        results = run_all(ALL_ON)
    table = Table(
        title="Table 2: Optimizations Used by Each Program",
        headers=["Dynamic Region"] + [h for h, _ in TABLE2_COLUMNS],
    )
    for workload in ALL_WORKLOADS:
        result = results[workload.name]
        for name in workload.region_functions:
            stats = result.stats_for_function(name)
            label = (workload.name
                     if len(workload.region_functions) == 1
                     else f"{workload.name}: {name}")
            row = [label]
            for _, extractor in TABLE2_COLUMNS:
                row.append(_merge_stat_cell(stats, extractor))
            table.rows.append(row)
    return table


# ----------------------------------------------------------------------
# Table 3: dynamic-region performance, all optimizations on
# ----------------------------------------------------------------------

def build_table3(results: dict[str, RunResult] | None = None) -> Table:
    if results is None:
        results = run_all(ALL_ON)
    table = Table(
        title="Table 3: Dynamic Region Performance (All Optimizations)",
        headers=["Dynamic Region", "Asymptotic Speedup",
                 "Break-Even Point", "DC Overhead (cyc/instr)",
                 "Instructions Generated"],
    )
    for workload in ALL_WORKLOADS:
        result = results[workload.name]
        for metrics in result.region_metrics():
            table.rows.append([
                metrics.region_label,
                _fmt_speedup(metrics.asymptotic_speedup),
                _fmt_breakeven(metrics),
                f"{metrics.overhead_per_instruction:.0f}",
                str(metrics.instructions_generated),
            ])
    return table


# ----------------------------------------------------------------------
# Table 4: whole-program performance (applications)
# ----------------------------------------------------------------------

def build_table4(results: dict[str, RunResult] | None = None) -> Table:
    if results is None:
        results = run_all(ALL_ON, workloads=APPLICATIONS)
    table = Table(
        title="Table 4: Whole-Program Performance (All Optimizations)",
        headers=["Application", "Static Cycles", "Dynamic Cycles",
                 "Region Time (% of static)", "Whole-Program Speedup"],
    )
    for workload in APPLICATIONS:
        result = results[workload.name]
        table.rows.append([
            workload.name,
            f"{result.static_total_cycles:.0f}",
            f"{result.dynamic_total_cycles + result.dc_cycles:.0f}",
            f"{result.region_fraction_of_static * 100:.1f}",
            _fmt_speedup(result.whole_program_speedup),
        ])
    return table


# ----------------------------------------------------------------------
# Table 5: ablations
# ----------------------------------------------------------------------

#: Table 5 column header per ablated switch, in the paper's order.
TABLE5_HEADERS = {
    "complete_loop_unrolling": "-Unroll",
    "static_loads": "-StLoads",
    "unchecked_dispatching": "-Unchecked",
    "static_calls": "-StCalls",
    "zero_copy_propagation": "-ZCP",
    "dead_assignment_elimination": "-DAE",
    "strength_reduction": "-SR",
    "internal_promotions": "-Promote",
    "polyvariant_division": "-PolyDiv",
}

#: Which RegionStats predicate gates each ablation's applicability.
_APPLICABILITY = {
    "complete_loop_unrolling": lambda s: s.unrolling is not None,
    "static_loads": lambda s: s.used_static_loads,
    "unchecked_dispatching": lambda s: s.used_unchecked_dispatch,
    "static_calls": lambda s: s.used_static_calls,
    "zero_copy_propagation": lambda s: s.used_zcp,
    "dead_assignment_elimination": lambda s: s.used_dae,
    "strength_reduction": lambda s: s.used_sr,
    "internal_promotions": lambda s: s.used_internal_promotions,
    "polyvariant_division": lambda s: s.used_polyvariant_division,
}


def applicable_ablations(result: RunResult, function: str) -> list[str]:
    """Ablations applicable to one dynamic region (Table 2's checks)."""
    stats = result.stats_for_function(function)
    return [
        name for name in TABLE5_ABLATIONS
        if any(_APPLICABILITY[name](s) for s in stats)
    ]


def build_table5(baseline: dict[str, RunResult] | None = None,
                 progress=None,
                 memo=None,
                 settings: Settings | None = None) -> Table:
    """Run every applicable single-optimization ablation (Table 5).

    Some ablations make unbounded specialization possible (mipsi without
    static loads cannot read the program it is unrolling over); those
    fall back to additionally disabling complete loop unrolling — the
    paper's cells for these cases coincide with the no-unrolling column —
    and the cell is starred.  The fallback lives in the ablation worker
    (:func:`repro.evalharness.parallel._run_ablation_task`) so it behaves
    identically in serial and ``--jobs N`` runs.
    """
    if baseline is None:
        baseline = run_all(ALL_ON, memo=memo, settings=settings)
    table = Table(
        title="Table 5: Region Speedups without a Particular Feature",
        headers=(["Dynamic Region", "All Opts"]
                 + [TABLE5_HEADERS[name] for name in TABLE5_ABLATIONS]),
    )
    # Determine, per workload, the union of applicable ablations so each
    # configuration is compiled and run once per workload; then fan the
    # whole (workload, ablation) task list out in one batch.
    per_workload: dict[str, dict[str, list[str]]] = {}
    tasks: list[tuple[str, str]] = []
    for workload in ALL_WORKLOADS:
        base = baseline[workload.name]
        per_function = {
            name: applicable_ablations(base, name)
            for name in workload.region_functions
        }
        per_workload[workload.name] = per_function
        needed = sorted(
            {a for ablist in per_function.values() for a in ablist},
            key=TABLE5_ABLATIONS.index,
        )
        tasks.extend((workload.name, ablation) for ablation in needed)
    outcomes = run_ablations(tasks, memo=memo, progress=progress,
                             settings=settings)
    by_task = dict(zip(tasks, outcomes))

    for workload in ALL_WORKLOADS:
        base = baseline[workload.name]
        per_function = per_workload[workload.name]
        ablated: dict[str, RunResult] = {}
        starred: set[str] = set()
        for (name, ablation), (result, star) in by_task.items():
            if name != workload.name:
                continue
            ablated[ablation] = result
            if star:
                starred.add(ablation)
        base_metrics = {
            m.region_label: m for m in base.region_metrics()
        }
        for name in workload.region_functions:
            label = (workload.name
                     if len(workload.region_functions) == 1
                     else f"{workload.name}: {name}")
            row = [label, _fmt_speedup(
                base_metrics[label].asymptotic_speedup)]
            for ablation in TABLE5_ABLATIONS:
                if ablation not in per_function[name]:
                    row.append("")
                    continue
                metrics = {
                    m.region_label: m
                    for m in ablated[ablation].region_metrics()
                }[label]
                cell = _fmt_speedup(metrics.asymptotic_speedup)
                if ablation in starred:
                    cell += "*"
                row.append(cell)
            table.rows.append(row)
    return table


# ----------------------------------------------------------------------

def run_all(config: OptConfig = ALL_ON,
            workloads=ALL_WORKLOADS,
            memo=None,
            settings: Settings | None = None) -> dict[str, RunResult]:
    """Run every workload once under ``config``.

    ``settings.jobs`` fans runs out over a process pool; ``memo`` is an
    optional :class:`~repro.evalharness.memo.Memoizer` shared by all
    workers.
    """
    tasks = [(workload.name, config) for workload in workloads]
    results = run_configs(tasks, memo=memo, settings=settings)
    return {
        workload.name: result
        for workload, result in zip(workloads, results)
    }
