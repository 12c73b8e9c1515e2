"""Optimization configuration — the switches Table 5 ablates.

Each field corresponds to one column of the paper's Table 5 (plus the
annotation-checking debug mode).  Disabling a switch degrades the pipeline
the way the paper describes:

``complete_loop_unrolling``
    off ⇒ loop-variant variables are demoted to dynamic at loop headers,
    so loops are emitted with back edges instead of being unrolled away —
    and every optimization that needed a static induction variable
    (static loads indexed by it, static calls on it, …) degrades with it.
``static_loads``
    off ⇒ ``@`` annotations are ignored; annotated loads stay dynamic.
``unchecked_dispatching``
    off ⇒ the ``cache_one_unchecked`` policy is ignored and every dispatch
    pays the general hash-table ``cache_all`` cost.
``static_calls``
    off ⇒ ``pure`` annotations are ignored; calls stay dynamic.
``zero_copy_propagation`` / ``dead_assignment_elimination``
    the two halves of §2.2.7's staged dynamic optimization.  DAE builds on
    the notes ZCP records, but eliminating an instruction whose result is
    provably unused works without ZCP, so the switches are independent,
    matching the paper's separate Table 5 columns.
``strength_reduction``
    off ⇒ multiplies/divides/moduli by run-time constants are emitted
    as-is instead of shifts/masks.
``internal_promotions``
    off ⇒ a static variable assigned a dynamic value is demoted for the
    rest of the region instead of being re-promoted through a cache check.
``polyvariant_division``
    off ⇒ analysis contexts merge at join points (intersection of the
    annotated sets), losing path-specific staticness (the viewperf-shader
    situation of §4.4.4).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class OptConfig:
    """Which of DyC's staged run-time optimizations are enabled."""

    complete_loop_unrolling: bool = True
    static_loads: bool = True
    unchecked_dispatching: bool = True
    static_calls: bool = True
    zero_copy_propagation: bool = True
    dead_assignment_elimination: bool = True
    strength_reduction: bool = True
    internal_promotions: bool = True
    polyvariant_division: bool = True
    #: Debug mode: verify that ``@`` loads really read invariant memory.
    check_annotations: bool = False
    #: Run the staged-specialization linter (:mod:`repro.lint`) before
    #: compiling; error-severity diagnostics abort compilation with
    #: :class:`repro.errors.LintError`.
    lint: bool = False

    # --- robustness knobs (not optimizations; excluded from
    # --- enabled_names and from Table 5) -------------------------------
    #: Fault-injection spec (see :mod:`repro.faults`), combined with
    #: ``Settings.faults`` (``REPRO_FAULTS``).
    faults: str = ""
    #: Force the graceful-degradation ladder on.  It also activates
    #: automatically whenever any fault point is armed, or via
    #: ``Settings.degrade`` (``REPRO_DEGRADE``).
    degrade: bool = False
    #: Bound on live entries per ``cache_all`` code cache (0 = unbounded);
    #: full caches evict clock/second-chance victims instead of growing.
    cache_capacity: int = 0
    #: Per-batch specialization-context budget (0 = the module default,
    #: :data:`repro.runtime.specializer.MAX_CONTEXTS_PER_BATCH`).  With
    #: the ladder active, overruns residualize the remaining work as
    #: ordinary dynamic code instead of raising.
    specialize_budget: int = 0
    #: Quarantine a (region, context) after this many specialization
    #: failures; further dispatches run the unspecialized fallback
    #: directly (circuit breaker).
    quarantine_after: int = 3
    #: DYC210 size budget (characters) for a region's emitted Python
    #: source; 0 disables the lint.
    codegen_source_budget: int = 0

    def without(self, *names: str) -> "OptConfig":
        """A copy with the named optimizations disabled (for ablations);
        only :data:`TABLE5_ABLATIONS` switches can be named."""
        for name in names:
            if name not in TABLE5_ABLATIONS:
                raise ValueError(f"unknown optimization {name!r}")
        return dataclasses.replace(self, **{name: False for name in names})

    def enabled_names(self) -> tuple[str, ...]:
        """Names of the enabled optimization switches, in Table 5
        order."""
        return tuple(name for name in TABLE5_ABLATIONS
                     if getattr(self, name))


#: All optimizations on — the paper's "normal configuration" (§4.4).
ALL_ON = OptConfig()

#: Everything off — specialization still happens (the BTA still folds
#: static computations at region entry) but none of the staged
#: optimizations beyond plain constant folding apply.
ALL_OFF = OptConfig(
    complete_loop_unrolling=False,
    static_loads=False,
    unchecked_dispatching=False,
    static_calls=False,
    zero_copy_propagation=False,
    dead_assignment_elimination=False,
    strength_reduction=False,
    internal_promotions=False,
    polyvariant_division=False,
)

#: The ablation set evaluated by Table 5, in the paper's column order.
TABLE5_ABLATIONS: tuple[str, ...] = (
    "complete_loop_unrolling",
    "static_loads",
    "unchecked_dispatching",
    "static_calls",
    "zero_copy_propagation",
    "dead_assignment_elimination",
    "strength_reduction",
    "internal_promotions",
    "polyvariant_division",
)
