"""The Python-codegen backend must be indistinguishable from the
reference interpreter — byte-identical ExecutionStats
and identical results for every workload — and must walk the backend
degradation ladder (pycodegen -> threaded -> reference) on compile
faults without the statistics drifting."""

import dataclasses

import pytest

from repro.config import ALL_OFF, ALL_ON
from repro.errors import TrapError
from repro.evalharness.runner import run_workload
from repro.ir import BasicBlock, FunctionBuilder, Module, Op
from repro.ir.instructions import Imm, Move, Return
from repro.machine import ALPHA_21164, Machine, pycodegen
from repro.machine.pycodegen import (
    EAGER_FOOTPRINT,
    CompileFault,
    PyCodegenBackend,
)
from repro.runtime.fallback import BACKEND_LADDER
from repro.settings import Settings
from repro.workloads import ALL_WORKLOADS, WORKLOADS_BY_NAME

from tests.test_threaded_backend import _run_under, _stats_dict

#: Every workload small enough for the full-corpus identity sweep.
CORPUS = [w.name for w in ALL_WORKLOADS]


class TestCountedByteIdentity:
    @pytest.mark.parametrize("name", CORPUS)
    def test_all_workloads_byte_identical(self, name):
        """Acceptance: every workload, both runs, full stats equality."""
        workload = WORKLOADS_BY_NAME[name]
        reference = _run_under(workload, ALL_ON, "reference")
        pycodegen = _run_under(workload, ALL_ON, "pycodegen")
        assert reference == pycodegen

    @pytest.mark.parametrize("name,config", [
        ("dinero", ALL_ON.without("strength_reduction")),
        ("dotproduct", ALL_OFF),
        ("pnmconvol",
         ALL_ON.without("zero_copy_propagation",
                        "dead_assignment_elimination")),
        ("chebyshev", ALL_ON.without("complete_loop_unrolling")),
        ("m88ksim", ALL_ON.without("internal_promotions")),
    ])
    def test_sample_ablations_byte_identical(self, name, config):
        workload = WORKLOADS_BY_NAME[name]
        reference = _run_under(workload, config, "reference")
        pycodegen = _run_under(workload, config, "pycodegen")
        assert reference == pycodegen

    def test_runtime_patch_recompiles_region_code(self):
        """Internal promotions patch emitted code mid-execution; the
        codegen backend must notice the version bump (stale guard) and
        recompile before the next block runs."""
        workload = WORKLOADS_BY_NAME["m88ksim"]
        reference = _run_under(workload, ALL_ON, "reference")
        pycodegen = _run_under(workload, ALL_ON, "pycodegen")
        assert reference == pycodegen
        assert reference["dynamic"]["dispatches"] > 0


class TestResolution:
    def test_backends_accepted(self):
        for backend in ("reference", "threaded", "pycodegen"):
            assert Settings().override(backend=backend).backend == backend
        with pytest.raises(ValueError):
            Settings().override(backend="jit")


class TestTranslationCache:
    def _constant_module(self, value):
        b = FunctionBuilder("f", ())
        b.move("x", value)
        b.ret("x")
        mod = Module()
        mod.add_function(b.finish())
        return mod

    def test_translations_are_cached(self):
        mod = self._constant_module(1)
        machine = Machine(mod, backend="pycodegen")
        assert machine.run("f") == 1
        fn = mod.functions["f"]
        backend = machine._backend
        scale = ALPHA_21164.static_schedule_factor
        first = backend.translation(fn, 0.0, scale, region=False)
        assert machine.run("f") == 1
        again = backend.translation(fn, 0.0, scale, region=False)
        assert again is first
        assert backend.compiled_functions >= 1

    def test_version_bump_invalidates_translation(self):
        mod = self._constant_module(1)
        machine = Machine(mod, backend="pycodegen")
        assert machine.run("f") == 1
        fn = mod.functions["f"]
        label = fn.entry
        fn.blocks[label] = BasicBlock(
            label, [Move("x", Imm(2)), Return(Imm(2))]
        )
        fn.bump_version()
        assert machine.run("f") == 2

    def test_stats_identical_after_patch(self):
        results = {}
        for backend in ("reference", "pycodegen"):
            mod = self._constant_module(1)
            machine = Machine(mod, backend=backend)
            machine.run("f")
            fn = mod.functions["f"]
            fn.blocks[fn.entry] = BasicBlock(
                fn.entry, [Move("x", Imm(2)), Move("y", Imm(3)),
                           Return(Imm(5))]
            )
            fn.bump_version()
            value = machine.run("f")
            results[backend] = (value, _stats_dict(machine.stats))
        assert results["reference"] == results["pycodegen"]


class TestDegradationLadder:
    def test_ladder_order(self):
        assert BACKEND_LADDER == ("pycodegen", "threaded", "reference")

    def test_compile_fault_degrades_to_threaded(self):
        """pycodegen.compile armed alone: every compile attempt falls to
        the threaded rung, which translates fine — so compilations
        degrade, translations do not, and the stats stay identical."""
        config = dataclasses.replace(ALL_ON,
                                     faults="pycodegen.compile")
        workload = WORKLOADS_BY_NAME["dinero"]
        result = run_workload(workload, config=config,
                              backend="pycodegen")
        assert result.degraded_compilations > 0
        assert result.degraded_translations == 0
        assert result.degraded
        clean = run_workload(workload, backend="reference")
        assert result.dynamic_total_cycles == clean.dynamic_total_cycles
        assert result.static_total_cycles == clean.static_total_cycles

    def test_both_faults_degrade_to_reference(self):
        """Both rungs armed: pycodegen -> threaded -> reference, with
        both counters advancing and the stats still byte-identical."""
        config = dataclasses.replace(
            ALL_ON, faults="pycodegen.compile;threaded.translate"
        )
        workload = WORKLOADS_BY_NAME["dinero"]
        result = run_workload(workload, config=config,
                              backend="pycodegen")
        assert result.degraded_compilations > 0
        assert result.degraded_translations > 0
        assert result.degraded
        clean = run_workload(workload, backend="reference")
        assert result.dynamic_total_cycles == clean.dynamic_total_cycles

    def test_oversize_source_refused(self, monkeypatch):
        """A source limit below any emitted function forces the ladder:
        the backend refuses every compile (counting the refusals) and
        the run completes on the lower rungs, stats unchanged."""
        workload = WORKLOADS_BY_NAME["dotproduct"]
        clean = run_workload(workload, backend="reference")
        monkeypatch.setattr(pycodegen, "SOURCE_LIMIT", 10)
        result = run_workload(workload, backend="pycodegen")
        assert result.degraded_compilations > 0
        assert result.dynamic_total_cycles == clean.dynamic_total_cycles

    def test_oversize_refusal_counter(self, monkeypatch):
        monkeypatch.setattr(pycodegen, "SOURCE_LIMIT", 10)
        b = FunctionBuilder("f", ())
        b.move("x", 7)
        b.ret("x")
        mod = Module()
        mod.add_function(b.finish())
        machine = Machine(mod, backend="pycodegen")
        assert machine.run("f") == 7
        backend = machine._backend
        assert isinstance(backend, PyCodegenBackend)
        assert backend.oversize_refusals >= 1
        with pytest.raises(CompileFault):
            backend._compile(mod.functions["f"], 0.0, 1.0, False)


class TestTieredCompilation:
    def test_large_regions_start_on_threaded_tier(self, monkeypatch):
        """A region bigger than EAGER_FOOTPRINT must not pay compile()
        until it proves hot; the cold entries run on the threaded tier
        with identical stats (the corpus identity tests above cover the
        numbers — here we check the policy knob actually gates)."""
        workload = WORKLOADS_BY_NAME["romberg"]
        tiered = _run_under(workload, ALL_ON, "pycodegen")
        monkeypatch.setattr(pycodegen, "COMPILE_THRESHOLD", 0)
        eager = _run_under(workload, ALL_ON, "pycodegen")
        assert eager == tiered
        assert EAGER_FOOTPRINT > 0


class TestTraps:
    def test_undefined_variable_trap_matches_reference(self):
        messages = {}
        for backend in ("reference", "pycodegen"):
            b = FunctionBuilder("f", ())
            b.binop("x", Op.ADD, "missing", 1)
            b.ret("x")
            mod = Module()
            mod.add_function(b.finish())
            machine = Machine(mod, backend=backend)
            with pytest.raises(TrapError) as caught:
                machine.run("f")
            messages[backend] = str(caught.value)
        assert messages["reference"] == messages["pycodegen"]
