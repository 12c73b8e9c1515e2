"""Memoized + parallel eval-harness: cache correctness and pool/serial
equivalence."""

import dataclasses
import os

import pytest

from repro.config import ALL_ON
from repro.errors import SpecializationError
from repro.evalharness.memo import Memoizer, memo_key
from repro.evalharness.parallel import run_ablations, run_configs
from repro.evalharness.runner import run_workload
from repro.machine import ALPHA_21164
from repro.runtime.overhead import DEFAULT_OVERHEAD
from repro.settings import Settings
from repro.workloads import WORKLOADS_BY_NAME

DOT = WORKLOADS_BY_NAME["dotproduct"]
BINARY = WORKLOADS_BY_NAME["binary"]


def _result_fields(result):
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
    }
    fields["workload"] = result.workload.name
    return fields


class TestMemoizer:
    def test_roundtrip(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        cold = run_workload(DOT, memo=memo)
        warm = run_workload(DOT, memo=memo)
        assert warm.workload is DOT
        assert _result_fields(cold) == _result_fields(warm)
        assert warm.region_metrics()[0].asymptotic_speedup == \
            cold.region_metrics()[0].asymptotic_speedup

    def test_key_sensitivity(self):
        base = memo_key(DOT, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)
        assert base == memo_key(DOT, ALL_ON, ALPHA_21164,
                                DEFAULT_OVERHEAD)
        assert base != memo_key(
            DOT, ALL_ON.without("strength_reduction"), ALPHA_21164,
            DEFAULT_OVERHEAD,
        )
        assert base != memo_key(
            DOT, ALL_ON, ALPHA_21164.with_overrides(int_mul=9),
            DEFAULT_OVERHEAD,
        )
        assert base != memo_key(BINARY, ALL_ON, ALPHA_21164,
                                DEFAULT_OVERHEAD)

    def test_inputs_fingerprinted_once_per_workload(self, monkeypatch):
        """``memo_key`` runs ``setup`` once per workload and process,
        not once per call (the serve loop keys every request)."""
        calls = []

        def counting_setup(memory):
            calls.append(1)
            return DOT.setup(memory)

        workload = dataclasses.replace(DOT, setup=counting_setup)
        keys = {memo_key(workload, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)
                for _ in range(5)}
        assert len(keys) == 1 and len(calls) == 1
        settings = Settings(faults="specializer.entry:once")
        memo_key(workload, ALL_ON.without("static_loads"), ALPHA_21164,
                 DEFAULT_OVERHEAD, settings=settings)
        assert len(calls) == 1

    def test_different_inputs_different_key(self):
        """A workload whose ``setup`` builds other inputs gets its own
        key, even with every other field equal."""
        def other_setup(memory):
            built = DOT.setup(memory)
            memory.alloc_array([7])
            return built

        workload = dataclasses.replace(DOT, setup=other_setup)
        assert memo_key(workload, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD) \
            != memo_key(DOT, ALL_ON, ALPHA_21164, DEFAULT_OVERHEAD)

    def test_backend_not_in_key(self, tmp_path):
        """Both backends produce byte-identical stats, so a result
        computed under one backend must be served to the other."""
        memo = Memoizer(str(tmp_path))
        cold = run_workload(DOT, memo=memo, backend="threaded")
        warm = run_workload(DOT, memo=memo, backend="reference")
        assert _result_fields(cold) == _result_fields(warm)

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        run_workload(DOT, memo=memo)
        [entry] = [p for p in os.listdir(tmp_path)
                   if p.endswith(".pkl")]
        with open(tmp_path / entry, "wb") as fh:
            fh.write(b"not a pickle")
        result = run_workload(DOT, memo=memo)
        assert result.workload is DOT

    def test_specialization_error_memoized(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        config = ALL_ON.without("static_loads")
        mipsi = WORKLOADS_BY_NAME["mipsi"]
        with pytest.raises(SpecializationError):
            run_workload(mipsi, config, memo=memo)
        # Warm path raises straight from the cache marker.
        with pytest.raises(SpecializationError):
            run_workload(mipsi, config, memo=memo)

    def test_memo_dir_resolution(self):
        assert Settings.from_env({}).memo_dir == ".repro_memo"
        assert Settings.from_env({}, memo_dir="/x/y").memo_dir == "/x/y"
        env = {"REPRO_MEMO_DIR": "/from/env"}
        assert Settings.from_env(env).memo_dir == "/from/env"
        assert Settings.from_env(env, memo_dir="/x/y").memo_dir == "/x/y"


class TestParallel:
    def test_resolve_jobs(self):
        assert Settings.from_env({}).jobs == 1
        assert Settings.from_env({}, jobs=3).jobs == 3
        assert Settings.from_env({}, jobs=0).jobs == 0   # one per CPU
        assert Settings.from_env({"REPRO_JOBS": "4"}).jobs == 4
        with pytest.raises(ValueError, match="jobs"):
            Settings.from_env({}, jobs=-2)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            Settings.from_env({"REPRO_JOBS": "abc"})

    def test_pool_matches_serial(self, tmp_path):
        tasks = [(DOT.name, ALL_ON), (BINARY.name, ALL_ON)]
        serial = run_configs(tasks, jobs=1)
        pooled = run_configs(tasks, jobs=2,
                             memo=Memoizer(str(tmp_path)))
        for a, b in zip(serial, pooled):
            assert _result_fields(a) == _result_fields(b)

    def test_ablation_worker_fallback(self, tmp_path):
        memo = Memoizer(str(tmp_path))
        [(result, starred)] = run_ablations(
            [("mipsi", "static_loads")], jobs=1, memo=memo
        )
        assert starred is True
        assert not result.config.static_loads
        assert not result.config.complete_loop_unrolling

    def test_progress_callback(self):
        seen = []
        run_configs([(DOT.name, ALL_ON)], jobs=1,
                    progress=lambda name, cfg: seen.append(name))
        assert seen == [DOT.name]


class TestBackendResolution:
    def test_default_is_threaded(self):
        assert Settings.from_env({}).backend == "threaded"
        assert Settings.from_env({}, backend="reference").backend == \
            "reference"
        assert Settings.from_env({"REPRO_BACKEND": "reference"}
                                 ).backend == "reference"
        with pytest.raises(ValueError):
            Settings.from_env({}, backend="jit")
