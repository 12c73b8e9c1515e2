"""The BENCH_interp.json schema-2 report: one column per backend, stats
and results checksums, geomean summary, and the --compare diff used by CI to
assert the committed report still describes this tree."""

import copy
import json

import pytest

from repro.evalharness.bench import (
    BENCH_COLUMNS,
    SPEEDUP_COLUMNS,
    compare_reports,
    load_bench,
    run_bench,
    write_bench,
)
from repro.workloads import WORKLOADS_BY_NAME


@pytest.fixture(scope="module")
def report():
    workloads = [WORKLOADS_BY_NAME["dotproduct"],
                 WORKLOADS_BY_NAME["dinero"]]
    return run_bench(workloads=workloads, repeat=1)


class TestSchema:
    def test_layout(self, report):
        assert report["schema"] == 2
        assert report["columns"] == [n for n, _ in BENCH_COLUMNS]
        assert set(report["workloads"]) == {"dotproduct", "dinero"}
        for entry in report["workloads"].values():
            for name, _ in BENCH_COLUMNS:
                assert entry[f"{name}_seconds"] > 0
            for name in SPEEDUP_COLUMNS:
                assert entry[f"{name}_speedup"] > 0

    def test_counted_columns_checksum_identical(self, report):
        for key in ("stats_checksum", "results_checksum"):
            checksums = {
                report["backends"][c][key] for c in report["columns"]
            }
            assert len(checksums) == 1
        assert report["checksums_match"]
        assert report["results_match"]

    def test_geomean_summary(self, report):
        assert set(report["geomean"]) == set(SPEEDUP_COLUMNS)
        for value in report["geomean"].values():
            assert value > 0

    def test_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(report, str(path))
        loaded = load_bench(str(path))
        assert loaded == json.loads(json.dumps(report))


class TestCompare:
    def test_identical_reports_agree(self, report):
        lines, ok = compare_reports(report, copy.deepcopy(report))
        assert ok
        assert lines == ["reports agree"]

    def test_stats_checksum_drift_fails(self, report):
        tampered = copy.deepcopy(report)
        tampered["backends"]["threaded"]["stats_checksum"] = "0" * 64
        lines, ok = compare_reports(tampered, report)
        assert not ok
        assert any("stats_checksum" in line for line in lines)

    def test_schema_mismatch_fails(self, report):
        old = copy.deepcopy(report)
        old["schema"] = 1
        lines, ok = compare_reports(old, report)
        assert not ok
        assert any("schema" in line for line in lines)

    def test_workload_set_drift_fails(self, report):
        shrunk = copy.deepcopy(report)
        del shrunk["workloads"]["dinero"]
        lines, ok = compare_reports(shrunk, report)
        assert not ok
        assert any("dinero" in line for line in lines)

    def test_wall_clock_drift_is_informational(self, report):
        drifted = copy.deepcopy(report)
        for column in SPEEDUP_COLUMNS:
            drifted["geomean"][column] = \
                round(drifted["geomean"][column] * 2, 3)
        lines, ok = compare_reports(report, drifted)
        assert ok
        assert any("informational" in line for line in lines)

    def test_internal_divergence_in_fresh_run_fails(self, report):
        broken = copy.deepcopy(report)
        broken["checksums_match"] = False
        lines, ok = compare_reports(report, broken)
        assert not ok
