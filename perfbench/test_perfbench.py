"""The benchmark's own tests, at smoke sizing (seconds, not minutes).

    python3 -m pytest perfbench -q

Smoke runs shrink the grid to three cheap programs so that a sweep
pass, the zipf warm-up and the churn epoch each take about a second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import client
import compare
import grid
import run
import spans

SMOKE_PROGRAMS = ("mipsi", "dotproduct", "romberg")


def benchmark_spec() -> dict:
    with open(os.path.join(grid.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Shrink the grid and keep every output under ``tmp_path``."""
    monkeypatch.setattr(grid, "PROGRAMS", SMOKE_PROGRAMS)
    monkeypatch.setattr(grid, "COLD_ORDER", SMOKE_PROGRAMS)
    monkeypatch.setattr(grid, "GRID", tuple(
        pair for pair in grid.GRID
        if pair.split("/")[0] in SMOKE_PROGRAMS
        and pair not in grid.BUDGET_OVERRUNS)[::4])
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def bench(capsys, workload: str, trace: int, seconds: float = 2.0):
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", str(seconds), "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_present_with_unit(smoke, capsys, workload,
                                              trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in spec}
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_tampered_oracle_fingerprint_trips_failed_share(smoke, capsys,
                                                        monkeypatch):
    pairs = grid.load_oracle()
    tampered = dict(pairs)
    victim = grid.GRID[0]
    tampered[victim] = dict(pairs[victim], fingerprint="0" * 64)
    path = smoke / "oracle.json"
    path.write_text(json.dumps({"pairs": tampered}))
    monkeypatch.setattr(grid, "ORACLE_PATH", str(path))
    code, result = bench(capsys, "harness_sweep", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_unexpected_5xx_counts_as_failed():
    tally = run.Tally(grid.load_oracle())
    pair = "dotproduct/ALL_ON"
    body = {"echo": "e1", "error": {"code": "internal_error",
                                    "message": "boom"}}
    sample = client.Sample(echo="e1", pair=pair, due=0.0, sent=0.0,
                           done=0.001, status=500, body=body)
    assert tally.check_sample(sample) is False
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.reasons == {"status 500": 1}


def test_lost_echo_counts_as_failed():
    tally = run.Tally(grid.load_oracle())
    pair = "dotproduct/ALL_ON"
    good = dict(tally.oracle[pair])
    body = {"echo": "someone-else", **good}
    sample = client.Sample(echo="mine", pair=pair, due=0.0, sent=0.0,
                           done=0.001, status=200, body=body)
    assert tally.check_sample(sample) is False
    assert tally.reasons == {"lost echo": 1}


def test_expected_budget_overrun_422_passes():
    tally = run.Tally(grid.load_oracle())
    pair = grid.BUDGET_OVERRUNS[0]
    expected = tally.oracle[pair]
    assert expected["status"] == 422
    assert tally.check(pair, dict(expected)) is True
    assert tally.failed == 0


def test_oracle_covers_the_grid():
    pairs = grid.load_oracle()
    assert set(pairs) == set(grid.GRID) and len(grid.GRID) == 100
    overruns = {pair for pair, outcome in pairs.items()
                if outcome["status"] != 200}
    assert overruns == set(grid.BUDGET_OVERRUNS)


def test_schedules_are_seeded():
    _, first, _ = run.zipf_schedule(3, 12.0)
    _, again, _ = run.zipf_schedule(3, 12.0)
    _, other, _ = run.zipf_schedule(4, 12.0)
    assert first == again and first != other
    churn = run.churn_keys(3)
    assert [next(churn)[1] for _ in range(40)] == \
        [key[1] for key, _ in zip(run.churn_keys(3), range(40))]


def test_nominal_rung_misses_every_program_equally():
    spec = benchmark_spec()
    hot, schedule, rungs = run.zipf_schedule(5, spec["run_seconds"])
    _rate, start, end = rungs[run.ZIPF_NOMINAL]
    cold = [(tenant, pair) for offset, _echo, tenant, pair in schedule
            if start <= offset < end and (tenant, pair) not in hot]
    programs = sorted(pair.split("/")[0] for _, pair in cold)
    assert len(cold) >= len(grid.PROGRAMS)
    assert programs == sorted(grid.PROGRAMS * (len(cold)
                                               // len(grid.PROGRAMS)))
    assert len({tenant for tenant, _ in cold}) == len(cold)


def test_self_time_subtracts_children():
    trace = [
        ("outer", 1, 1, None, 0, 100, None),
        ("child", 1, 2, 1, 10, 30, None),
        ("child", 1, 3, 1, 20, 50, None),   # overlaps the first child
        ("other", 1, 4, None, 0, 10, None),
    ]
    own = spans.self_times(trace)
    assert own == {1: 60, 2: 20, 3: 30, 4: 10}


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    assert compare.verdict(lower, 100.0, 115.0) == "worse"
    assert compare.verdict(lower, 100.0, 105.0) == "same"
    assert compare.verdict(higher, 100.0, 85.0) == "worse"
    assert compare.verdict(higher, 100.0, 120.0) == "better"


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero and
    print no result."""
    shutil.copy(os.path.join(grid.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(grid.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
