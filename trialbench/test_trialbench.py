"""Self-tests of the insertion-trial benchmark, at tiny scale."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from insertsim.scansim import ScannerConfig

import harness
import workloads
from spans import Probe, Tracer

ROOT = Path(__file__).resolve().parents[1]

TINY_OPEN = workloads.Workload("tiny_open", corrected=False, quality_trials=3)
# 62 columns x 30 profiles: enough points for FPFH at the default radius
TINY_SCAN = workloads.Workload(
    "tiny_scan", corrected=True,
    scanner=ScannerConfig(points_per_profile=256, lateral_resolution=96e-6),
    sweep_step=200e-6, profiles=35, quality_trials=2)
# 400 um grid: no point has 5 neighbours inside the 500 um feature radius
TOO_SPARSE = workloads.Workload(
    "too_sparse", corrected=True,
    scanner=ScannerConfig(points_per_profile=64, lateral_resolution=400e-6),
    sweep_step=400e-6, profiles=18, fresh_reference=True, quality_trials=2)


def _declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(harness.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_unit_and_direction(trace):
    report = harness.run(TINY_OPEN, seed=3, seconds=0.0, trace=trace)
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(report["metrics"]) == [name for name, _, _ in table]
    for name, unit, better in table:
        assert (report["metrics"][name]["unit"], report["metrics"][name]["better"]) == \
            (unit, better)
    line = json.loads(harness.result_line(report, correct=True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= TINY_OPEN.quality_trials
    for name, unit, _ in table:
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)


def test_same_seed_gives_identical_quality():
    first = [workloads.Bench(TINY_SCAN, seed=7).run_trial(i) for i in range(2)]
    second = [workloads.Bench(TINY_SCAN, seed=7).run_trial(i) for i in range(2)]
    assert [r.fingerprint() for r in first] == [r.fingerprint() for r in second]
    assert harness.quality(first) == harness.quality(second)
    assert all(not r.failure and r.scan_points > 0 for r in first)


def test_too_sparse_scan_lands_in_failed_share():
    report = harness.run(TOO_SPARSE, seed=1, seconds=0.0, trace=False)
    assert report["failed"] == report["attempted"]
    assert report["quality"]["failed_share"] == 1.0
    assert report["quality"]["success_rate"] == 0.0
    assert report["failures"] == ["DegenerateFeatureError"]


def test_tracer_restores_originals_and_rejects_missing_names():
    module = importlib.import_module("insertsim.arm.ik")
    original = module.fk
    tracer = Tracer(harness.PROBES)
    with tracer.installed():
        assert module.fk is not original
    assert module.fk is original
    with pytest.raises(AttributeError, match="missing"):
        with Tracer([Probe("insertsim.arm.ik", "no_such_function", "x")]).installed():
            pass
    assert module.fk is original


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "trialbench", tmp_path / "trialbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "trialbench/run.py", "--workload", "open_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
