"""Closed-loop trial runner: set-up, warm-up, timed trials, output checks, metrics.

One process runs one trial at a time. With tracing off it reports the
end-to-end metrics. With tracing on, every timed trial runs twice on the same
inputs, untraced and then traced; the pair gives the tracing overhead and the
traced run gives the per-layer metrics. Quality numbers come from the fixed
trial panel 0..quality_trials-1, so they depend only on the seed.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import workloads
from spans import Probe, Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0        # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPS = 200
PROBE_EVERY_S = 0.25

# (name, unit, better); the same lists are in BENCHMARK.json
END_TO_END = (
    ("trial_s_p50", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
QUALITY = (
    ("success_rate", "ratio", "higher"),
    ("margin_um_p50", "um", "higher"),
    ("pose_err_um_p50", "um", "lower"),
    ("pose_err_mrad_p50", "mrad", "lower"),
    ("failed_share", "ratio", "lower"),
)
LAYERS = (
    ("scansim.sweep_s", "s", "lower"),
    ("scansim.points", "count", "higher"),
    ("scansim.hit_ratio", "ratio", "higher"),
    ("preprocess.sor_s", "s", "lower"),
    ("preprocess.voxel_s", "s", "lower"),
    ("preprocess.sor_kept_ratio", "ratio", "higher"),
    ("preprocess.points_out", "count", "lower"),
    ("features.fpfh_s", "s", "lower"),
    ("features.keypoints", "count", "lower"),
    ("features.normals_calls", "count", "lower"),
    ("ransac.s", "s", "lower"),
    ("ransac.calls", "count", "lower"),
    ("ransac.inlier_fraction_p50", "ratio", "higher"),
    ("icp.s", "s", "lower"),
    ("icp.iterations_p50", "count", "lower"),
    ("icp.diverged", "count", "lower"),
    ("pipeline.estimate_pose_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.outer_loops_p50", "count", "lower"),
    ("pipeline.converged_rate", "ratio", "higher"),
    ("pipeline.prepare_ref_s", "s", "lower"),
    ("insertion.plan_s", "s", "lower"),
    ("insertion.execute_s", "s", "lower"),
    ("insertion.check_s", "s", "lower"),
    ("arm.ik_s", "s", "lower"),
    ("arm.ik_calls", "count", "lower"),
    ("arm.fk_per_ik", "count", "lower"),
    ("arm.ik_failed", "count", "lower"),
    ("trace.trial_self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
PER_LAYER = LAYERS + QUALITY


def _sweep_attrs(a, result, error):
    if result is None:
        return {}
    rays = len(a["trajectory"]) * len(a["cfg"].lateral_positions())
    return {"points": len(result), "rays": rays}


def _estimate_attrs(a, result, error):
    best = result if result is not None else getattr(error, "best", None)
    return {"loops": best.outer_loops_used} if best is not None else {}


PROBES = (
    Probe("insertsim.scansim.scanner", "sweep_scan", "scansim.sweep", _sweep_attrs),
    Probe("insertsim.registration.pipeline", "prepare_cloud", "pipeline.prepare"),
    Probe("insertsim.registration.pipeline", "estimate_pose", "pipeline.estimate_pose",
          _estimate_attrs),
    Probe("insertsim.registration.preprocess", "statistical_outlier_removal", "preprocess.sor",
          lambda a, r, e: {"in": len(a["cloud"]), "out": len(r)} if r is not None else {}),
    Probe("insertsim.registration.preprocess", "voxel_downsample", "preprocess.voxel",
          lambda a, r, e: {"out": len(r)} if r is not None else {}),
    Probe("insertsim.registration.pipeline", "compute_features", "features.fpfh",
          lambda a, r, e: {"keypoints": len(r)} if r is not None else {}),
    Probe("insertsim.registration.features", "estimate_normals", "features.normals"),
    Probe("insertsim.registration.pipeline", "ransac_register", "ransac",
          lambda a, r, e: {"inlier_fraction": r.inlier_fraction} if r is not None else {}),
    Probe("insertsim.registration.pipeline", "icp_refine", "icp",
          lambda a, r, e: {"iterations": r.iterations} if r is not None else {}),
    Probe("insertsim.insertion", "plan_relative_trajectory", "insertion.plan"),
    Probe("insertsim.insertion", "execute_insertion", "insertion.execute"),
    Probe("insertsim.insertion", "check_insertion", "insertion.check"),
    Probe("insertsim.insertion", "ik", "arm.ik"),
    Probe("insertsim.arm.ik", "fk", "arm.fk"),
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def quality(results) -> dict:
    done = [r for r in results if not r.failure]
    n = len(results)

    def med(values):
        return _median(values) if done else None

    return {
        "success_rate": sum(r.success for r in results) / n,
        "margin_um_p50": med(r.margin * 1e6 for r in done),
        "pose_err_um_p50": med(r.pose_err_m * 1e6 for r in done),
        "pose_err_mrad_p50": med(r.pose_err_rad * 1e3 for r in done),
        "failed_share": (n - len(done)) / n,
    }


def layer_metrics(spans, overhead_pct: float) -> dict:
    """Per-layer figures from the spans: `_s` and counts per trial, `_p50` per call."""
    selfs = self_times(spans)
    trial_roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.name == "trial"]
    per_trial = defaultdict(lambda: defaultdict(float))   # trial -> key -> value
    calls = defaultdict(list)                              # span name -> spans
    for i, s in enumerate(spans):
        calls[s.name].append(s)
        if s.parent < 0 or s.trial < 0:
            continue
        t = per_trial[s.trial]
        t[s.name + ":s"] += s.duration
        t[s.name + ":n"] += 1
        t[s.name + ":self"] += selfs[i]
        if s.error:
            t[s.name + ":err"] += 1

    def per(key):
        return _median(per_trial[spans[i].trial][key] for i in trial_roots)

    def avg(key):
        return _mean(per_trial[spans[i].trial][key] for i in trial_roots)

    def attr(name, key):
        return [s.attrs[key] for s in calls[name] if key in s.attrs]

    sweeps = [s.attrs for s in calls["scansim.sweep"] if s.attrs]
    sors = [s.attrs for s in calls["preprocess.sor"] if s.attrs]
    estimates = calls["pipeline.estimate_pose"]
    # prepare_cloud called by the benchmark itself prepares the reference
    ref_prep = [s.duration for s in calls["pipeline.prepare"]
                if s.parent >= 0 and spans[s.parent].parent < 0]
    n_ik = len(calls["arm.ik"])
    return {
        "scansim.sweep_s": per("scansim.sweep:s"),
        "scansim.points": _median(a["points"] for a in sweeps),
        "scansim.hit_ratio": _median(a["points"] / a["rays"] for a in sweeps),
        "preprocess.sor_s": per("preprocess.sor:s"),
        "preprocess.voxel_s": per("preprocess.voxel:s"),
        "preprocess.sor_kept_ratio": _median(a["out"] / a["in"] for a in sors),
        "preprocess.points_out": _median(attr("preprocess.voxel", "out")),
        "features.fpfh_s": per("features.fpfh:s"),
        "features.keypoints": _median(attr("features.fpfh", "keypoints")),
        "features.normals_calls": avg("features.normals:n"),
        "ransac.s": per("ransac:s"),
        "ransac.calls": avg("ransac:n"),
        "ransac.inlier_fraction_p50": _median(attr("ransac", "inlier_fraction")),
        "icp.s": per("icp:s"),
        "icp.iterations_p50": _median(attr("icp", "iterations")),
        "icp.diverged": avg("icp:err"),
        "pipeline.estimate_pose_s": per("pipeline.estimate_pose:s"),
        "pipeline.self_s": per("pipeline.estimate_pose:self"),
        "pipeline.outer_loops_p50": _median(attr("pipeline.estimate_pose", "loops")),
        "pipeline.converged_rate": _mean(0.0 if s.error else 1.0 for s in estimates),
        "pipeline.prepare_ref_s": _median(ref_prep),
        "insertion.plan_s": per("insertion.plan:s"),
        "insertion.execute_s": per("insertion.execute:s"),
        "insertion.check_s": per("insertion.check:s"),
        "arm.ik_s": per("arm.ik:s"),
        "arm.ik_calls": avg("arm.ik:n"),
        "arm.fk_per_ik": len(calls["arm.fk"]) / n_ik if n_ik else 0.0,
        "arm.ik_failed": avg("arm.ik:err"),
        "trace.trial_self_s": _median(selfs[i] for i in trial_roots),
        "trace.overhead_pct": overhead_pct,
    }


def _blas_threads() -> dict:
    """Thread count of every bundled OpenBLAS that numpy and scipy load."""
    site = Path(np.__file__).resolve().parents[1]
    out = {}
    for path in sorted(glob.glob(str(site / "*.libs" / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                out[Path(path).name] = int(getattr(lib, fn)())
                break
    return out


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


class SpeedProbe:
    """Fixed work, timed between trials to follow the speed of the host.

    The work runs no insertsim code, so a program change cannot move it; it
    moves only with the host. On a shared 2-vCPU host, trial times drifted by
    up to 2x within a minute, and different kinds of work slowed by different
    amounts. So each workload uses the kind of probe that followed its trial
    time best: "arm" (pinv/inv of 6x7 matrices from a Python loop, like IK)
    or "cloud" (KD-tree build and kNN query, row unique, sort, like point
    cloud conditioning and registration). `reference_s` is the probe's time
    on an uncontended 2-vCPU x86-64 VM; scaled times are at that speed.
    """

    REFERENCE_S = {"arm": 1.5e-3, "cloud": 15e-3}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.reference_s = self.REFERENCE_S[kind]
        self._work = getattr(self, "_" + kind)
        self._mats = rng.random((40, 6, 7))
        self._points = rng.random((3000, 3))
        self._keys = rng.integers(0, 40, size=(10000, 3))
        self._values = rng.random(100000)

    def _arm(self) -> None:
        eye = np.eye(6)
        for m in self._mats:
            np.linalg.pinv(m)
            np.linalg.inv(m @ m.T + eye)

    def _cloud(self) -> None:
        cKDTree(self._points).query(self._points, k=8)
        np.unique(self._keys, axis=0)
        np.sort(self._values)

    def __call__(self) -> float:
        """Seconds for one batch of the work, best of three."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


class ScaledTimer:
    """Times calls and rescales each to the reference host speed of a SpeedProbe.

    The probe runs before the first call and again once PROBE_EVERY_S of
    calls have passed; the calls in between are scaled by the mean of the two
    probes around them. `raw` keeps the plain wall times.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.raw, self.scaled, self.probes = [], [], [probe()]
        self._pending = []
        self._since = time.perf_counter()

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - t0)
        self._pending.append(self.raw[-1])
        if time.perf_counter() - self._since >= PROBE_EVERY_S:
            self.flush()
        return result

    def flush(self) -> None:
        if not self._pending:
            return
        self.probes.append(self.probe())
        factor = self.probe.reference_s / statistics.fmean(self.probes[-2:])
        self.scaled.extend(dt * factor for dt in self._pending)
        self._pending.clear()
        self._since = time.perf_counter()


def run(workload, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """One benchmark run; raises workloads.OutputCheckError if any output check fails."""
    tracer = Tracer(PROBES) if trace else None
    bench = None
    if tracer is not None:
        with tracer.installed(), tracer.root("setup", -1):
            bench = workloads.Bench(workload, seed)
    probe = SpeedProbe(workload.speed_probe)
    setup = ScaledTimer(probe)
    while len(setup.raw) < SETUP_MIN_REPS or \
            (sum(setup.raw) < SETUP_MIN_S and len(setup.raw) < SETUP_MAX_REPS):
        b = setup(workloads.Bench, workload, seed)
        bench = bench or b
    setup.flush()

    results = [bench.run_trial(0)]          # warm-up, not timed
    timer, overhead = ScaledTimer(probe), []
    start = time.perf_counter()
    while len(results) < workload.quality_trials or time.perf_counter() - start < seconds:
        trial = len(results)
        results.append(timer(bench.run_trial, trial))
        if tracer is not None:
            t0 = time.perf_counter()
            with tracer.installed(), tracer.root("trial", trial):
                traced = bench.run_trial(trial)
            overhead.append(((time.perf_counter() - t0) / timer.raw[-1] - 1.0) * 100.0)
            if traced.fingerprint() != results[-1].fingerprint():
                raise workloads.OutputCheckError(
                    f"trial {trial}: traced run differs from untraced run")
    timer.flush()
    if bench.run_trial(0).fingerprint() != results[0].fingerprint():
        raise workloads.OutputCheckError("replay of trial 0 is not bit-identical")

    report = {
        "workload": workload.name,
        "seed": seed,
        "trials_timed": len(timer.raw),
        "setup_reps": len(setup.raw),
        "raw_trial_s_p50": statistics.median(timer.raw),
        "raw_setup_s": statistics.median(setup.raw),
        "speed_probe_s_p50": statistics.median(timer.probes),
        "quality_trials": workload.quality_trials,
        "quality": quality(results[:workload.quality_trials]),
        "failures": sorted({r.failure for r in results if r.failure}),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
    }
    if len(timer.scaled) >= 100:
        report["trial_s_p90"] = statistics.quantiles(timer.scaled, n=10)[-1]
    if tracer is None:
        values = {
            "trial_s_p50": statistics.median(timer.scaled),
            "trials_per_s": len(timer.scaled) / sum(timer.scaled),
            "setup_s": statistics.median(setup.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = END_TO_END
    else:
        values = {**layer_metrics(tracer.spans, statistics.median(overhead)), **report["quality"]}
        table = PER_LAYER
        if spans_path is not None:
            write_spans(spans_path, tracer.spans, report)
    report["metrics"] = {name: {"value": values[name], "unit": unit, "better": better}
                         for name, unit, better in table}
    return report


def write_spans(path: Path, spans, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "environment": environment(),
        "workload": report["workload"],
        "seed": report["seed"],
        "columns": ["name", "trial", "parent", "start", "end", "error", "attrs"],
        "spans": [s.to_json() for s in spans],
    }
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))


def result_line(report: dict, correct: bool) -> str:
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    return json.dumps({"correct": correct, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})
