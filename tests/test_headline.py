"""The paper's headline claim, end to end on scanner output: scan-corrected
insertion succeeds where open-loop execution fails.

The trials are the benchmark's own (`trialbench/workloads.py`): the corrected
loop scans the plate at the `sparse_fresh_ref` resolution (512 columns at
48 um, 70 profiles 100 um apart) against a reference prepared once, and the
open-loop loop is the `open_loop` workload. Both draw the same yaw, offset
and arm error in trial k of a seed, so the two loops are compared on paired
trials. The plate pose comes from registering the scan's outline; the tip
the corrected trajectory starts from is still the oracle pose
cal^-1 * arm.actual (ROADMAP finding 4) until ROADMAP item 2 measures it.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

SEEDS = (901, 905)
TRIALS = 6
MIN_CORRECTED_SUCCESSES = 5  # of TRIALS per seed: ROADMAP item 1's acceptance bar

CORRECTED = dataclasses.replace(workloads.WORKLOADS["sparse_fresh_ref"], name="headline_corrected",
                                fresh_reference=False, hole_range=0.0)
OPEN_LOOP = workloads.WORKLOADS["open_loop"]


def successes(workload: workloads.Workload, seed: int) -> int:
    bench = workloads.Bench(workload, seed)
    return sum(bench.run_trial(trial).success for trial in range(TRIALS))


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_corrected_insertion_beats_open_loop(seed):
    corrected = successes(CORRECTED, seed)
    open_loop = successes(OPEN_LOOP, seed)
    assert corrected >= MIN_CORRECTED_SUCCESSES and corrected > open_loop, \
        f"seed {seed}: corrected {corrected}/{TRIALS}, open loop {open_loop}/{TRIALS}"
