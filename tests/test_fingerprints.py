"""Golden fingerprints: the benchmark's trials keep their results bit for bit.

`fingerprints.json` holds `TrialResult.fingerprint()` of quality trials 0-2
of both corrected workloads and `open_loop` trials 0-49, all on seed 901,
with every float written as `float.hex`. They are compared exactly, so a
change that claims to keep every result (a speed-up, a refactor) is checked
on whole trials: scan, registration, planning, execution and the hole
check. A change that moves results on purpose re-pins the file with
`PYTHONPATH=src python tests/test_fingerprints.py` and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

SEED = 901
TRIALS = {"dense_corrected": 3, "sparse_fresh_ref": 3, "open_loop": 50}
GOLDEN = Path(__file__).with_name("fingerprints.json")


def encode(value):
    """A fingerprint as JSON: tuples become lists, floats their exact hex."""
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, float):  # np.float64 included
        return float.hex(value)
    return value


def fingerprints(name: str) -> list:
    bench = workloads.Bench(workloads.WORKLOADS[name], SEED)
    return [encode(bench.run_trial(trial).fingerprint()) for trial in range(TRIALS[name])]


@pytest.mark.parametrize("name", TRIALS)
def test_trials_keep_their_pinned_fingerprints(name):
    assert fingerprints(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: fingerprints(name) for name in TRIALS}, indent=1) + "\n")
