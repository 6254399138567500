"""Golden fingerprints: the benchmark's trials keep their results bit for bit.

`fingerprints.json` holds `TrialResult.fingerprint()` of quality trials 0-2
of both corrected workloads and `open_loop` trials 0-49, all on seed 901,
with every float written as `float.hex`. They are compared exactly, so a
change that claims to keep every result (a speed-up, a refactor) is checked
on whole trials: scan, registration, planning, execution and the hole
check. A change that moves results on purpose re-pins the file with
`PYTHONPATH=src python tests/test_fingerprints.py`, which first prints how
the new fingerprints differ from the pinned ones (`repin_report`), and says
so in CHANGES.md.
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


def _floats(entry) -> list:
    """The floats of one encoded fingerprint entry: a hex float or a list of them."""
    return [float.fromhex(v) for v in (entry if isinstance(entry, list) else [entry])]


def repin_report(pinned: dict, fresh: dict) -> list:
    """One line per workload of `fresh`: how many of its encoded fingerprints
    differ from `pinned`, every failure or success flip, and the largest
    |delta| of the margin, the estimate position and the estimate orientation
    over the trials that succeeded or failed alike, and without an error, on
    both sides."""
    lines = []
    for name, new in fresh.items():
        pairs = list(zip(pinned.get(name, []), new))
        changed = sum(old != now for old, now in pairs) + len(new) - len(pairs)
        flips = [f"trial {i} {field} {old[k]!r} -> {now[k]!r}"
                 for i, (old, now) in enumerate(pairs)
                 for k, field in ((0, "failure"), (1, "success")) if old[k] != now[k]]
        alike = [(old, now) for old, now in pairs if old[:2] == now[:2] and not old[0]]
        largest = [max((abs(a - b) for old, now in alike
                        for a, b in zip(_floats(old[k]), _floats(now[k]))), default=0.0)
                   for k in (2, 3, 4)]  # margin, estimate position, estimate orientation
        lines.append(f"{name}: {changed} of {len(new)} fingerprints changed; "
                     f"flips: {', '.join(flips) or 'none'}; max |delta| margin {largest[0]:.3g} m, "
                     f"position {largest[1]:.3g} m, orientation {largest[2]:.3g}")
    return lines


@pytest.mark.parametrize("name", TRIALS)
def test_trials_keep_their_pinned_fingerprints(name):
    assert fingerprints(name) == json.loads(GOLDEN.read_text())[name]


def test_the_repin_report_counts_changes_flips_and_the_largest_delta():
    trials = json.loads(GOLDEN.read_text())["open_loop"][:3]
    assert repin_report({"open_loop": trials}, {"open_loop": trials}) == [
        "open_loop: 0 of 3 fingerprints changed; flips: none; "
        "max |delta| margin 0 m, position 0 m, orientation 0"]
    moved = json.loads(json.dumps(trials))
    moved[0][2] = float.hex(float.fromhex(moved[0][2]) + 2.0 ** -60)
    moved[1][1] = not moved[1][1]
    moved[2][3][1] = float.hex(float.fromhex(moved[2][3][1]) + 2.0 ** -30)
    flip = f"trial 1 success {trials[1][1]!r} -> {moved[1][1]!r}"
    assert repin_report({"open_loop": trials}, {"open_loop": moved}) == [
        f"open_loop: 3 of 3 fingerprints changed; flips: {flip}; "
        f"max |delta| margin {2.0 ** -60:.3g} m, position {2.0 ** -30:.3g} m, orientation 0"]


if __name__ == "__main__":
    fresh = {name: fingerprints(name) for name in TRIALS}
    print("\n".join(repin_report(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, fresh)))
    GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
