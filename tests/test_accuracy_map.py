"""Registration accuracy against the pose's phase on the raster (ROADMAP item 16).

The scan seed barely moves the registration error: the outline's in-plane
shape is the hit mask, which depends on the plate's pose alone (ROADMAP
finding 9). So the map varies the pose and keeps the noise fixed. The plate
sits at a sub-cell offset (i/4 ds, j/4 dl) of the scanner's (ds, dl) raster
pitch and at a yaw in YAWS_DEG; it is scanned without calibration error at
noise seed 3 and registered at RANSAC seed 11 against the benchmark's
reference (`Bench._prepare_reference`).

Tier-1 runs the full sparse map and a dense slice. Their largest errors are
today's baseline, a floor that a better fine step (ROADMAP items 2, 13 and
14) lowers. On the dense map of all 16 offsets at the non-negative yaws (112
poses, ~22 s) the errors read p50 2.00 um / 0.81 mrad and max 11.83 um /
6.14 mrad, with no gate miss.
"""

import sys
from pathlib import Path

import numpy as np

from insertsim.geom import Pose, quat_from_axis_angle
from insertsim.registration import estimate_pose
from insertsim.scansim import CalibrationError, Scene, ScenePart, sweep_scan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

YAWS_DEG = (-10.0, -5.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0)
QUARTERS = [(i, j) for i in range(4) for j in range(4)]
SCAN_SEED = 3
RANSAC_SEED = 11


def accuracy_map(name: str, quarters: list, yaws_deg: tuple) -> tuple:
    """Position (m) and rotation (rad) errors of every registration of the
    map of workload `name`; a gate miss raises RegistrationFailedError."""
    w = workloads.WORKLOADS[name]
    ref = workloads.Bench(w, 0)._prepare_reference(workloads.HOLE_CENTER)
    ds, dl = w.scanner.lateral_resolution, w.sweep_step
    position, rotation = [], []
    for i, j in quarters:
        for yaw in yaws_deg:
            true = Pose(np.array([i / 4 * ds, j / 4 * dl, 0.0]),
                        quat_from_axis_angle([0, 0, 1], np.deg2rad(yaw)))
            scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER), true)])
            scan = sweep_scan(scene, w.sweep(), w.scanner, CalibrationError.none(), SCAN_SEED)
            pose = estimate_pose(scan, ref.keypoints, workloads.PARAMS, RANSAC_SEED,
                                 ref_prepared=ref).pose
            position.append(pose.translation_to(true))
            rotation.append(pose.rotation_to(true))
    return np.array(position), np.array(rotation)


def test_the_sparse_map_registers_within_its_baseline():
    """All 208 poses pass the gate. Today: p50 12.24 um / 7.73 mrad, p90
    36.03 um / 13.93 mrad, max 51.34 um / 24.18 mrad."""
    position, rotation = accuracy_map("sparse_fresh_ref", QUARTERS, YAWS_DEG)
    assert position.max() <= 51.4e-6
    assert rotation.max() <= 24.2e-3


def test_a_dense_slice_of_the_map_registers_within_its_baseline():
    """Offsets i, j in {0, 2} at 0, 2 and 10 degrees: all 12 poses pass the
    gate. Today: p50 0.22 um / 0.31 mrad, max 9.15 um / 3.86 mrad."""
    position, rotation = accuracy_map("dense_corrected", [(i, j) for i in (0, 2) for j in (0, 2)],
                                      (0.0, 2.0, 10.0))
    assert position.max() <= 9.2e-6
    assert rotation.max() <= 3.9e-3
