"""Parameters, results, and error types for the pose-estimation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insertsim.geom import Pose, quat_distance

# Each reference is scanned in the frame of the part it matches, so the
# relative rotation to expect is the identity; hypotheses and results must
# lie within RHO_ROT of it (a flipped match of a near-symmetric part does not).
RHO_ROT = np.pi / 4
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_IDENTITY.flags.writeable = False


def in_orientation_gate(q) -> bool:
    """Whether orientation `q` lies within RHO_ROT of the identity."""
    return quat_distance(q, _IDENTITY) < RHO_ROT


class RegistrationParams:
    """The orientation prior as attributes: `rho_rot` (RHO_ROT) about the
    read-only identity `q0`. Nothing is settable: the prior is fixed by how
    references are scanned, and every distance threshold is derived from the
    scan's pitch (`pipeline`). The class stays only because the benchmark
    builds one, passes it to `prepare_cloud` and `estimate_pose`, and reads
    both attributes."""

    rho_rot = RHO_ROT
    q0 = _IDENTITY


@dataclass(frozen=True)
class RegistrationResult:
    """The refined pose of one registration pass plus its diagnostics."""

    pose: Pose
    fitness: float
    ransac_inlier_fraction: float

    def __post_init__(self):
        if self.fitness < 0:
            raise ValueError("fitness must be >= 0")

    @property
    def outer_loops_used(self) -> int:
        """1, as estimate_pose makes one pass. Kept only because the benchmark's
        `trialbench/harness.py::_estimate_attrs` reads it; the next benchmark
        change drops it, together with `FeatureCloud.fine`."""
        return 1

    def to_json_dict(self) -> dict:
        return {
            "position": [float(v) for v in self.pose.position],
            "orientation_wxyz": [float(v) for v in self.pose.orientation],
            "fitness": float(self.fitness),
            "ransac_inlier_fraction": float(self.ransac_inlier_fraction),
        }


class DegenerateFeatureError(ValueError):
    """A point has too few neighbors inside the descriptor radius."""


class InsufficientCorrespondencesError(ValueError):
    """Fewer than three keypoints available for RANSAC."""


class DivergenceError(RuntimeError):
    """ICP found zero correspondences within the cutoff distance."""


class RegistrationFailedError(RuntimeError):
    """estimate_pose's one pass scored no RANSAC hypothesis or missed the gate
    or rho_icp. `best` is the refined result if only its fitness missed, else None."""

    def __init__(self, message: str, best: RegistrationResult | None):
        super().__init__(message)
        self.best = best
