"""Parameters, results, and error types for the pose-estimation pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from insertsim.geom import Pose, quat_distance, quat_normalize


def _identity_quat() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class RegistrationParams:
    """The orientation prior of a registration: hypotheses and results must
    lie within `rho_rot` radians of `q0`. Every distance threshold is a
    property of the scan and is derived from its pitch (`pipeline`)."""

    rho_rot: float = np.pi / 4
    q0: np.ndarray = field(default_factory=_identity_quat)

    def __post_init__(self):
        object.__setattr__(self, "q0", quat_normalize(self.q0))
        if not 0 < self.rho_rot <= np.pi:
            raise ValueError("rho_rot must be in (0, pi]")

    def in_orientation_gate(self, q) -> bool:
        """Whether orientation `q` lies within rho_rot of q0."""
        return quat_distance(q, self.q0) < self.rho_rot


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
