"""Parameters, results, and error types for the pose-estimation pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from insertsim.geom import Pose, quat_normalize


def _identity_quat() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class RegistrationParams:
    """Tuning knobs for preprocessing, coarse RANSAC, and ICP refinement.

    `rho_icp` is a mean-squared-distance threshold in m^2; `rho_rot` gates
    hypothesis orientations against `q0` in radians. None of the thresholds
    are prescribed by theory; they are scene-scale engineering choices.
    """

    rho_icp: float = (5e-6) ** 2
    rho_rot: float = np.pi / 4
    q0: np.ndarray = field(default_factory=_identity_quat)
    voxel_size: float = 1e-4
    outlier_mean_k: int = 12
    outlier_std_ratio: float = 2.0
    ransac_iterations: int = 2000
    ransac_inlier_threshold: float = 2e-4
    icp_max_iterations: int = 60
    icp_max_correspondence_dist: float = 1e-3
    max_outer_loops: int = 10
    feature_radius: Optional[float] = None  # default: 5 * voxel_size

    def __post_init__(self):
        object.__setattr__(self, "q0", quat_normalize(self.q0))
        if self.rho_icp <= 0:
            raise ValueError("rho_icp must be positive")
        if not 0 < self.rho_rot <= np.pi:
            raise ValueError("rho_rot must be in (0, pi]")
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        for name in ("outlier_mean_k", "ransac_iterations", "icp_max_iterations", "max_outer_loops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.ransac_inlier_threshold <= 0 or self.icp_max_correspondence_dist <= 0:
            raise ValueError("distance thresholds must be positive")

    @property
    def effective_feature_radius(self) -> float:
        return self.feature_radius if self.feature_radius is not None else 5.0 * self.voxel_size


@dataclass(frozen=True)
class RegistrationResult:
    """Best pose found by the outer loop plus its diagnostics."""

    pose: Pose
    fitness: float
    outer_loops_used: int
    ransac_inlier_fraction: float
    fitness_history: tuple = ()  # best fitness after each outer loop

    def __post_init__(self):
        if self.fitness < 0:
            raise ValueError("fitness must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "position": [float(v) for v in self.pose.position],
            "orientation_wxyz": [float(v) for v in self.pose.orientation],
            "fitness": float(self.fitness),
            "outer_loops_used": int(self.outer_loops_used),
            "ransac_inlier_fraction": float(self.ransac_inlier_fraction),
            "fitness_history": [float(v) for v in self.fitness_history],
        }


class PreprocessingDegenerateError(ValueError):
    """Filtering removed every point."""


class DegenerateFeatureError(ValueError):
    """A point has too few neighbors inside the descriptor radius."""


class InsufficientCorrespondencesError(ValueError):
    """Fewer than three keypoints available for RANSAC."""


class DivergenceError(RuntimeError):
    """ICP found zero correspondences within the cutoff distance."""


class RegistrationFailedError(RuntimeError):
    """Outer loop exhausted without reaching rho_icp; carries the best so far."""

    def __init__(self, message: str, best: Optional[RegistrationResult]):
        super().__init__(message)
        self.best = best
