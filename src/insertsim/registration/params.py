"""Parameters, results, and error types for the pose-estimation pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

    The four fields that default to None are derived when left None, and a
    value a caller passes is used as given. `resolved(pitch)` fills them.
    On a cloud with a raster shape, `pitch` is (ds, dl), the median point
    spacing along profiles and across them (`preprocess.raster_pitch`), and
    with d = max(ds, dl):

      - `rho_icp`: ds^2 + dl^2, 12x the mean squared offset from its cell's
        centre of a point placed uniformly in a ds x dl cell;
      - `ransac_inlier_threshold`: 4 d;
      - `icp_max_correspondence_dist`: 12 d;
      - `feature_radius`: 5 * voxel_size + d.

    On a cloud without one (`pitch` None) they take the whole-cloud values
    (5 um)^2, 200 um, 1 mm and 5 * voxel_size. `ransac_register` and
    `icp_refine` read their fields as given, so they take resolved params.
    """

    rho_icp: Optional[float] = None
    rho_rot: float = np.pi / 4
    q0: np.ndarray = field(default_factory=_identity_quat)
    voxel_size: float = 1e-4
    outlier_mean_k: int = 12
    outlier_std_ratio: float = 2.0
    ransac_iterations: int = 2000
    ransac_inlier_threshold: Optional[float] = None
    icp_max_iterations: int = 60
    icp_max_correspondence_dist: Optional[float] = None
    max_outer_loops: int = 10
    feature_radius: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "q0", quat_normalize(self.q0))
        if not 0 < self.voxel_size < np.inf:
            raise ValueError("voxel_size must be positive and finite")
        for name in _DERIVED:
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.rho_rot <= np.pi:
            raise ValueError("rho_rot must be in (0, pi]")
        if np.isnan(self.outlier_std_ratio):
            raise ValueError("outlier_std_ratio must not be NaN")
        for name in ("outlier_mean_k", "ransac_iterations", "icp_max_iterations", "max_outer_loops"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")

    def resolved(self, pitch: Optional[tuple]) -> "RegistrationParams":
        """These params with every None field derived (class docstring) for
        a raster of the given (ds, dl) pitch, or for a cloud without one."""
        if pitch is None:
            derived = ((5e-6) ** 2, 2e-4, 1e-3, 5.0 * self.voxel_size)
        else:
            ds, dl = pitch
            d = max(ds, dl)
            derived = (ds * ds + dl * dl, 4.0 * d, 12.0 * d, 5.0 * self.voxel_size + d)
        return replace(self, **{name: value for name, value in zip(_DERIVED, derived)
                                if getattr(self, name) is None})


_DERIVED = ("rho_icp", "ransac_inlier_threshold", "icp_max_correspondence_dist",
            "feature_radius")


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
