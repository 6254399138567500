"""Virtual laser line scanner.

Each trajectory pose carries the sensor frame: the laser line lies along the
sensor x-axis and rays travel along sensor +z. One pose yields one profile of
up to `points_per_profile` depth samples. Misses produce no point.

Calibration error model: the assumed sensor poses are the trajectory as given;
the physical sensor actually sits at `mount_offset` composed on the base side
(true = offset ∘ assumed). Rays are cast from the true poses, but the measured
sensor-frame samples are mapped back to the base frame through the assumed
poses. With zero noise the resulting cloud is therefore the true surface
sampling moved rigidly by the inverse offset, which is exactly the constant
frame error that relative trajectories are meant to cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from insertsim.geom import Pose, PointCloud, pose_compose
from insertsim.scansim.surfaces import Scene


@dataclass(frozen=True)
class ScannerConfig:
    points_per_profile: int = 2048
    lateral_span: float = 2048 * 12e-6
    depth_noise_std: float = 1.5e-6
    lateral_resolution: float = 12e-6
    standoff: float = 0.05
    sweep_step: float = 25e-6

    def __post_init__(self):
        if self.points_per_profile < 2:
            raise ValueError("points_per_profile must be >= 2")
        for name in ("lateral_span", "lateral_resolution", "standoff", "sweep_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.depth_noise_std < 0:
            raise ValueError("depth_noise_std must be >= 0")

    def lateral_positions(self) -> np.ndarray:
        """Detector column x-positions, quantized to resolution-grid cell centers."""
        n = self.points_per_profile
        nominal = (np.arange(n) + 0.5 - n / 2.0) * (self.lateral_span / n)
        cell = np.floor(nominal / self.lateral_resolution)
        snapped = (cell + 0.5) * self.lateral_resolution
        keep = np.ones(n, dtype=bool)
        keep[1:] = np.diff(snapped) > 0  # drop duplicates if the grid is coarser
        return snapped[keep]


@dataclass(frozen=True)
class CalibrationError:
    """Rigid error between the assumed and true sensor mounting."""

    mount_offset: Pose = field(default_factory=Pose.identity)

    @classmethod
    def none(cls) -> "CalibrationError":
        return cls(Pose.identity())


@dataclass(frozen=True)
class ScanProfile:
    """One laser line: samples in the sensor frame, ordered by lateral x."""

    lateral: np.ndarray        # (M,) strictly increasing
    points_sensor: np.ndarray  # (M, 3)
    normals_world: np.ndarray  # (M, 3) true-surface normals (pre-calibration)
    part_index: np.ndarray     # (M,)

    def __post_init__(self):
        if len(self.lateral) > 1 and not np.all(np.diff(self.lateral) > 0):
            raise ValueError("profile samples must be strictly increasing in x")


@dataclass(frozen=True)
class SweepScan:
    """Assembled sweep output plus per-point provenance for the harness."""

    cloud: PointCloud
    part_index: np.ndarray
    profile_index: np.ndarray

    def points_of(self, scene: Scene, part_id: str) -> PointCloud:
        return self.cloud.select(self.part_index == scene.index_of(part_id))


def linear_sweep(start: Pose, direction, step: float, count: int) -> list[Pose]:
    """Constant-orientation trajectory translating `step` per profile."""
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    return [Pose(start.position + k * step * direction, start.orientation) for k in range(count)]


def _scan_profile(scene: Scene, true_pose: Pose, lateral: np.ndarray,
                  noise_std: float, rng: np.random.Generator) -> ScanProfile:
    n = len(lateral)
    origins_local = np.zeros((n, 3))
    origins_local[:, 0] = lateral
    R = true_pose.rotation_matrix()
    origins = origins_local @ R.T + true_pose.position
    dirs = np.tile(R[:, 2], (n, 1))
    hits = scene.cast(origins, dirs)
    depth = hits.t.copy()
    if noise_std > 0.0:
        depth = depth + rng.normal(scale=noise_std, size=n)
    mask = hits.hit
    pts_sensor = np.zeros((mask.sum(), 3))
    pts_sensor[:, 0] = lateral[mask]
    pts_sensor[:, 2] = depth[mask]
    return ScanProfile(lateral[mask], pts_sensor, hits.normals[mask], hits.part_index[mask])


def sweep_scan_detailed(scene: Scene, trajectory: list[Pose], cfg: ScannerConfig,
                        cal: CalibrationError, seed: int) -> SweepScan:
    if not trajectory:
        raise ValueError("scanner trajectory must be non-empty")
    lateral = cfg.lateral_positions()
    true_poses = [pose_compose(cal.mount_offset, p) for p in trajectory]

    profiles = [
        _scan_profile(scene, true_poses[k], lateral, cfg.depth_noise_std,
                      np.random.default_rng(np.random.SeedSequence([int(seed), k])))
        for k in range(len(trajectory))
    ]

    pts, nrm, parts, prof_ids = [], [], [], []
    for k, (assumed, prof) in enumerate(zip(trajectory, profiles)):
        if len(prof.lateral) == 0:
            continue
        pts.append(prof.points_sensor @ assumed.rotation_matrix().T + assumed.position)
        nrm.append(prof.normals_world)
        parts.append(prof.part_index)
        prof_ids.append(np.full(len(prof.lateral), k, dtype=np.int64))
    if not pts:
        empty = PointCloud(np.zeros((0, 3)))
        return SweepScan(empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    points = np.vstack(pts)
    # map the true-surface normals through the same assumed-vs-true mismatch
    R_err = cal.mount_offset.inverse().rotation_matrix()
    normals = np.vstack(nrm) @ R_err.T
    return SweepScan(
        PointCloud(points, normals),
        np.concatenate(parts),
        np.concatenate(prof_ids),
    )


def sweep_scan(scene: Scene, trajectory: list[Pose], cfg: ScannerConfig,
               cal: CalibrationError, seed: int) -> PointCloud:
    """Sweep the scanner along `trajectory` and return the base-frame cloud."""
    return sweep_scan_detailed(scene, trajectory, cfg, cal, seed).cloud
