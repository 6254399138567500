"""Virtual laser line scanner.

Each trajectory pose carries the sensor frame: the laser line lies along the
sensor x-axis and rays travel along sensor +z. One pose yields one profile of
up to `points_per_profile` depth samples. Misses produce no point.

The sweep casts whole profiles in chunks of at most `_CHUNK_RAYS` rays (at
least one profile), one `Scene.cast` per chunk, which bounds the per-ray
buffers on long sweeps. Depth noise is drawn per profile from
`SeedSequence([seed, k])` for profile k, so the cloud does not depend on how
the profiles are chunked.

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

_CHUNK_RAYS = 32768


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


def _to_base(poses: list[Pose], local: np.ndarray) -> np.ndarray:
    """Map sensor-frame samples, (n, 3) or one (n, 3) block per pose, through each pose."""
    R = np.stack([p.rotation_matrix() for p in poses])
    t = np.stack([p.position for p in poses])
    return local @ R.transpose(0, 2, 1) + t[:, None, :]


def sweep_scan_detailed(scene: Scene, trajectory: list[Pose], cfg: ScannerConfig,
                        cal: CalibrationError, seed: int) -> SweepScan:
    if not trajectory:
        raise ValueError("scanner trajectory must be non-empty")
    lateral = cfg.lateral_positions()
    n = len(lateral)
    sensor = np.zeros((n, 3))
    sensor[:, 0] = lateral
    profiles_per_chunk = max(1, _CHUNK_RAYS // n)

    pts, nrm, parts, prof_ids = [], [], [], []
    for lo in range(0, len(trajectory), profiles_per_chunk):
        assumed = trajectory[lo:lo + profiles_per_chunk]
        true = [pose_compose(cal.mount_offset, p) for p in assumed]
        origins = _to_base(true, sensor)
        dirs = np.repeat([p.rotation_matrix()[:, 2] for p in true], n, axis=0)
        hits = scene.cast(origins.reshape(-1, 3), dirs)
        depth = hits.t
        if cfg.depth_noise_std > 0.0:
            depth = depth + np.concatenate([
                np.random.default_rng(np.random.SeedSequence([int(seed), k]))
                .normal(scale=cfg.depth_noise_std, size=n)
                for k in range(lo, lo + len(assumed))
            ])
        keep = hits.hit
        samples = np.repeat(sensor[None], len(assumed), axis=0)
        # misses (depth inf) are dropped below; zero keeps inf * 0 out of the product
        samples[:, :, 2] = np.where(keep, depth, 0.0).reshape(len(assumed), n)
        pts.append(_to_base(assumed, samples).reshape(-1, 3)[keep])
        nrm.append(hits.normals[keep])
        parts.append(hits.part_index[keep])
        prof_ids.append(np.repeat(np.arange(lo, lo + len(assumed), dtype=np.int64), n)[keep])

    points = np.vstack(pts)
    if len(points) == 0:
        empty = PointCloud(np.zeros((0, 3)))
        return SweepScan(empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
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
