"""Virtual laser line scanner.

Each trajectory pose carries the sensor frame: the laser line lies along the
sensor x-axis and rays travel along sensor +z. One pose yields one profile of
up to `points_per_profile` depth samples. Misses produce no point, and no
point carries a normal: a line scanner measures depth only. The cloud's
hit mask is the (trajectory length, detector columns) raster of the sweep,
True where a ray hit: a point's cell is its trajectory index and its
detector column, and the misses stay known.

The sweep takes whole profiles in chunks of at most `_CHUNK_RAYS` rays (at
least one profile), which bounds the per-ray buffers on long sweeps, and
casts only the chunk's column window [c0, c1). A hit at column x lies at
sensor (x, 0, s), s > 0, inside a part's bounds, so x lies within the
sensor-x extent of the bounds' corners, over the poses whose laser plane
(sensor y = 0) crosses the box and whose box reaches z >= 0. The window is
that extent over the chunk and the parts, padded by `_WINDOW_PAD` times the
coordinates' magnitude, far above their rounding.

Depth noise, N(0, DEPTH_NOISE_STD^2) per hit, comes from one stream per
sweep, `default_rng(seed)`: the i-th hit in (profile, column) order gets the
i-th draw. Successive draws concatenate, so the cloud depends on neither the
chunking nor the window.

Calibration error model: the assumed sensor poses are the trajectory as given;
the physical sensor actually sits at `mount_offset` composed on the base side
(true = offset ∘ assumed), composed as rotation matrices for the whole
trajectory at once. Rays are cast from the true poses, but the measured
sensor-frame samples are mapped back to the base frame through the assumed
poses. With zero noise the resulting cloud is therefore the true surface
sampling moved rigidly by the inverse offset, which is exactly the constant
frame error that relative trajectories are meant to cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insertsim.geom import Pose, PointCloud
from insertsim.scansim.surfaces import Scene

_CHUNK_RAYS = 32768
_WINDOW_PAD = 1e-9  # relative padding of a part's sensor-frame extent
DEPTH_NOISE_STD = 1.5e-6  # m, the scanner's depth noise; zero gives the exact surface


@dataclass(frozen=True)
class ScannerConfig:
    """Detector of `points_per_profile` columns at `lateral_resolution`
    spacing; the field of view is their product, centred on the laser line."""

    points_per_profile: int = 2048
    lateral_resolution: float = 12e-6

    def __post_init__(self):
        n = self.points_per_profile
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
            raise ValueError("points_per_profile must be an integer >= 2")
        if not 0 < self.lateral_resolution < np.inf:
            raise ValueError("lateral_resolution must be positive and finite")

    def lateral_positions(self) -> np.ndarray:
        """Detector column x-positions: column k at (k + 0.5 - n/2) * resolution."""
        n = self.points_per_profile
        return (np.arange(n) + 0.5 - n / 2.0) * self.lateral_resolution


@dataclass(frozen=True)
class CalibrationError:
    """Rigid error between the assumed and true sensor mounting."""

    mount_offset: Pose

    @classmethod
    def none(cls) -> "CalibrationError":
        return cls(Pose.identity())


def linear_sweep(start: Pose, direction, step: float, count: int) -> list[Pose]:
    """Constant-orientation trajectory translating `step` per profile."""
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (3,) or not 0 < np.linalg.norm(direction) < np.inf:
        raise ValueError("direction must be a finite, non-zero 3-vector")
    if not np.isfinite(step):
        raise ValueError("step must be finite")
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise ValueError("count must be an integer >= 1")
    direction = direction / np.linalg.norm(direction)
    return [Pose(start.position + k * step * direction, start.orientation) for k in range(count)]


def _frames(poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices (m, 3, 3) and positions (m, 3) of `poses`."""
    return np.stack([p.rotation_matrix() for p in poses]), np.stack([p.position for p in poses])


def _column_window(scene: Scene, R: np.ndarray, t: np.ndarray, lateral: np.ndarray) -> tuple[int, int]:
    """Columns [c0, c1) of `lateral` whose rays from the sensor poses (R, t) can reach a part."""
    boxes = [np.stack(np.meshgrid(*part.surface.bounds.T), -1).reshape(-1, 3) for part in scene.parts]
    corners = np.stack([part.pose.transform_points(box) for part, box in zip(scene.parts, boxes)])
    pad = _WINDOW_PAD * (np.abs(corners).max() + np.abs(t).max() + np.abs(lateral).max())
    s = (corners[None] - t[:, None, None]) @ R[:, None]  # sensor-frame corners, (poses, parts, 8, 3)
    seen = (s[..., 1].min(-1) <= pad) & (s[..., 1].max(-1) >= -pad) & (s[..., 2].max(-1) >= -pad)
    x = s[..., 0][seen]  # no x where no pose sees a part: then c0 = n > c1 = 0
    return (int(np.searchsorted(lateral, x.min(initial=np.inf) - pad, "left")),
            int(np.searchsorted(lateral, x.max(initial=-np.inf) + pad, "right")))


def sweep_scan(scene: Scene, trajectory: list[Pose], cfg: ScannerConfig,
               cal: CalibrationError, seed: int) -> PointCloud:
    """Sweep the scanner along `trajectory` and return the base-frame cloud."""
    if not trajectory:
        raise ValueError("scanner trajectory must be non-empty")
    lateral = cfg.lateral_positions()
    n = len(lateral)
    profiles_per_chunk = max(1, _CHUNK_RAYS // n)
    Ra, ta = _frames(trajectory)
    Rc = cal.mount_offset.rotation_matrix()
    R, t = Rc @ Ra, ta @ Rc.T + cal.mount_offset.position  # true = offset ∘ assumed
    rng = np.random.default_rng(seed)

    pts = [np.zeros((0, 3))]
    hits = np.zeros((len(trajectory), n), dtype=bool)
    for lo in range(0, len(trajectory), profiles_per_chunk):
        k = slice(lo, lo + profiles_per_chunk)
        c0, c1 = _column_window(scene, R[k], t[k], lateral)
        if c0 >= c1:
            continue
        x = lateral[c0:c1]
        # bit-equal to the matrix product, which rounds a sensor row (x, 0, 0) once in any order
        origins = x[None, :, None] * R[k, None, :, 0] + t[k, None, :]
        depth = scene.cast(origins.reshape(-1, 3), np.repeat(R[k, :, 2], c1 - c0, axis=0))
        keep = hits[k, c0:c1] = np.isfinite(depth).reshape(-1, c1 - c0)
        p, c = np.nonzero(keep)
        p += lo
        s = depth[keep.ravel()] + rng.normal(scale=DEPTH_NOISE_STD, size=len(p))
        pts.append(x[c, None] * Ra[p, :, 0] + s[:, None] * Ra[p, :, 2] + ta[p])

    return PointCloud(np.vstack(pts), hits)
