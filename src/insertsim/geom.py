"""Rigid-body geometry core: poses, quaternion metrics, point clouds.

Conventions used everywhere in this package:
  - positions and point coordinates are meters, float64
  - quaternions are stored (w, x, y, z) and kept unit-norm
  - a Pose maps points from its local frame into the parent frame:
    p_parent = R(q) @ p_local + t
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_UNIT_TOL = 1e-6


def _as_f64(x, shape=None) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


def vector_norm(v) -> float:
    """`np.linalg.norm` of a float64 vector, bit for bit and without its
    overhead: the same dot product over a contiguous copy, then the root
    (a dot product over a strided view sums in another order)."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# Quaternion helpers (w, x, y, z)
#
# The scalar helpers unpack to Python floats: + - * / and sqrt round exactly
# as on numpy scalars at a fraction of the cost. Transcendentals (cos, sin,
# arctan2, ...) stay numpy, whose results need not match the math module's.
# ---------------------------------------------------------------------------

def quat_normalize(q) -> np.ndarray:
    q = _as_f64(q, (4,))
    n = vector_norm(q)
    if not 1e-12 <= n < math.inf:  # NaN fails both comparisons
        raise ValueError("cannot normalize a near-zero or non-finite quaternion")
    return q / n


def quat_multiply(q1, q2) -> np.ndarray:
    """Hamilton product q1 * q2."""
    w1, x1, y1, z1 = _as_f64(q1, (4,)).tolist()
    w2, x2, y2, z2 = _as_f64(q2, (4,)).tolist()
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    w, x, y, z = _as_f64(q, (4,)).tolist()
    return np.array([w, -x, -y, -z])


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = _as_f64(q, (4,)).tolist()
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )


def quat_from_matrix(R) -> np.ndarray:
    """Rotation matrix to unit quaternion, w >= 0 canonical sign."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _as_f64(R, (3, 3)).tolist()
    # the root's argument is >= 1 on every branch of a finite R, so s >= 2
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 > r11 and r00 > r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 > r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = quat_normalize(q)
    return -q if q[0] < 0.0 else q


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = _as_f64(axis, (3,))
    n = vector_norm(axis)
    if not 1e-12 <= n < math.inf:  # NaN fails both comparisons
        raise ValueError("axis must be nonzero and finite")
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


def quat_to_rotvec(q) -> np.ndarray:
    """Axis-angle vector (radians) of a unit quaternion, magnitude in [0, pi]."""
    q = _as_f64(q, (4,))
    if q[0] < 0.0:
        q = -q
    s = vector_norm(q[1:])
    if s < 1e-12:
        return 2.0 * q[1:]  # first-order for tiny rotations
    angle = 2.0 * np.arctan2(s, q[0])
    return angle * q[1:] / s


def quat_slerp(q1, q2, t: float) -> np.ndarray:
    """Shortest-path spherical interpolation between unit quaternions."""
    q1 = quat_normalize(q1)
    q2 = quat_normalize(q2)
    dot = float(np.dot(q1, q2))
    if dot < 0.0:
        q2, dot = -q2, -dot
    if dot > 0.9995:
        out = q1 + t * (q2 - q1)
        return out / np.linalg.norm(out)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    st = np.sin(theta)
    return (np.sin((1.0 - t) * theta) * q1 + np.sin(t * theta) * q2) / st


def _check_unit(q, name: str) -> np.ndarray:
    q = _as_f64(q, (4,))
    if abs(float(np.linalg.norm(q)) - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be unit-norm within {_UNIT_TOL}")
    return q


def quat_distance(q1, q2) -> float:
    """Geodesic distance on S^3 in radians, in [0, pi].

    Invariant to sign flips of either argument (quaternion double cover).
    The dot product is clamped to [-1, 1] before arccos so nearly identical
    inputs cannot raise a domain error.
    """
    q1 = _check_unit(q1, "q1")
    q2 = _check_unit(q2, "q2")
    d = min(1.0, abs(float(np.dot(q1, q2))))
    return float(2.0 * np.arccos(d))


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid transform: position (m) plus unit quaternion (w, x, y, z)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        p = _as_f64(self.position, (3,)).copy()
        q = quat_normalize(self.orientation)
        if not all(map(math.isfinite, p.tolist())):
            raise ValueError("pose position must be finite")
        p.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", q)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_matrix(cls, T) -> "Pose":
        T = _as_f64(T, (4, 4))
        return cls(T[:3, 3], quat_from_matrix(T[:3, :3]))

    @classmethod
    def from_axis_angle(cls, position, axis, angle: float) -> "Pose":
        return cls(position, quat_from_axis_angle(axis, angle))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def inverse(self) -> "Pose":
        qc = quat_conjugate(self.orientation)
        return Pose(-(quat_to_matrix(qc) @ self.position), qc)

    def transform_point(self, p) -> np.ndarray:
        return self.rotation_matrix() @ _as_f64(p, (3,)) + self.position

    def transform_points(self, pts: np.ndarray) -> np.ndarray:
        return _as_f64(pts) @ self.rotation_matrix().T + self.position

    def rotate_vector(self, v) -> np.ndarray:
        return self.rotation_matrix() @ _as_f64(v, (3,))

    def translation_to(self, other: "Pose") -> float:
        return float(np.linalg.norm(self.position - other.position))

    def rotation_to(self, other: "Pose") -> float:
        return quat_distance(self.orientation, other.orientation)


def pose_compose(a: Pose, b: Pose) -> Pose:
    """Pose of the homogeneous product T(a) @ T(b)."""
    return Pose(
        a.rotation_matrix() @ b.position + a.position,
        quat_multiply(a.orientation, b.orientation),
    )


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

def column_norm(x, y, z) -> np.ndarray:
    """Lengths of vectors given as coordinate columns.

    The squares are summed `(x*x + y*y) + z*z` before the root, the order in
    which `np.linalg.norm` sums an (N, 3) row, so FPFH's column kernel gives
    the distances of the row routines it replaces bit for bit (the test
    `test_pair_features_match_the_row_reference` checks it): keep the order.
    """
    return np.sqrt((x * x + y * y) + z * z)


def _raster_cells_unique(raster: np.ndarray) -> bool:
    """Whether no two rows of an (N, 2) integer raster name the same cell."""
    n = len(raster)
    if n == 0:
        return True
    # per column, and in Python ints, which cannot wrap
    lo = [int(raster[:, a].min()) for a in range(2)]
    rows, cols = (int(raster[:, a].max()) - lo[a] + 1 for a in range(2))
    if rows * cols > 4 * n:  # a bounding box this sparse is not worth a grid
        return len(np.unique(raster, axis=0)) == n
    # scatter every point's number into its cell and read it back: a cell
    # shared by two points keeps only one of them
    cells = (raster[:, 0] - lo[0]) * cols + (raster[:, 1] - lo[1])
    slot = np.empty(rows * cols, dtype=np.intp)
    order = np.arange(n)
    slot[cells] = order
    return bool(np.array_equal(slot[cells], order))


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3-D points in meters, with the scanner raster behind them.

    `raster`, when given, is each point's (profile, column) cell in the
    scanner raster that produced it: an (N, 2) integer array, one point per
    cell. `raster_shape`, when given, is that raster's full (profiles,
    columns) shape, misses included, and every cell lies inside it; without
    it a miss past the last hit cannot be told from the raster's edge. A
    scanner sets both, and `select` keeps them. Clouds with no scanner behind
    them leave them None.
    """

    points: np.ndarray
    raster: Optional[np.ndarray] = field(default=None)
    raster_shape: Optional[tuple] = field(default=None)

    def __post_init__(self):
        pts = np.atleast_2d(_as_f64(self.points))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.raster is not None:
            ras = np.asarray(self.raster)
            if ras.shape != (len(pts), 2) or not np.issubdtype(ras.dtype, np.integer):
                raise ValueError(f"raster must be an ({len(pts)}, 2) integer array")
            ras = ras.astype(np.int64)
            if not _raster_cells_unique(ras):
                raise ValueError("raster cells must be unique")
            ras.flags.writeable = False
            object.__setattr__(self, "raster", ras)
        if self.raster_shape is not None:
            shape = tuple(self.raster_shape)
            if self.raster is None or len(shape) != 2 or not all(
                    isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
                    for n in shape):
                raise ValueError("raster_shape must be two integers >= 1 and needs a raster")
            shape = (int(shape[0]), int(shape[1]))
            if len(self.raster) and (self.raster.min() < 0 or np.any(self.raster.max(axis=0) >= shape)):
                raise ValueError(f"raster cells must lie inside raster_shape {shape}")
            object.__setattr__(self, "raster_shape", shape)

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, index) -> "PointCloud":
        ras = self.raster[index] if self.raster is not None else None
        return PointCloud(self.points[index], ras, self.raster_shape)

