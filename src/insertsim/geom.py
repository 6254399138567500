"""Rigid-body geometry core: poses, quaternion metrics, point clouds.

Conventions used everywhere in this package:
  - positions and point coordinates are meters, float64
  - quaternions are stored (w, x, y, z) and kept unit-norm
  - a Pose maps points from its local frame into the parent frame:
    p_parent = R(q) @ p_local + t
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_UNIT_TOL = 1e-6


def _as_f64(x, shape=None) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


# ---------------------------------------------------------------------------
# Quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_normalize(q) -> np.ndarray:
    q = _as_f64(q, (4,))
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_multiply(q1, q2) -> np.ndarray:
    """Hamilton product q1 * q2."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conjugate(q) -> np.ndarray:
    q = _as_f64(q, (4,))
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
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
    R = _as_f64(R, (3, 3))
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    q = quat_normalize(q)
    return -q if q[0] < 0.0 else q


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = _as_f64(axis, (3,))
    n = float(np.linalg.norm(axis))
    if n < 1e-12:
        raise ValueError("axis must be nonzero")
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


def quat_to_rotvec(q) -> np.ndarray:
    """Axis-angle vector (radians) of a unit quaternion, magnitude in [0, pi]."""
    q = _as_f64(q, (4,))
    if q[0] < 0.0:
        q = -q
    s = float(np.linalg.norm(q[1:]))
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
        if not np.all(np.isfinite(p)):
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

    def to_matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation_matrix()
        T[:3, 3] = self.position
        return T

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

@dataclass(frozen=True)
class PointCloud:
    """Ordered 3-D points in meters with optional unit normals."""

    points: np.ndarray
    normals: Optional[np.ndarray] = field(default=None)

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
        if self.normals is not None:
            nrm = np.atleast_2d(_as_f64(self.normals))
            if nrm.shape != pts.shape:
                raise ValueError("normals must match points shape")
            if not np.all(np.isfinite(nrm)):
                raise ValueError("normals must be finite")
            lengths = np.linalg.norm(nrm, axis=1)
            if pts.shape[0] and np.max(np.abs(lengths - 1.0)) > _UNIT_TOL:
                raise ValueError(f"normals must be unit within {_UNIT_TOL}")
            nrm = nrm.copy()
            nrm.flags.writeable = False
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def select(self, index) -> "PointCloud":
        nrm = self.normals[index] if self.has_normals else None
        return PointCloud(self.points[index], nrm)


def transform_cloud(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform: points R p + t, normals rotated by R."""
    R = pose.rotation_matrix()
    pts = cloud.points @ R.T + pose.position
    nrm = cloud.normals @ R.T if cloud.has_normals else None
    return PointCloud(pts, nrm)

