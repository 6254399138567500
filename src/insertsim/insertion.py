"""Relative corrective trajectories and the geometric insertion check.

The corrective trajectory interpolates between the estimated object pose and
the insertion target in whatever common frame both were measured in (the scan
frame). It is consumed as per-step offsets, so the executor moves the arm
incrementally from its current believed state; a constant error between the
measurement frame and the robot frame then cancels to first order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insertsim.geom import (
    Pose,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_slerp,
)
from insertsim.arm.error_model import ArmInstance
from insertsim.arm.ik import LimitViolationError, UnreachableTargetError, ik
from insertsim.arm.model import JointConfig

MAX_AXIS_ANGLE = np.deg2rad(30)  # widest tip tilt off the hole axis that can insert


class DegenerateApproachError(ValueError):
    """Tip ray is parallel to the hole plane."""


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed pose sequence; timestamps strictly increasing, seconds."""

    waypoints: tuple
    timestamps: np.ndarray

    def __post_init__(self):
        wps = tuple(self.waypoints)
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if len(wps) < 2:
            raise ValueError("trajectory needs at least 2 waypoints")
        if ts.shape != (len(wps),) or not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing, one per waypoint")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.waypoints)

    def offsets(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-step increments (dx in base frame, dq as a left rotation)."""
        out = []
        for prev, cur in zip(self.waypoints[:-1], self.waypoints[1:]):
            dx = cur.position - prev.position
            dq = quat_normalize(quat_multiply(cur.orientation, quat_conjugate(prev.orientation)))
            out.append((dx, dq))
        return out


def plan_relative_trajectory(p_obj: Pose, p_target: Pose, horizon: int,
                             duration: float) -> Trajectory:
    """Cubic ease-in/out position spline plus slerp orientation.

    Endpoints equal `p_obj` and `p_target` exactly; intermediate samples use
    the smoothstep 3t^2 - 2t^3, which has zero velocity at both ends.
    """
    if not isinstance(horizon, (int, np.integer)) or isinstance(horizon, bool) or horizon < 2:
        raise ValueError("horizon must be an integer >= 2")
    if not 0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")
    tau = np.arange(horizon) / (horizon - 1)
    s = 3.0 * tau**2 - 2.0 * tau**3
    delta = p_target.position - p_obj.position
    waypoints = [p_obj]
    for k in range(1, horizon - 1):
        pos = p_obj.position + s[k] * delta
        quat = quat_slerp(p_obj.orientation, p_target.orientation, float(s[k]))
        waypoints.append(Pose(pos, quat))
    waypoints.append(p_target)
    return Trajectory(tuple(waypoints), duration * tau)


def execute_insertion(arm: ArmInstance, traj: Trajectory,
                      ic_bias: JointConfig) -> tuple[Pose, list[JointConfig]]:
    """Track the trajectory as offsets from the arm's current believed pose.

    A virtual carried target accumulates the offsets exactly, so per-waypoint
    IK tolerance does not compound across the horizon. Returns the ground
    truth final pose and the commanded joint path.
    """
    carried = arm.reported
    path = []
    for k, (dx, dq) in enumerate(traj.offsets()):
        carried = Pose(carried.position + dx, quat_multiply(dq, carried.orientation))
        try:
            q_cmd = ik(arm.model, carried, bias_config=ic_bias, start=arm.commanded)
        except (UnreachableTargetError, LimitViolationError) as e:
            # each takes one message; the type stays so callers can match on it,
            # and any other error propagates as raised
            raise type(e)(f"waypoint {k + 1}/{len(traj) - 1}: {e}") from e
        arm.move_to(q_cmd)
        path.append(q_cmd)
    return arm.actual, path


@dataclass(frozen=True)
class InsertionTarget:
    """Elliptical hole: center, axis, semi-axes (a along `major_dir`, b across)."""

    hole_center: np.ndarray
    hole_axis: np.ndarray
    hole_semi_axes: tuple
    major_dir: np.ndarray

    def __post_init__(self):
        # written so that NaN and inf fail each check
        c = np.asarray(self.hole_center, dtype=np.float64)
        if c.shape != (3,) or not np.all(np.isfinite(c)):
            raise ValueError("hole_center must be 3 finite coordinates")
        axis = np.asarray(self.hole_axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if not abs(n - 1.0) <= 1e-6:
            raise ValueError("hole_axis must be unit")
        a, b = (float(v) for v in self.hole_semi_axes)
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise ValueError("hole semi-axes must be positive and finite")
        e1 = np.asarray(self.major_dir, dtype=np.float64)
        e1 = e1 - np.dot(e1, axis) * axis
        ln = np.linalg.norm(e1)
        if not 1e-9 <= ln < np.inf:
            raise ValueError("major_dir must be finite and not parallel to hole_axis")
        e1 = e1 / ln
        object.__setattr__(self, "hole_center", c)
        object.__setattr__(self, "hole_axis", axis / n)
        object.__setattr__(self, "hole_semi_axes", (a, b))
        object.__setattr__(self, "major_dir", e1)

    @property
    def minor_dir(self) -> np.ndarray:
        return np.cross(self.hole_axis, self.major_dir)


@dataclass(frozen=True)
class InsertedObject:
    """Inserted part abstracted to a tip: position, pointing direction, radius."""

    tip_position: np.ndarray
    tip_direction: np.ndarray
    tip_radius: float

    def __post_init__(self):
        p = np.asarray(self.tip_position, dtype=np.float64)
        d = np.asarray(self.tip_direction, dtype=np.float64)
        # written so that NaN and inf fail each check
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("tip_position must be 3 finite coordinates")
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-6:
            raise ValueError("tip_direction must be unit")
        if not 0 <= self.tip_radius < np.inf:
            raise ValueError("tip_radius must be >= 0 and finite")
        object.__setattr__(self, "tip_position", p)
        object.__setattr__(self, "tip_direction", d / np.linalg.norm(d))


def _ellipse_signed_distance(u: float, v: float, a: float, b: float) -> float:
    """Signed Euclidean distance to the ellipse boundary (inside positive).

    Dense boundary sampling (exact at the axis vertices) followed by Newton
    polish on the boundary parameter; accurate to machine precision for the
    near-circular holes this models.
    """
    p0, p1 = abs(u), abs(v)
    theta = np.linspace(0.0, np.pi / 2, 1024)
    bx = a * np.cos(theta)
    by = b * np.sin(theta)
    d2 = (bx - p0) ** 2 + (by - p1) ** 2
    th = theta[int(np.argmin(d2))]
    for _ in range(8):
        c, s = np.cos(th), np.sin(th)
        dx, dy = a * c - p0, b * s - p1
        g = -dx * a * s + dy * b * c
        h = dx * (-a * c) + (a * s) ** 2 + dy * (-b * s) + (b * c) ** 2
        if abs(h) < 1e-300:
            break
        step = g / h
        th = min(max(th - step, 0.0), np.pi / 2)
    c, s = np.cos(th), np.sin(th)
    dist = float(np.hypot(a * c - p0, b * s - p1))
    inside = (p0 / a) ** 2 + (p1 / b) ** 2 < 1.0
    return dist if inside else -dist


def check_insertion(obj: InsertedObject, target: InsertionTarget) -> tuple[bool, float]:
    """Project the tip ray onto the hole plane and score the radial margin.

    Success needs the intersection strictly inside the hole ellipse shrunk by
    the tip radius on each semi-axis, and the tip direction within
    `MAX_AXIS_ANGLE` of the hole axis (sign-insensitive). Returns
    (success, signed margin in meters); the margin is the Euclidean distance
    to the shrunken ellipse boundary, negative outside.
    """
    n = target.hole_axis
    denom = float(np.dot(obj.tip_direction, n))
    if abs(denom) < 1e-9:
        raise DegenerateApproachError("tip ray is parallel to the hole plane")
    t = float(np.dot(target.hole_center - obj.tip_position, n)) / denom
    hit = obj.tip_position + t * obj.tip_direction
    rel = hit - target.hole_center
    u = float(np.dot(rel, target.major_dir))
    v = float(np.dot(rel, target.minor_dir))
    a, b = target.hole_semi_axes
    a_eff = a - obj.tip_radius
    b_eff = b - obj.tip_radius
    if a_eff <= 0.0 or b_eff <= 0.0:
        return False, min(a_eff, b_eff) - float(np.hypot(u, v))
    margin = _ellipse_signed_distance(u, v, a_eff, b_eff)
    aligned = abs(denom) > np.cos(MAX_AXIS_ANGLE)
    return bool(margin > 0.0 and aligned), margin
