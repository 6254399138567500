"""Serial-arm kinematics in the modified DH convention."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from insertsim.geom import Pose

# Franka Emika Panda, modified DH convention (Craig): one row per joint,
# (a [m], d [m], alpha [rad], theta_offset [rad]). Row i uses a_{i-1} and
# alpha_{i-1}; the flange offset (0.107 m) is folded into d of the last row
# (TransZ commutes with the joint rotation).
PANDA_DH = (
    (0.0, 0.333, 0.0, 0.0),
    (0.0, 0.0, -np.pi / 2, 0.0),
    (0.0, 0.316, np.pi / 2, 0.0),
    (0.0825, 0.0, np.pi / 2, 0.0),
    (-0.0825, 0.384, -np.pi / 2, 0.0),
    (0.0, 0.0, np.pi / 2, 0.0),
    (0.088, 0.107, np.pi / 2, 0.0),
)
# joint limits (min, max) in rad, per joint
PANDA_LIMITS = (
    (-2.8973, 2.8973),
    (-1.7628, 1.7628),
    (-2.8973, 2.8973),
    (-3.0718, -0.0698),
    (-2.8973, 2.8973),
    (-0.0175, 3.7525),
    (-2.8973, 2.8973),
)
RANDOM_CONFIG_MARGIN = 0.1  # rad kept clear of each joint limit by random_config


@dataclass(frozen=True)
class JointConfig:
    """Joint angles in radians."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64).copy()
        if a.ndim != 1:
            raise ValueError("angles must be a flat vector")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)

    def __len__(self) -> int:
        return len(self.angles)

    def distance_to(self, other: "JointConfig") -> float:
        return float(np.linalg.norm(self.angles - other.angles))


def mdh_transform(a: float, d: float, alpha: float, theta: float) -> np.ndarray:
    """Modified-DH link transform RotX(alpha) TransX(a) RotZ(theta) TransZ(d)."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ct, -st, 0.0, a],
            [st * ca, ct * ca, -sa, -d * sa],
            [st * sa, ct * sa, ca, d * ca],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def chain_fk(dh: np.ndarray, theta_offsets: np.ndarray, q: np.ndarray,
             base: np.ndarray = None) -> list[np.ndarray]:
    """Cumulative frames T_0..T_n for an n-row DH table (any n)."""
    T = np.eye(4) if base is None else base.copy()
    frames = [T]
    for i in range(len(dh)):
        a, d, alpha = dh[i]
        T = T @ mdh_transform(a, d, alpha, theta_offsets[i] + q[i])
        frames.append(T)
    return frames


@dataclass(frozen=True)
class ArmModel:
    """7-joint chain: per-row (a, d, alpha, theta_offset), limits, base pose."""

    dh_parameters: np.ndarray  # (7, 4)
    joint_limits: np.ndarray   # (7, 2) min < max
    base_pose: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        dh = np.asarray(self.dh_parameters, dtype=np.float64)
        lim = np.asarray(self.joint_limits, dtype=np.float64)
        if dh.shape != (7, 4):
            raise ValueError("dh_parameters must be (7, 4): a, d, alpha, theta_offset")
        if lim.shape != (7, 2) or np.any(lim[:, 0] >= lim[:, 1]):
            raise ValueError("joint_limits must be (7, 2) with min < max")
        dh = dh.copy()
        lim = lim.copy()
        dh.flags.writeable = False
        lim.flags.writeable = False
        object.__setattr__(self, "dh_parameters", dh)
        object.__setattr__(self, "joint_limits", lim)

    @property
    def dof(self) -> int:
        return 7

    @classmethod
    def panda(cls) -> "ArmModel":
        """The Panda chain at the identity base pose."""
        return cls(PANDA_DH, PANDA_LIMITS)

    def check_limits(self, q: JointConfig) -> None:
        a = q.angles
        if len(a) != self.dof:
            raise ValueError(f"expected {self.dof} joint angles, got {len(a)}")
        lo, hi = self.joint_limits[:, 0], self.joint_limits[:, 1]
        bad = np.where((a < lo - 1e-12) | (a > hi + 1e-12))[0]
        if bad.size:
            raise ValueError(f"joints {bad.tolist()} outside limits")

    def clamp(self, angles: np.ndarray) -> np.ndarray:
        return np.clip(angles, self.joint_limits[:, 0], self.joint_limits[:, 1])

    def random_config(self, rng: np.random.Generator) -> JointConfig:
        lo = self.joint_limits[:, 0] + RANDOM_CONFIG_MARGIN
        hi = self.joint_limits[:, 1] - RANDOM_CONFIG_MARGIN
        return JointConfig(rng.uniform(lo, hi))


def _frames(model: ArmModel, q: JointConfig) -> list[np.ndarray]:
    return chain_fk(
        model.dh_parameters[:, :3], model.dh_parameters[:, 3], q.angles,
        base=model.base_pose.to_matrix(),
    )


def fk(model: ArmModel, q: JointConfig, check_limits: bool = True) -> Pose:
    """End-effector pose from chained DH transforms composed onto the base."""
    if check_limits:
        model.check_limits(q)
    elif len(q) != model.dof:
        raise ValueError(f"expected {model.dof} joint angles")
    return Pose.from_matrix(_frames(model, q)[-1])


def jacobian(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Geometric Jacobian (6 x 7): linear rows on top, angular below."""
    frames = _frames(model, q)
    p_ee = frames[-1][:3, 3]
    J = np.zeros((6, model.dof))
    for i in range(model.dof):
        Ti = frames[i + 1]  # frame of joint i: its z-axis is the rotation axis
        z = Ti[:3, 2]
        p = Ti[:3, 3]
        J[:3, i] = np.cross(z, p_ee - p)
        J[3:, i] = z
    return J
