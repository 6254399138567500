"""Kinematics of the Panda arm in the modified DH convention."""

from __future__ import annotations

from dataclasses import dataclass

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
DOF = 7  # joints of the chain


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


@dataclass(frozen=True)
class ArmModel:
    """7-joint chain with its base at the origin: per-row (a, d, alpha,
    theta_offset) and joint limits."""

    dh_parameters: np.ndarray  # (7, 4)
    joint_limits: np.ndarray   # (7, 2) min < max

    def __post_init__(self):
        dh = np.array(self.dh_parameters, dtype=np.float64)
        lim = np.array(self.joint_limits, dtype=np.float64)
        if dh.shape != (DOF, 4):
            raise ValueError("dh_parameters must be (7, 4): a, d, alpha, theta_offset")
        if lim.shape != (DOF, 2) or np.any(lim[:, 0] >= lim[:, 1]):
            raise ValueError("joint_limits must be (7, 2) with min < max")
        dh.flags.writeable = False
        lim.flags.writeable = False
        object.__setattr__(self, "dh_parameters", dh)
        object.__setattr__(self, "joint_limits", lim)

    @classmethod
    def panda(cls) -> "ArmModel":
        return cls(PANDA_DH, PANDA_LIMITS)

    def check_limits(self, q: JointConfig) -> None:
        a = q.angles
        if len(a) != DOF:
            raise ValueError(f"expected {DOF} joint angles, got {len(a)}")
        lo, hi = self.joint_limits[:, 0], self.joint_limits[:, 1]
        # written so that a NaN angle fails it too
        inside = (lo - 1e-12 <= a) & (a <= hi + 1e-12)
        if not inside.all():
            raise ValueError(f"joints {np.flatnonzero(~inside).tolist()} outside limits")

    def clamp(self, angles: np.ndarray) -> np.ndarray:
        return np.clip(angles, self.joint_limits[:, 0], self.joint_limits[:, 1])


def _frames(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Cumulative frames T_0..T_7 from the base, as one (8, 4, 4) array; each
    row's link transform is RotX(alpha) TransX(a) RotZ(theta) TransZ(d).

    The cosines and sines of all seven joints come from one numpy call each,
    which rounds as the per-joint scalar calls do, and the links are chained
    by the same seven 4 x 4 products, in the same order, as a loop over
    per-row matrices, so every bit is that loop's (the tests
    `test_vector_cos_and_sin_match_the_scalar_calls_bit_for_bit` and
    `test_frames_match_the_per_row_reference_bit_for_bit` check both).
    """
    a, d, alpha, offset = np.ascontiguousarray(model.dh_parameters.T)
    theta = offset + q.angles
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    zero = np.zeros(DOF)
    # one column per matrix entry, transposed to one row per link
    links = np.array([
        ct, -st, zero, a,
        st * ca, ct * ca, -sa, -d * sa,
        st * sa, ct * sa, ca, d * ca,
        zero, zero, zero, np.ones(DOF),
    ]).T.reshape(DOF, 4, 4)
    frames = np.empty((DOF + 1, 4, 4))
    frames[0] = np.eye(4)
    for prev, link, out in zip(frames, links, frames[1:]):
        np.matmul(prev, link, out=out)
    return frames


def fk(model: ArmModel, q: JointConfig, check_limits: bool = True) -> Pose:
    """End-effector pose from the chained DH transforms."""
    if check_limits:
        model.check_limits(q)
    elif len(q) != DOF:
        raise ValueError(f"expected {DOF} joint angles")
    return Pose.from_matrix(_frames(model, q)[-1])


def jacobian(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Geometric Jacobian (6 x 7): linear rows on top, angular below."""
    joints = _frames(model, q)[1:]  # frame of joint i: its z-axis is the rotation axis
    z = joints[:, :3, 2].T                                 # (3, 7) joint axes
    r = joints[-1, :3, 3, None] - joints[:, :3, 3].T       # (3, 7) lever arms to the flange
    # z x r per component, as np.cross forms it
    return np.vstack([z[1] * r[2] - z[2] * r[1],
                      z[2] * r[0] - z[0] * r[2],
                      z[0] * r[1] - z[1] * r[0],
                      z])
