"""Kinematics of the Panda arm in the modified DH convention.

A `JointConfig` holds the DH chain it was last evaluated under, with the
end-effector pose of that chain: `_held_chain` chains a (model,
configuration) pair once and returns the held, read-only frames and pose to
every later `fk` or `jacobian` call on the same configuration object under
the same model object. The held chain cannot go stale, because
`JointConfig.angles` is a read-only copy and every array of an `ArmModel` is
read-only; a configuration evaluated under another model object is chained
again for that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from insertsim.geom import Pose, column_cross

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

_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


@dataclass(frozen=True)
class JointConfig:
    """The seven joint angles of the chain, in radians."""

    angles: np.ndarray
    # (model, frames, pose) of the last _held_chain call on this configuration
    _held: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64).copy()
        if a.shape != (DOF,):
            raise ValueError(f"expected {DOF} joint angles, got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)


@dataclass(frozen=True)
class ArmModel:
    """7-joint chain with its base at the origin: per-row (a, d, alpha,
    theta_offset) and joint limits."""

    dh_parameters: np.ndarray  # (7, 4)
    joint_limits: np.ndarray   # (7, 2) min < max
    # (7, 4, 4) link transforms with every theta-independent entry filled in
    _link_template: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dh = np.array(self.dh_parameters, dtype=np.float64)
        lim = np.array(self.joint_limits, dtype=np.float64)
        # written so that NaN and inf fail each check
        if dh.shape != (DOF, 4) or not np.all(np.isfinite(dh)):
            raise ValueError("dh_parameters must be (7, 4) finite: a, d, alpha, theta_offset")
        if lim.shape != (DOF, 2) or not np.all(np.isfinite(lim) & (lim[:, :1] < lim[:, 1:])):
            raise ValueError("joint_limits must be (7, 2) finite with min < max")
        dh.flags.writeable = False
        lim.flags.writeable = False
        object.__setattr__(self, "dh_parameters", dh)
        object.__setattr__(self, "joint_limits", lim)
        a, d, alpha, _ = dh.T
        ca, sa = np.cos(alpha), np.sin(alpha)
        links = np.zeros((DOF, 4, 4))
        links[:, 0, 3] = a
        links[:, 1, 2] = -sa
        links[:, 1, 3] = -d * sa
        links[:, 2, 2] = ca
        links[:, 2, 3] = d * ca
        links[:, 3, 3] = 1.0
        links.flags.writeable = False
        object.__setattr__(self, "_link_template", links)

    @classmethod
    def panda(cls) -> "ArmModel":
        return cls(PANDA_DH, PANDA_LIMITS)

    def check_limits(self, q: JointConfig) -> None:
        a = q.angles
        lo, hi = self.joint_limits[:, 0], self.joint_limits[:, 1]
        # written so that a NaN angle fails it too
        inside = (lo - 1e-12 <= a) & (a <= hi + 1e-12)
        if not inside.all():
            raise ValueError(f"joints {np.flatnonzero(~inside).tolist()} outside limits")

    def clamp(self, angles: np.ndarray) -> np.ndarray:
        return np.clip(angles, self.joint_limits[:, 0], self.joint_limits[:, 1])


def _held_chain(model: ArmModel, q: JointConfig) -> tuple[np.ndarray, Pose]:
    """Cumulative frames T_0..T_7 from the base, as one read-only (8, 4, 4)
    array, and the end-effector pose of T_7: the pair held on `q` if `q` was
    last chained under `model` itself, otherwise a new one, which `q` then
    holds."""
    held = q._held
    if held is None or held[0] is not model:
        frames = _chain(model, q.angles)
        frames.flags.writeable = False
        held = (model, frames, Pose.from_matrix(frames[-1]))
        object.__setattr__(q, "_held", held)
    return held[1:]


def _chain(model: ArmModel, angles: np.ndarray) -> np.ndarray:
    """Chain the links of `model` at `angles`; each row's link transform is
    RotX(alpha) TransX(a) RotZ(theta) TransZ(d).

    The theta-independent entries come from the model's link template, whose
    values are the products a loop over per-row matrices forms. The cosines
    and sines of all seven joints come from one numpy call each, which rounds
    as the per-joint scalar calls do, and the links are chained by the same
    seven 4 x 4 products, in the same order, as that loop, so every bit is
    the loop's (the tests `test_vector_cos_and_sin_match_the_scalar_calls_bit_for_bit`
    and `test_frames_match_the_per_row_reference_bit_for_bit` check both).
    """
    links = model._link_template.copy()
    theta = model.dh_parameters[:, 3] + angles
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = links[:, 2, 2], -links[:, 1, 2]  # the template holds -sin(alpha); negation is exact
    links[:, 0, 0] = ct
    links[:, 0, 1] = -st
    links[:, 1, 0] = st * ca
    links[:, 1, 1] = ct * ca
    links[:, 2, 0] = st * sa
    links[:, 2, 1] = ct * sa
    frames = np.empty((DOF + 1, 4, 4))
    frames[0] = _EYE4
    for prev, link, out in zip(frames, links, frames[1:]):
        np.matmul(prev, link, out=out)
    return frames


def fk(model: ArmModel, q: JointConfig) -> Pose:
    """End-effector pose from the chained DH transforms.

    Pure kinematics: it does not check the joint limits. `ArmModel.check_limits`
    does, called by `execute_motion` on every commanded configuration and by
    `ik` on its start.
    """
    return _held_chain(model, q)[1]


def jacobian(model: ArmModel, q: JointConfig) -> np.ndarray:
    """Geometric Jacobian (6 x 7): linear rows on top, angular below."""
    joints = _held_chain(model, q)[0][1:]  # frame of joint i: its z-axis is the rotation axis
    z = joints[:, :3, 2].T                                 # (3, 7) joint axes
    r = joints[-1, :3, 3, None] - joints[:, :3, 3].T       # (3, 7) lever arms to the flange
    return np.vstack([*column_cross(z, r), z])  # z x r on top
