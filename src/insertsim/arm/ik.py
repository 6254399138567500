"""Damped least-squares inverse kinematics with a null-space bias.

The redundancy of the 7-DoF chain is resolved by projecting a pull toward
`bias_config` through (I - J+ J), so different bias configs select different
solutions for the same end-effector target.

`ik` judges every iterate through `fk` and steps through `jacobian`, both on
one `JointConfig` object, so the DH chain that configuration holds (see
`insertsim.arm.model`) is computed once per iterate. It starts from `start`
itself and returns the configuration it judged, not a copy, so a caller's
next `fk` of the result, or a next solve started from it, reads that chain
too. The pose goes through `fk` rather than a chain computed here: the
benchmark's `arm.fk` probe wraps this module's `fk` and counts one call per
judged iterate (`arm.fk_per_ik`), and the held chain makes that call cost no
second chain.
"""

from __future__ import annotations

import numpy as np

from insertsim.geom import Pose, quat_to_rotvec, quat_multiply, quat_conjugate, vector_norm
from insertsim.arm.model import DOF, ArmModel, JointConfig, fk, jacobian

DAMPING = 1e-3
NULL_GAIN = 0.1
MAX_ITERATIONS = 500
POS_TOL = 1e-6   # m
ROT_TOL = 1e-5   # rad
MAX_STEP = 0.2   # per-joint step clamp, radians

_EYE6 = np.eye(6)
_EYE7 = np.eye(DOF)
_EYE6.flags.writeable = False
_EYE7.flags.writeable = False


class UnreachableTargetError(RuntimeError):
    pass


class LimitViolationError(RuntimeError):
    pass


def _pose_error(target: Pose, current: Pose) -> np.ndarray:
    e_pos = target.position - current.position
    q_err = quat_multiply(target.orientation, quat_conjugate(current.orientation))
    return np.concatenate([e_pos, quat_to_rotvec(q_err)])


def ik(model: ArmModel, target: Pose, bias_config: JointConfig, start: JointConfig) -> JointConfig:
    """Solve joints for `target`, staying close to `bias_config` in the null space.

    Returns the configuration whose pose was judged on target: `start`
    itself when it already is.
    """
    model.check_limits(start)
    bias = bias_config.angles
    if len(bias) != DOF or not np.all(np.isfinite(bias)):
        raise ValueError(f"bias_config must hold {DOF} finite joint angles")
    q_cfg = start
    lam2 = DAMPING**2

    for it in range(MAX_ITERATIONS + 1):
        q = q_cfg.angles
        err = _pose_error(target, fk(model, q_cfg, check_limits=False))
        task_ok = vector_norm(err[:3]) < POS_TOL and vector_norm(err[3:]) < ROT_TOL
        # stop on the pose just evaluated: it is the one judged below
        if task_ok or it == MAX_ITERATIONS:
            break
        J = jacobian(model, q_cfg)
        JJt = J @ J.T + lam2 * _EYE6
        J_dls = J.T @ np.linalg.inv(JJt)
        # exact projector: a damped pseudoinverse would leak the null-space
        # pull into task space and stall convergence at the damping scale
        null_proj = _EYE7 - np.linalg.pinv(J) @ J
        dq = J_dls @ err + null_proj @ (NULL_GAIN * (bias - q))
        dq = np.clip(dq, -MAX_STEP, MAX_STEP)
        q_cfg = JointConfig(model.clamp(q + dq))

    if not task_ok:
        at_limit = np.isclose(q, model.joint_limits[:, 0]) | np.isclose(q, model.joint_limits[:, 1])
        if np.any(at_limit):
            raise LimitViolationError(
                f"stalled with joints {np.where(at_limit)[0].tolist()} pinned at limits"
            )
        raise UnreachableTargetError(
            f"no convergence after {MAX_ITERATIONS} iterations "
            f"(pos err {np.linalg.norm(err[:3]):.2e} m)"
        )
    return q_cfg
