"""Damped least-squares inverse kinematics with a null-space bias.

The redundancy of the 7-DoF chain is resolved by projecting a pull toward
`bias_config` through (I - J+ J), so different bias configs select different
solutions for the same end-effector target. One SVD of J = U diag(s) Vt per
step gives both the damped least-squares step and that projector,
Vt[r:]^T Vt[r:] with r the rank `np.linalg.pinv` finds.

`ik` judges every iterate through `fk` and steps through `jacobian`, both on
one `JointConfig` object, so the DH chain and pose that configuration holds
(see `insertsim.arm.model`) are computed once per iterate. It starts from
`start` itself and returns the configuration it judged, not a copy, so a
caller's next `fk` of the result, or a next solve started from it, reads that
chain too. The pose goes through `fk` rather than a chain computed here: the
benchmark's `arm.fk` probe wraps this module's `fk` and counts one call per
judged iterate (`arm.fk_per_ik`). `fk` checks no limits; `ik` checks them on
`start` alone, and every later iterate is clamped into them.
"""

from __future__ import annotations

import numpy as np

from insertsim.geom import Pose, quat_to_rotvec, quat_multiply, quat_conjugate, vector_norm
from insertsim.arm.model import ArmModel, JointConfig, fk, jacobian

DAMPING = 1e-3
NULL_GAIN = 0.1
MAX_ITERATIONS = 500
POS_TOL = 1e-6   # m
ROT_TOL = 1e-5   # rad
MAX_STEP = 0.2   # per-joint step clamp, radians


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
    if not np.all(np.isfinite(bias)):
        raise ValueError("bias_config must hold finite joint angles")
    q_cfg = start
    lam2 = DAMPING**2

    for it in range(MAX_ITERATIONS + 1):
        q = q_cfg.angles
        err = _pose_error(target, fk(model, q_cfg))
        task_ok = vector_norm(err[:3]) < POS_TOL and vector_norm(err[3:]) < ROT_TOL
        # stop on the pose just evaluated: it is the one judged below
        if task_ok or it == MAX_ITERATIONS:
            break
        U, s, Vt = np.linalg.svd(jacobian(model, q_cfg))
        # exact projector: a damped pseudoinverse would leak the null-space
        # pull into task space and stall convergence at the damping scale
        null = Vt[np.count_nonzero(s > 1e-15 * s[0]):]  # np.linalg.pinv's rank cutoff
        dq = Vt[:6].T @ (s / (s * s + lam2) * (U.T @ err)) \
            + null.T @ (null @ (NULL_GAIN * (bias - q)))
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
