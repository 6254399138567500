"""Damped least-squares inverse kinematics with a null-space bias.

The redundancy of the 7-DoF chain is resolved by projecting a pull toward
`bias_config` through (I - J+ J), so different bias configs select different
solutions for the same end-effector target. `settle_iterations` keeps
iterating after task convergence, letting the null-space term tighten the
solution around the bias; the residual distance to the bias is what makes
re-configured insertions land differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insertsim.geom import Pose, quat_to_rotvec, quat_multiply, quat_conjugate
from insertsim.arm.model import ArmModel, JointConfig, fk, jacobian


class UnreachableTargetError(RuntimeError):
    pass


class LimitViolationError(RuntimeError):
    pass


@dataclass(frozen=True)
class IkSettings:
    damping: float = 1e-3
    null_gain: float = 0.1
    max_iterations: int = 500
    pos_tol: float = 1e-6
    rot_tol: float = 1e-5
    max_step: float = 0.2       # per-joint step clamp, radians
    settle_iterations: int = 0  # extra iterations after task convergence


def _pose_error(target: Pose, current: Pose) -> np.ndarray:
    e_pos = target.position - current.position
    q_err = quat_multiply(target.orientation, quat_conjugate(current.orientation))
    return np.concatenate([e_pos, quat_to_rotvec(q_err)])


def ik(model: ArmModel, target: Pose, bias_config: JointConfig, start: JointConfig,
       settings: IkSettings = IkSettings()) -> JointConfig:
    """Solve joints for `target`, staying close to `bias_config` in the null space."""
    model.check_limits(start)
    q = start.angles.copy()
    bias = bias_config.angles
    lam2 = settings.damping**2
    eye6 = np.eye(6)
    eye7 = np.eye(model.dof)

    converged_at = None
    total = settings.max_iterations
    it = 0
    while True:
        it += 1
        cur = fk(model, JointConfig(q), check_limits=False)
        err = _pose_error(target, cur)
        task_ok = np.linalg.norm(err[:3]) < settings.pos_tol and \
            np.linalg.norm(err[3:]) < settings.rot_tol
        if task_ok and converged_at is None:
            converged_at = it
            total = min(settings.max_iterations, it + settings.settle_iterations)
        # stop on the pose just evaluated: it is the one judged below
        if it > total or (task_ok and it >= total):
            break
        J = jacobian(model, JointConfig(q))
        JJt = J @ J.T + lam2 * eye6
        J_dls = J.T @ np.linalg.inv(JJt)
        # exact projector: a damped pseudoinverse would leak the null-space
        # pull into task space and stall convergence at the damping scale
        null_proj = eye7 - np.linalg.pinv(J) @ J
        dq = J_dls @ err + null_proj @ (settings.null_gain * (bias - q))
        dq = np.clip(dq, -settings.max_step, settings.max_step)
        q = model.clamp(q + dq)

    if not task_ok:
        at_limit = np.isclose(q, model.joint_limits[:, 0]) | np.isclose(q, model.joint_limits[:, 1])
        if np.any(at_limit):
            raise LimitViolationError(
                f"stalled with joints {np.where(at_limit)[0].tolist()} pinned at limits"
            )
        raise UnreachableTargetError(
            f"no convergence after {settings.max_iterations} iterations "
            f"(pos err {np.linalg.norm(err[:3]):.2e} m)"
        )
    return JointConfig(q)
