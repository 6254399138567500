from insertsim.arm.model import ArmModel, JointConfig, fk, jacobian
from insertsim.arm.ik import LimitViolationError, UnreachableTargetError, ik
from insertsim.arm.error_model import ArmInstance, ProprioceptionError, execute_motion

__all__ = [
    "ArmModel",
    "JointConfig",
    "fk",
    "jacobian",
    "LimitViolationError",
    "UnreachableTargetError",
    "ik",
    "ArmInstance",
    "ProprioceptionError",
    "execute_motion",
]
