from insertsim.arm.model import ArmModel, JointConfig, fk, jacobian, mdh_transform, chain_fk
from insertsim.arm.ik import IkSettings, LimitViolationError, UnreachableTargetError, ik
from insertsim.arm.error_model import ArmInstance, ProprioceptionError, execute_motion

__all__ = [
    "ArmModel",
    "JointConfig",
    "fk",
    "jacobian",
    "mdh_transform",
    "chain_fk",
    "IkSettings",
    "LimitViolationError",
    "UnreachableTargetError",
    "ik",
    "ArmInstance",
    "ProprioceptionError",
    "execute_motion",
]
