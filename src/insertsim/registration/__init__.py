from insertsim.registration.params import (
    DegenerateFeatureError,
    DivergenceError,
    InsufficientCorrespondencesError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
)
from insertsim.registration.features import FeatureCloud, compute_features
from insertsim.registration.ransac import RansacResult, ransac_register
from insertsim.registration.icp import IcpResult, icp_refine
from insertsim.registration.pipeline import estimate_pose, prepare_cloud

__all__ = [
    "DegenerateFeatureError",
    "DivergenceError",
    "InsufficientCorrespondencesError",
    "RegistrationFailedError",
    "RegistrationParams",
    "RegistrationResult",
    "FeatureCloud",
    "compute_features",
    "RansacResult",
    "ransac_register",
    "IcpResult",
    "icp_refine",
    "estimate_pose",
    "prepare_cloud",
]
