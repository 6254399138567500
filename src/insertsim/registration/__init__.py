from insertsim.registration.params import (
    DegenerateFeatureError,
    DivergenceError,
    InsufficientCorrespondencesError,
    PreprocessingDegenerateError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
)
from insertsim.registration.preprocess import preprocess, statistical_outlier_removal, voxel_downsample
from insertsim.registration.features import FeatureCloud, compute_features, estimate_normals
from insertsim.registration.ransac import RansacResult, ransac_register
from insertsim.registration.icp import IcpResult, icp_refine
from insertsim.registration.pipeline import estimate_pose, prepare_cloud

__all__ = [
    "DegenerateFeatureError",
    "DivergenceError",
    "InsufficientCorrespondencesError",
    "PreprocessingDegenerateError",
    "RegistrationFailedError",
    "RegistrationParams",
    "RegistrationResult",
    "preprocess",
    "statistical_outlier_removal",
    "voxel_downsample",
    "FeatureCloud",
    "compute_features",
    "estimate_normals",
    "RansacResult",
    "ransac_register",
    "IcpResult",
    "icp_refine",
    "estimate_pose",
    "prepare_cloud",
]
