"""Dual-arm laser-scan-corrected high-precision insertion simulation."""

__version__ = "0.1.0"

from insertsim.geom import Pose, PointCloud, quat_distance, pose_compose

__all__ = [
    "Pose",
    "PointCloud",
    "quat_distance",
    "pose_compose",
    "__version__",
]
