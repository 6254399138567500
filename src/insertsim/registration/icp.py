"""Point-to-point ICP refinement.

Each iteration matches every moving point to its nearest scan point within
the cutoff, with one k=1 query of the scan's KD-tree, and solves the rigid
update on those matches by Kabsch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, pose_compose, quat_from_matrix
from insertsim.registration.params import DivergenceError, RegistrationParams
from insertsim.registration.rigid import kabsch_transform

_POS_CONVERGE = 1e-9   # m, incremental translation
_ROT_CONVERGE = 1e-8   # rad, incremental rotation


class IcpResult(NamedTuple):
    fitness: float            # mean squared correspondence distance at convergence
    pose: Pose                # total ref -> scan transform (incremental ∘ initial)
    iterations: int


def icp_refine(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
               initial_pose: Pose, scan_tree: cKDTree) -> IcpResult:
    """Refine the pose of `ref` in the scan frame, starting from `initial_pose`.

    The moving cloud is `ref` placed by `initial_pose`; correspondences are
    nearest scan points within `icp_max_correspondence_dist`, found in
    `scan_tree`, a cKDTree over `scan.points`. The returned pose composes the
    incremental refinement with `initial_pose`, i.e. it maps the reference
    frame into the scan frame.
    """
    if len(scan) == 0 or len(ref) == 0:
        raise ValueError("clouds must be non-empty")
    moving = initial_pose.transform_points(ref.points)
    cutoff = params.icp_max_correspondence_dist
    R_total = np.eye(3)
    t_total = np.zeros(3)
    iterations = 0
    for _ in range(params.icp_max_iterations):
        d, idx = scan_tree.query(moving, distance_upper_bound=cutoff)
        matched = np.isfinite(d)
        if not np.any(matched):
            raise DivergenceError("no correspondences within the cutoff distance")
        targets = scan.points[idx[matched]]
        R, t = kabsch_transform(moving[matched], targets)
        moving = moving @ R.T + t
        R_total = R @ R_total
        t_total = R @ t_total + t
        iterations += 1
        angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        if np.linalg.norm(t) < _POS_CONVERGE and angle < _ROT_CONVERGE:
            break

    d, _ = scan_tree.query(moving, distance_upper_bound=cutoff)
    matched = np.isfinite(d)
    if not np.any(matched):
        raise DivergenceError("no correspondences within the cutoff distance")
    fitness = float(np.mean(d[matched] ** 2))
    incremental = Pose(t_total, quat_from_matrix(R_total))
    return IcpResult(fitness, pose_compose(incremental, initial_pose), iterations)

