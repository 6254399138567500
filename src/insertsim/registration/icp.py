"""Point-to-point ICP refinement."""

from __future__ import annotations

from typing import NamedTuple, Optional

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
    fitness_history: tuple    # post-update objective per iteration, non-increasing
    iterations: int


def icp_refine(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
               initial_pose: Optional[Pose] = None, scan_tree: Optional[cKDTree] = None) -> IcpResult:
    """Refine the pose of `ref` in the scan frame, starting from `initial_pose`.

    The moving cloud is `ref` placed by `initial_pose` (identity when not
    given); correspondences are nearest scan points within
    `icp_max_correspondence_dist`. The returned pose composes the
    incremental refinement with `initial_pose`, i.e. it maps the reference
    frame into the scan frame. `scan_tree`, a cKDTree over `scan.points`,
    is built here when not given.
    """
    if len(scan) == 0 or len(ref) == 0:
        raise ValueError("clouds must be non-empty")
    if initial_pose is None:
        initial_pose = Pose.identity()
    tree = scan_tree if scan_tree is not None else cKDTree(scan.points)
    moving = initial_pose.transform_points(ref.points)
    cutoff = params.icp_max_correspondence_dist
    R_total = np.eye(3)
    t_total = np.zeros(3)
    history = []
    iterations = 0
    for _ in range(params.icp_max_iterations):
        d, idx = tree.query(moving, distance_upper_bound=cutoff)
        matched = np.isfinite(d)
        if not np.any(matched):
            raise DivergenceError("no correspondences within the cutoff distance")
        targets = scan.points[idx[matched]]
        R, t = kabsch_transform(moving[matched], targets)
        moving = moving @ R.T + t
        R_total = R @ R_total
        t_total = R @ t_total + t
        iterations += 1
        # objective after the update, against the correspondences just used
        resid = moving[matched] - targets
        history.append(float(np.mean(np.einsum("ij,ij->i", resid, resid))))
        angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        if np.linalg.norm(t) < _POS_CONVERGE and angle < _ROT_CONVERGE:
            break

    d, idx = tree.query(moving, distance_upper_bound=cutoff)
    matched = np.isfinite(d)
    if not np.any(matched):
        raise DivergenceError("no correspondences within the cutoff distance")
    fitness = float(np.mean(d[matched] ** 2))
    incremental = Pose(t_total, quat_from_matrix(R_total))
    return IcpResult(fitness, pose_compose(incremental, initial_pose), tuple(history), iterations)
