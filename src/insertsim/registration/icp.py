"""Point-to-point ICP refinement.

Each iteration matches every moving point to its nearest scan point within
the cutoff, with one k=1 query of the scan's KD-tree (`PointCloud.tree`),
and solves the rigid update on those matches by Kabsch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from insertsim.geom import PointCloud, Pose, pose_compose, quat_from_matrix
from insertsim.registration.params import DivergenceError
from insertsim.registration.rigid import kabsch_transform

MAX_ITERATIONS = 60
_POS_CONVERGE = 1e-9   # m, incremental translation
_ROT_CONVERGE = 1e-8   # rad, incremental rotation


class IcpResult(NamedTuple):
    fitness: float            # mean squared correspondence distance at convergence
    pose: Pose                # total ref -> scan transform (incremental ∘ initial)
    iterations: int


def icp_refine(scan: PointCloud, ref: PointCloud, cutoff: float,
               initial_pose: Pose) -> IcpResult:
    """Refine the pose of `ref` in the scan frame, starting from `initial_pose`.

    The moving cloud is `ref` placed by `initial_pose`; correspondences are
    nearest scan points within `cutoff` (m), found in the scan's own tree,
    `scan.tree`. The returned pose composes the incremental refinement
    with `initial_pose`, i.e. it maps the reference frame into the scan frame.
    """
    if len(scan) == 0 or len(ref) == 0:
        raise ValueError("clouds must be non-empty")
    if not 0 < cutoff < np.inf:
        raise ValueError("cutoff must be positive and finite")
    moving = initial_pose.transform_points(ref.points)
    R_total = np.eye(3)
    t_total = np.zeros(3)
    converged = False
    for iterations in range(MAX_ITERATIONS + 1):
        d, idx = scan.tree.query(moving, distance_upper_bound=cutoff)
        matched = np.isfinite(d)
        if not np.any(matched):
            raise DivergenceError("no correspondences within the cutoff distance")
        # stop on the pose just matched: its matches give the fitness
        if converged or iterations == MAX_ITERATIONS:
            break
        R, t = kabsch_transform(moving[matched], scan.points[idx[matched]])
        moving = moving @ R.T + t
        R_total = R @ R_total
        t_total = R @ t_total + t
        angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        converged = np.linalg.norm(t) < _POS_CONVERGE and angle < _ROT_CONVERGE

    fitness = float(np.mean(d[matched] ** 2))
    incremental = Pose(t_total, quat_from_matrix(R_total))
    return IcpResult(fitness, pose_compose(incremental, initial_pose), iterations)
