"""Point-to-point ICP refinement.

Most moving points keep the same nearest scan point from one iteration to
the next, so the loop re-queries the KD-tree only for points whose match it
cannot prove unchanged (the cached k-d tree of Nüchter, Lingemann &
Hertzberg, 3DIM 2007). For each moving point it keeps its matched scan point
`s`, its anchor `a` (where the tree last answered for it) and `r2`, the
distance from `a` to the second-nearest scan point, capped at the cutoff.
At the point's new position `p`, every other scan point `s'` has
`|p - s'| >= |a - s'| - |p - a| >= r2 - |p - a|` by the triangle inequality,
so `|p - s| + |p - a| < r2` proves that `s` is still the unique nearest scan
point and, as `r2` is capped, that it lies within the cutoff. The test is
made with the relative margin `_MATCH_MARGIN`, far above the rounding of
these distances and of the tree's own, so the tree would return `s` too.
Every other point is re-queried with `k=2`, which gives its new `r2`.

Tie rule: where the `k=2` answer does not itself pass the test at its query
point (the two distances tie within the margin, or the nearest sits at the
cutoff), the point takes the `k=1` answer, because on exact ties cKDTree's
`k=2` first column need not be the point its `k=1` query picks; such a point
gets `r2` equal to its nearest distance, which no other scan point undercuts.
The matches therefore equal those of a full `k=1` query in every iteration.

The fitness after the last iteration uses the same certificate: a held point
takes its distance to its match from `geom.column_norm`, the expression
cKDTree itself evaluates, and only the other points ask the tree with
`k=1`. So `fitness` keeps the tree's own distances bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, column_norm, pose_compose, quat_from_matrix
from insertsim.registration.params import DivergenceError, RegistrationParams
from insertsim.registration.rigid import kabsch_transform

_POS_CONVERGE = 1e-9   # m, incremental translation
_ROT_CONVERGE = 1e-8   # rad, incremental rotation
_MATCH_MARGIN = 1e-9   # relative margin of the match-reuse test


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
    nn = np.zeros(len(moving), dtype=np.intp)   # matched scan point per moving point
    anchor = np.zeros_like(moving)
    r2 = np.full(len(moving), -np.inf)          # -inf: unmatched, query again
    R_total = np.eye(3)
    t_total = np.zeros(3)
    history = []
    iterations = 0
    for _ in range(params.icp_max_iterations):
        # a match held by the certificate (module docstring) is kept; the rest ask the tree
        _, stale = _certify(moving, scan.points[nn], anchor, r2)
        if len(stale):
            anchor[stale] = moving[stale]
            nn[stale], r2[stale] = _query(tree, moving[stale], cutoff)
        matched = r2 > -np.inf
        if not np.any(matched):
            raise DivergenceError("no correspondences within the cutoff distance")
        targets = scan.points[nn[matched]]
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

    # held matches give their distance as the tree would; the rest ask the tree
    d, stale = _certify(moving, scan.points[nn], anchor, r2)
    if len(stale):
        d[stale], _ = tree.query(moving[stale], distance_upper_bound=cutoff)
    matched = np.isfinite(d)
    if not np.any(matched):
        raise DivergenceError("no correspondences within the cutoff distance")
    fitness = float(np.mean(d[matched] ** 2))
    incremental = Pose(t_total, quat_from_matrix(R_total))
    return IcpResult(fitness, pose_compose(incremental, initial_pose), tuple(history), iterations)


def _certify(moving: np.ndarray, matches: np.ndarray, anchor: np.ndarray, r2: np.ndarray):
    """Distance of each moving point to its match, and the indices of the
    points whose match the certificate cannot keep."""
    dist = column_norm(*(moving - matches).T)
    held = dist + column_norm(*(moving - anchor).T)
    return dist, np.flatnonzero(~(held * (1.0 + _MATCH_MARGIN) < r2))


def _query(tree: cKDTree, points: np.ndarray, cutoff: float):
    """Nearest scan point (index, 0 where none) and `r2` of each query point;
    `r2` is -inf where no scan point lies within the cutoff."""
    d, idx = tree.query(points, k=2, distance_upper_bound=cutoff)
    nn, d1 = idx[:, 0], d[:, 0]
    r2 = np.minimum(d[:, 1], cutoff)
    # a tie, or a nearest distance at the cutoff: take the k=1 answer
    unsure = np.flatnonzero(np.isfinite(d1) & ~(d1 * (1.0 + _MATCH_MARGIN) < r2))
    if len(unsure):
        d1[unsure], nn[unsure] = tree.query(points[unsure], distance_upper_bound=cutoff)
        r2[unsure] = d1[unsure]
    matched = np.isfinite(d1)
    return np.where(matched, nn, 0), np.where(matched, r2, -np.inf)
