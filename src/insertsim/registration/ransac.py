"""Coarse registration: feature-correspondence RANSAC with an orientation prior.

Every hypothesis is drawn from one table: the descriptor kNN in the reference
of the scan's most distinctive keypoints (the pool), queried once, before the
first hypothesis. Two kinds of hypothesis sample it and feed one inlier-count
competition:

  - 3-point samples of pool keypoints paired with their descriptor nearest
    neighbors in the reference, solved by Kabsch (the classic prerejective
    flavor). Samples whose triangle edge lengths disagree between the clouds
    are rejected before the costly inlier count.
  - prior-orientation hypotheses: rotation fixed to the identity, the
    orientation the gate is centred on, translation from one pool keypoint
    and one of its matches. On small near-symmetric parts (a plate with a
    hole barely off center) descriptors often prefer the flipped match,
    which the orientation gate must then reject; these hypotheses keep
    gate-compatible candidates in the stream regardless.

Triple hypotheses whose orientation violates the gate (`in_orientation_gate`)
are dropped before counting, so a flipped basin can never shadow the true
one and the returned pose lies in the gate. The returned transform, the best
hypothesis as drawn, maps the reference cloud into the scan frame; refining
it is ICP's job alone.

A hypothesis scores the number of moved reference keypoints within the
inlier threshold of some scan keypoint (its inliers); the run returns the
first hypothesis to reach 90% of the reference keypoints, or else the first
of the highest count. Most hypotheses are decided long before every point is
queried, so scoring runs as two passes over the hypotheses, in draw order,
and stops counting a hypothesis once its outliers exceed a budget:

  1. Each hypothesis is tested only for the stop, with the budget
     n_ref - ceil(0.9 n_ref). The first to finish within it reached the stop,
     and every earlier one counted fewer, so it is the run's winner. Every
     point of the winner was queried, so its inlier fraction is exact.
  2. Only when none reaches the stop are the hypotheses scored again, with
     the budget n_ref - (best + 1) for the highest count so far, best: a
     hypothesis that exceeds it cannot count more than best, and one that
     finishes within it counts more and is scored exactly. Ties keep the
     earlier hypothesis.

The result is the one full scoring gives, bit for bit: the tree returns the
same distance for a point whatever batch it comes in, and a count does not
depend on the order of its points. The moved keypoints are queried in
`_SLICES` strided slices, because the reference keypoints lie in raster
order and a contiguous prefix would cover one end of the part only. Each
KD-tree is built once, on first use, and kept: the descriptor tree by the
FeatureCloud, the keypoint tree by its PointCloud.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from insertsim.geom import Pose, quat_from_matrix
from insertsim.registration.features import FeatureCloud
from insertsim.registration.params import InsufficientCorrespondencesError, \
    RegistrationFailedError, in_orientation_gate
from insertsim.registration.rigid import kabsch_transform

ITERATIONS = 2000       # hypotheses per run, at most
_EDGE_SIMILARITY = 0.9  # min/max edge-length ratio accepted by the prerejector
_DESC_KNN = 5           # correspondence candidates per pool keypoint
_SLICES = 8             # strided slices a hypothesis is scored in
R_PRIOR = np.eye(3)     # rotation of every prior-orientation hypothesis
R_PRIOR.flags.writeable = False


class RansacResult(NamedTuple):
    pose: Pose
    inlier_fraction: float


def _edge_lengths(pts: np.ndarray) -> np.ndarray:
    return np.array([
        np.linalg.norm(pts[0] - pts[1]),
        np.linalg.norm(pts[1] - pts[2]),
        np.linalg.norm(pts[2] - pts[0]),
    ])


def _inlier_count(tree, moved: np.ndarray, threshold: float, budget: int) -> int:
    """Inliers among `moved`, the points within `threshold` of a point of
    `tree`, or -1 as soon as more than `budget` of them are outliers."""
    outliers = 0
    for j in range(_SLICES):
        d = tree.query(moved[j::_SLICES], distance_upper_bound=threshold)[0]
        outliers += int(np.count_nonzero(np.isinf(d)))  # inf: no scan keypoint in reach
        if outliers > budget:
            return -1
    return len(moved) - outliers


def ransac_register(scan: FeatureCloud, ref: FeatureCloud, threshold: float,
                    seed: int) -> RansacResult:
    """Best hypothesis of one seeded RANSAC run within the orientation gate,
    unrefined, and its inlier fraction: the share of reference keypoints it
    moves to within `threshold` (m) of a scan keypoint."""
    if not 0 < threshold < np.inf:
        raise ValueError("threshold must be positive and finite")
    if len(scan) < 3 or len(ref) < 3:
        raise InsufficientCorrespondencesError(
            f"need >= 3 keypoints on both sides, got {len(scan)} / {len(ref)}"
        )
    # sample the most distinctive keypoints: on plane-dominant scans the bulk
    # descriptors all look alike and their correspondences are noise
    deviation = np.linalg.norm(scan.descriptors - scan.descriptors.mean(axis=0), axis=1)
    pool = np.argsort(deviation, kind="stable")[-max(40, len(scan) // 10):]
    k = min(_DESC_KNN, len(ref))
    knn = ref.descriptor_tree.query(scan.descriptors[pool], k=k)[1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAC]))
    scan_pts = scan.keypoints.points
    ref_pts = ref.keypoints.points
    n_ref = len(ref_pts)

    min_edge = 3.0 * threshold
    tree = scan.keypoints.tree
    stop = math.ceil(0.9 * n_ref)  # the inlier count that ends the run

    scored = []  # pass 1: the first hypothesis to reach the stop wins
    for it in range(ITERATIONS):
        if it % 2 == 0:
            # feature-triple hypothesis
            rows = rng.choice(len(pool), size=3, replace=False)
            ref_sample = knn[rows, rng.integers(0, k, size=3)]
            src = ref_pts[ref_sample]
            dst = scan_pts[pool[rows]]
            e_src = _edge_lengths(src)
            e_dst = _edge_lengths(dst)
            if np.any(e_dst < min_edge):
                continue  # tiny baselines give useless orientations
            longest = np.maximum(e_src, e_dst)
            if np.any(np.minimum(e_src, e_dst) / longest < _EDGE_SIMILARITY):
                continue
            area = 0.5 * np.linalg.norm(np.cross(dst[1] - dst[0], dst[2] - dst[0]))
            if area < 0.05 * float(np.max(e_dst)) ** 2:
                continue  # near-collinear, Kabsch is unstable
            R, t = kabsch_transform(src, dst)
            if not in_orientation_gate(quat_from_matrix(R)):
                continue  # already hopeless at the orientation gate
        else:
            # prior-orientation hypothesis from one correspondence
            row = int(rng.integers(0, len(pool)))
            R = R_PRIOR
            t = scan_pts[pool[row]] - R @ ref_pts[knn[row, rng.integers(0, k)]]

        count = _inlier_count(tree, ref_pts @ R.T + t, threshold, n_ref - stop)
        if count >= stop:
            return RansacResult(Pose(t, quat_from_matrix(R)), count / n_ref)
        scored.append((R, t))

    if not scored:
        raise RegistrationFailedError("RANSAC scored no hypothesis: each one was rejected "
                                      "before scoring", None)

    best_count = -1  # pass 2: the first of the highest count wins
    for R, t in scored:
        count = _inlier_count(tree, ref_pts @ R.T + t, threshold, n_ref - (best_count + 1))
        if count > best_count:
            best_count = count
            best = (R, t)

    R, t = best
    return RansacResult(Pose(t, quat_from_matrix(R)), best_count / n_ref)
