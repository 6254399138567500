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
inlier threshold of some scan keypoint, from one query of the scan
keypoints' KD-tree. Each KD-tree is built once, on first use, and kept: the
descriptor tree by the FeatureCloud, the keypoint tree by its PointCloud.
"""

from __future__ import annotations

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

    def score(R, t):
        """Inlier count of a hypothesis."""
        d = scan.keypoints.tree.query(ref_pts @ R.T + t, distance_upper_bound=threshold)[0]
        return int(np.count_nonzero(np.isfinite(d)))

    best_count = -1
    best = None
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

        count = score(R, t)
        if count > best_count:
            best_count = count
            best = (R, t)
            if count >= 0.9 * n_ref:
                break

    if best is None:
        raise RegistrationFailedError("RANSAC scored no hypothesis: each one was rejected "
                                      "before scoring", None)

    R, t = best
    return RansacResult(Pose(t, quat_from_matrix(R)), best_count / n_ref)
