"""Coarse registration: feature-correspondence RANSAC with an orientation prior.

Two hypothesis sources feed one inlier-count competition:

  - 3-point samples of the scan keypoints paired with descriptor nearest
    neighbors in the reference, solved by Kabsch (the classic prerejective
    flavor). Samples whose triangle edge lengths disagree between the clouds
    are rejected before the costly inlier count.
  - prior-orientation hypotheses: rotation fixed to the identity, the
    orientation the gate is centred on, translation from a single sampled
    correspondence. On small near-symmetric parts (a plate with a hole
    barely off center) descriptors often prefer the flipped match, which the
    orientation gate must then reject; these hypotheses keep gate-compatible
    candidates in the stream regardless.

Triple hypotheses and the polish whose orientation violates the gate
(`in_orientation_gate`) are dropped before counting, so a flipped
basin can never shadow the true one and the returned pose lies in the gate.
The returned transform maps the reference cloud into the scan frame.

Each call draws its hypotheses from the descriptor correspondences and the
sampling pool of `correspondence_candidates`. A run often stops early, so a
keypoint's descriptor kNN is queried on first read: a KD-tree answers each
point on its own, as one batched query of all keypoints would. A hypothesis
scores the number of moved reference keypoints within the inlier threshold
of some scan keypoint, from one query of the scan's keypoint KD-tree; the
winner's matches from that query are the correspondences its polish is
solved on. The KD-trees come from the FeatureClouds, which build each one once.
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
_DESC_KNN = 5           # correspondence candidates per scan keypoint
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


def correspondence_candidates(scan: FeatureCloud, ref: FeatureCloud):
    """Descriptor kNN (scan -> reference), (n_scan, k) reference keypoint
    indices of which only the pool's rows are queried (the rest hold -1 until
    read), and the distinctive-keypoint pool that triple hypotheses sample."""
    if len(scan) < 3 or len(ref) < 3:
        raise InsufficientCorrespondencesError(
            f"need >= 3 keypoints on both sides, got {len(scan)} / {len(ref)}"
        )
    # sample the most distinctive keypoints: on plane-dominant scans the bulk
    # descriptors all look alike and their correspondences are noise
    n_scan = len(scan)
    deviation = np.linalg.norm(scan.descriptors - scan.descriptors.mean(axis=0), axis=1)
    pool_size = min(n_scan, max(40, n_scan // 10))
    pool = np.argsort(deviation, kind="stable")[-pool_size:]
    knn = np.full((n_scan, min(_DESC_KNN, len(ref))), -1, dtype=np.int64)
    knn[pool] = ref.descriptor_tree.query(scan.descriptors[pool], k=knn.shape[1])[1]
    return knn, pool


def ransac_register(scan: FeatureCloud, ref: FeatureCloud, threshold: float,
                    seed: int) -> RansacResult:
    """Best hypothesis of one seeded RANSAC run within the orientation gate,
    polished on its inliers: the reference keypoints it moves to
    within `threshold` (m) of a scan keypoint."""
    if not 0 < threshold < np.inf:
        raise ValueError("threshold must be positive and finite")
    knn, pool = correspondence_candidates(scan, ref)
    k = knn.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAC]))
    scan_pts = scan.keypoints.points
    ref_pts = ref.keypoints.points
    n_scan = len(scan_pts)
    n_ref = len(ref_pts)

    scan_tree = scan.keypoint_tree
    min_edge = 3.0 * threshold

    def score(R, t):
        """Inlier count, inlier mask and matched scan keypoints of a hypothesis."""
        d, idx = scan_tree.query(ref_pts @ R.T + t, distance_upper_bound=threshold)
        inliers = np.isfinite(d)
        return int(np.count_nonzero(inliers)), inliers, idx

    best_count = -1
    best = None
    for it in range(ITERATIONS):
        if it % 2 == 0:
            # feature-triple hypothesis
            sample = pool[rng.choice(len(pool), size=3, replace=False)]
            ref_sample = knn[sample, rng.integers(0, k, size=3)]
            if len(set(ref_sample.tolist())) < 3:
                continue
            src = ref_pts[ref_sample]
            dst = scan_pts[sample]
            e_src = _edge_lengths(src)
            e_dst = _edge_lengths(dst)
            if np.any(e_dst < min_edge):
                continue  # tiny baselines give useless orientations
            longest = np.maximum(e_src, e_dst)
            if np.any(longest <= 0.0) or np.any(np.minimum(e_src, e_dst) / longest < _EDGE_SIMILARITY):
                continue
            area = 0.5 * np.linalg.norm(np.cross(dst[1] - dst[0], dst[2] - dst[0]))
            if area < 0.05 * float(np.max(e_dst)) ** 2:
                continue  # near-collinear, Kabsch is unstable
            R, t = kabsch_transform(src, dst)
            if not in_orientation_gate(quat_from_matrix(R)):
                continue  # already hopeless at the orientation gate
        else:
            # prior-orientation hypothesis from one correspondence
            s = int(rng.integers(0, n_scan))
            if it % 4 == 1:
                if knn[s, 0] < 0:  # first read of a row outside the pool
                    knn[s] = ref.descriptor_tree.query(scan.descriptors[s], k=k)[1]
                r = int(knn[s, rng.integers(0, k)])
            else:
                r = int(rng.integers(0, n_ref))
            R = R_PRIOR
            t = scan_pts[s] - R @ ref_pts[r]

        count, inliers, idx = score(R, t)
        if count > best_count:
            best_count = count
            best = (R, t, inliers, idx)
            if count >= 0.9 * n_ref:
                break

    if best is None:
        raise RegistrationFailedError("RANSAC scored no hypothesis: each one was rejected "
                                      "before scoring", None)

    # polish the winner on its inlier correspondences
    R, t, inliers, idx = best
    count = best_count
    if count >= 3:
        R2, t2 = kabsch_transform(ref_pts[inliers], scan_pts[idx[inliers]])
        if in_orientation_gate(quat_from_matrix(R2)):
            refined_count = score(R2, t2)[0]
            if refined_count >= count:  # a tie is adopted too
                R, t, count = R2, t2, refined_count

    return RansacResult(Pose(t, quat_from_matrix(R)), count / n_ref)
