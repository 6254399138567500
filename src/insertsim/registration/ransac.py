"""Coarse registration: feature-correspondence RANSAC with an orientation prior.

Two hypothesis sources feed one inlier-count competition:

  - 3-point samples of the scan keypoints paired with descriptor nearest
    neighbors in the reference, solved by Kabsch (the classic prerejective
    flavor). Samples whose triangle edge lengths disagree between the clouds
    are rejected before the costly inlier count.
  - prior-orientation hypotheses: rotation fixed to q0, translation from a
    single sampled correspondence. On small near-symmetric parts (a plate
    with a hole barely off center) descriptors often prefer the flipped
    match, which the orientation gate must then reject; these hypotheses
    keep gate-compatible candidates in the stream regardless.

Hypotheses whose orientation already violates the rho_rot gate are skipped
before counting, so a flipped basin can never shadow the true one. The
returned transform maps the reference cloud into the scan frame.

The descriptor correspondences, the sampling pool and the inlier grid depend
only on the two clouds and the inlier threshold, not on the seed:
`correspondence_candidates` computes them once per scan/reference pair
(estimate_pose does so once per call, before its outer loop) and every
RANSAC round reuses them. The KD-trees come from the FeatureClouds, which
build each one once.

Scoring. A hypothesis scores the number of moved reference keypoints within
the inlier threshold `thr` of some scan keypoint. The inlier grid settles
most points without the KD-tree: it splits space into cubes of edge thr/2
and holds one int8 per cube of the box around the scan keypoints: 2 for a
cube that holds a scan keypoint, 1 for a cube within 3 cubes (Chebyshev) of
one, 0 for the rest. A point in a 2 cube is within sqrt(3)/2 * thr ~ 0.87 thr
of its keypoint, so it is an inlier; a point in a 0 cube is more than
3 * thr/2 = 1.5 thr from every scan keypoint along some axis, so it is an
outlier. The box has one layer of 0 cubes beyond the reach, so a point
outside the box, clamped onto that layer, is an outlier too. Only the points
in 1 cubes are looked up in the scan's KD-tree, so the count equals the
tree's count over all points: cube indices stay below 2**40, where their
rounding is far below the margins (0.13 thr and 0.5 thr); beyond that the
grid is not built. A loser does not even ask the tree: the points in 2
cubes bound its count from below and those in 1 or 2 cubes from above, and
when that upper bound is no more than the best count so far, the hypothesis
can neither win nor reach the 0.9 early stop, so its 1 cubes are not looked
up (the polish, which keeps a tie, bounds against its count minus one).
Only the winner gets a full tree query, for the inlier correspondences its
polish is solved on.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from scipy.ndimage import maximum_filter
from scipy.spatial import cKDTree

from insertsim.geom import Pose, quat_from_matrix, quat_distance, quat_to_matrix
from insertsim.registration.features import FeatureCloud
from insertsim.registration.params import InsufficientCorrespondencesError, RegistrationParams
from insertsim.registration.rigid import kabsch_transform

_EDGE_SIMILARITY = 0.9  # min/max edge-length ratio accepted by the prerejector
_DESC_KNN = 5           # correspondence candidates per scan keypoint
_GRID_REACH = 3         # cubes around an occupied cube that may hold inliers
# Cube indices stay below 2**40 so that their rounding is far below one cube.
_MAX_CUBE_INDEX = 2.0 ** 40


class RansacResult(NamedTuple):
    pose: Pose
    inlier_fraction: float


def _edge_lengths(pts: np.ndarray) -> np.ndarray:
    return np.array([
        np.linalg.norm(pts[0] - pts[1]),
        np.linalg.norm(pts[1] - pts[2]),
        np.linalg.norm(pts[2] - pts[0]),
    ])


class InlierGrid(NamedTuple):
    """One int8 per cube of edge threshold/2 in the box [lo, lo + top] of
    cube indices, which pads the keypoints' cubes by _GRID_REACH + 1 on every
    side: 2 if the cube holds a keypoint, 1 if it lies within _GRID_REACH
    cubes of one, 0 otherwise."""

    threshold: float
    lo: np.ndarray     # (3,) lowest cube index of the box
    top: np.ndarray    # (3,) highest cube index of the box, relative to lo
    state: np.ndarray  # (nx, ny, nz) int8 cube states


def inlier_grid(points: np.ndarray, threshold: float) -> Optional[InlierGrid]:
    """Inlier grid over `points`; None when cube indices reach 2**40 or the
    box holds more than (2 * _GRID_REACH + 1)**3 cubes per point."""
    cubes = np.floor(points / (threshold / 2))
    if not np.all(np.abs(cubes) < _MAX_CUBE_INDEX):
        return None
    lo = cubes.min(axis=0) - (_GRID_REACH + 1)
    top = cubes.max(axis=0) + (_GRID_REACH + 1) - lo
    shape = tuple(int(n) + 1 for n in top)
    if shape[0] * shape[1] * shape[2] > (2 * _GRID_REACH + 1) ** 3 * len(points):
        return None
    occupied = np.zeros(shape, dtype=np.int8)
    occupied[tuple((cubes - lo).astype(np.intp).T)] = 1
    near = maximum_filter(occupied, size=2 * _GRID_REACH + 1, mode="constant")
    return InlierGrid(float(threshold), lo, top, near + occupied)


def inlier_count(moved: np.ndarray, tree: cKDTree, threshold: float,
                 grid: Optional[InlierGrid], beat: int) -> int:
    """Points of `moved` within `threshold` of a point of `tree`, as the tree
    counts them, when that count exceeds `beat`; otherwise some number <= `beat`.

    `grid` must be inlier_grid(tree.data, threshold); with None every point
    is looked up in the tree.
    """
    if grid is None:
        d, _ = tree.query(moved, distance_upper_bound=threshold)
        return int(np.count_nonzero(np.isfinite(d)))
    cubes = moved / (threshold / 2)
    np.floor(cubes, out=cubes)
    cubes -= grid.lo
    np.clip(cubes, 0.0, grid.top, out=cubes)
    i, j, k = cubes.astype(np.intp).T
    state = grid.state[i, j, k]
    near = state == 1
    sure = int(np.count_nonzero(state == 2))
    most = sure + int(np.count_nonzero(near))
    if most <= beat:
        return most  # even if every near point were an inlier, the count cannot beat `beat`
    d, _ = tree.query(moved[near], distance_upper_bound=threshold)
    return sure + int(np.count_nonzero(np.isfinite(d)))


class Candidates(NamedTuple):
    knn: np.ndarray   # (n_scan, k) reference keypoints nearest in descriptor space
    pool: np.ndarray  # scan keypoints that triple hypotheses sample from
    grid: Optional[InlierGrid]  # inlier grid over the scan keypoints


def correspondence_candidates(scan: FeatureCloud, ref: FeatureCloud,
                              threshold: float) -> Candidates:
    """Descriptor kNN (scan -> reference), the distinctive-keypoint pool and
    the inlier grid of `threshold` over the scan keypoints."""
    if len(scan) < 3 or len(ref) < 3:
        raise InsufficientCorrespondencesError(
            f"need >= 3 keypoints on both sides, got {len(scan)} / {len(ref)}"
        )
    _, knn = ref.descriptor_tree.query(scan.descriptors, k=min(_DESC_KNN, len(ref)))
    # sample the most distinctive keypoints: on plane-dominant scans the bulk
    # descriptors all look alike and their correspondences are noise
    n_scan = len(scan)
    deviation = np.linalg.norm(scan.descriptors - scan.descriptors.mean(axis=0), axis=1)
    pool_size = min(n_scan, max(40, n_scan // 10))
    pool = np.argsort(deviation, kind="stable")[-pool_size:]
    return Candidates(np.asarray(knn, dtype=np.int64), pool,
                      inlier_grid(scan.keypoints.points, threshold))


def ransac_register(scan: FeatureCloud, ref: FeatureCloud, params: RegistrationParams,
                    seed: int, candidates: Optional[Candidates] = None) -> RansacResult:
    """Best gated hypothesis of one seeded RANSAC round, polished on its inliers.

    `candidates` must come from correspondence_candidates(scan, ref,
    params.ransac_inlier_threshold); it is computed here when not given.
    """
    threshold = params.ransac_inlier_threshold
    if candidates is None:
        candidates = correspondence_candidates(scan, ref, threshold)
    knn, pool, grid = candidates
    if grid is not None and grid.threshold != threshold:
        raise ValueError("candidates were built for another inlier threshold")
    k = knn.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAC]))
    scan_pts = scan.keypoints.points
    ref_pts = ref.keypoints.points
    n_scan = len(scan_pts)
    n_ref = len(ref_pts)

    scan_tree = scan.keypoint_tree
    min_edge = 3.0 * threshold
    R_prior = quat_to_matrix(params.q0)
    # prior hypotheses all share R_prior, so they all pass or all fail the gate
    prior_passes_gate = quat_distance(quat_from_matrix(R_prior), params.q0) < params.rho_rot

    def score(R, t, beat):
        return inlier_count(ref_pts @ R.T + t, scan_tree, threshold, grid, beat)

    best_count = -1
    best = None
    for it in range(params.ransac_iterations):
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
            if quat_distance(quat_from_matrix(R), params.q0) >= params.rho_rot:
                continue  # already hopeless at the orientation gate
        else:
            # prior-orientation hypothesis from one correspondence
            s = int(rng.integers(0, n_scan))
            if it % 4 == 1:
                r = int(knn[s, rng.integers(0, k)])
            else:
                r = int(rng.integers(0, n_ref))
            if not prior_passes_gate:
                continue
            R = R_prior
            t = scan_pts[s] - R @ ref_pts[r]

        count = score(R, t, best_count)
        if count > best_count:
            best_count = count
            best = (R, t)
            if count >= 0.9 * n_ref:
                break

    if best is None:
        # nothing scored (all samples prerejected); report a null alignment
        return RansacResult(Pose.identity(), 0.0)

    # polish the winner on its inlier correspondences
    R, t = best
    count = best_count
    if count >= 3:
        d, idx = scan_tree.query(ref_pts @ R.T + t, distance_upper_bound=threshold)
        inliers = np.isfinite(d)
        R2, t2 = kabsch_transform(ref_pts[inliers], scan_pts[idx[inliers]])
        if quat_distance(quat_from_matrix(R2), params.q0) < params.rho_rot:
            refined_count = score(R2, t2, count - 1)  # a tie is adopted too
            if refined_count >= count:
                R, t, count = R2, t2, refined_count

    return RansacResult(Pose(t, quat_from_matrix(R)), count / n_ref)
