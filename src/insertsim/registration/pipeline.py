"""Full pose estimation: preprocess, then loop RANSAC -> orientation gate -> ICP.

The loop keeps the lowest-fitness gated result and stops once it reaches
rho_icp. The orientation gate is checked on the RANSAC hypothesis (cheap
rejection of flipped or degenerate-symmetry matches) and re-checked on the
refined pose before it can be kept, so every result this function ever
returns satisfies the gate. The while-loop is bounded by max_outer_loops;
exhaustion raises RegistrationFailedError carrying the best estimate so the
caller can decide to rescan and retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from insertsim.geom import PointCloud, quat_distance, transform_cloud
from insertsim.registration.features import FeatureCloud, compute_features
from insertsim.registration.icp import icp_refine
from insertsim.registration.params import (
    DivergenceError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
)
from insertsim.registration.preprocess import preprocess
from insertsim.registration.ransac import correspondence_candidates, ransac_register

_FITNESS_SENTINEL = 1e6  # effectively infinite start for the best fitness


@dataclass(frozen=True)
class PreparedCloud:
    """Conditioned cloud: keypoints with descriptors, also the ICP cloud.

    Registration queries the KD-trees of `features`: the descriptor tree for
    correspondences and the keypoint tree for ICP matching. Each is built on
    first use and kept, so no outer loop and no later estimate_pose call
    against the same prepared cloud rebuilds one.
    """

    features: FeatureCloud

    @property
    def fine(self) -> PointCloud:
        """The cloud ICP refines on: the keypoints of `features`."""
        return self.features.keypoints


def prepare_cloud(cloud: PointCloud, params: RegistrationParams) -> PreparedCloud:
    """Preprocess and describe a cloud once; reusable across estimate_pose calls.

    Outlier removal, the voxel grid, normals and FPFH run here, once per
    cloud. The KD-trees are built lazily by the returned FeatureCloud.
    """
    return PreparedCloud(compute_features(preprocess(cloud, params), params.effective_feature_radius))


def _loop_seed(seed: int, loop: int) -> int:
    return int(np.random.SeedSequence([int(seed), 0x10D, loop]).generate_state(1, dtype=np.uint64)[0])


def estimate_pose(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                  seed: int, ref_prepared: Optional[PreparedCloud] = None) -> RegistrationResult:
    """Estimate the pose mapping `ref` into the frame of `scan`."""
    if len(scan) == 0 or (ref_prepared is None and len(ref) == 0):
        raise ValueError("clouds must be non-empty")
    scan_p = prepare_cloud(scan, params)
    if ref_prepared is None:
        ref_prepared = prepare_cloud(ref, params)
    # the seed only changes the RANSAC sampling; correspondences are per pair
    candidates = correspondence_candidates(scan_p.features, ref_prepared.features)

    f_best = _FITNESS_SENTINEL
    best_pose = None
    best_fraction = 0.0
    history = []
    loops = 0
    for loop in range(params.max_outer_loops):
        loops += 1
        coarse = ransac_register(scan_p.features, ref_prepared.features, params,
                                 _loop_seed(seed, loop), candidates)
        if quat_distance(coarse.pose.orientation, params.q0) < params.rho_rot:
            try:
                aligned_fine = transform_cloud(ref_prepared.fine, coarse.pose)
                refined = icp_refine(scan_p.fine, aligned_fine, params, initial_pose=coarse.pose,
                                     scan_tree=scan_p.features.keypoint_tree)
            except DivergenceError:
                refined = None  # coarse pose too far off; try another loop
            if refined is not None and refined.fitness < f_best and \
                    quat_distance(refined.pose.orientation, params.q0) < params.rho_rot:
                f_best = refined.fitness
                best_pose = refined.pose
                best_fraction = coarse.inlier_fraction
        history.append(f_best)
        if f_best <= params.rho_icp:
            return RegistrationResult(
                pose=best_pose,
                fitness=f_best,
                outer_loops_used=loops,
                ransac_inlier_fraction=best_fraction,
                fitness_history=tuple(history),
            )

    best = None
    if best_pose is not None:
        best = RegistrationResult(
            pose=best_pose,
            fitness=f_best,
            outer_loops_used=loops,
            ransac_inlier_fraction=best_fraction,
            fitness_history=tuple(history),
        )
    raise RegistrationFailedError(
        f"fitness {f_best:.3e} above rho_icp {params.rho_icp:.3e} "
        f"after {loops} outer loops", best)
