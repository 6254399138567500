"""Full pose estimation: prepare both clouds, then loop RANSAC -> orientation
gate -> ICP.

A cloud that carries its scanner raster and the raster's shape is
registered on its outline, and the thresholds left None in the params are
derived from the scan's pitch (`RegistrationParams.resolved`); a cloud
without one takes outlier removal, the voxel grid and the whole-cloud
defaults. The loop keeps the lowest-fitness gated result and stops once it
reaches rho_icp, which on a raster is the pitch gate ds^2 + dl^2: the true
pose passes it, so a scan that registers does so in the first loop. The
orientation gate is checked on the RANSAC hypothesis (cheap rejection of
flipped or degenerate-symmetry matches) and re-checked on the refined pose
before it can be kept, so every result this function ever returns satisfies
the gate. The outer for-loop runs at most max_outer_loops times; exhaustion
raises RegistrationFailedError carrying the best estimate so the caller can
decide to rescan and retry.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from insertsim.geom import PointCloud, quat_distance
from insertsim.registration.features import FeatureCloud, compute_features
from insertsim.registration.icp import icp_refine
from insertsim.registration.params import (
    DivergenceError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
)
from insertsim.registration.preprocess import outline, preprocess, raster_pitch
from insertsim.registration.ransac import correspondence_candidates, ransac_register

_FITNESS_SENTINEL = 1e6  # effectively infinite start for the best fitness


def _prepare(cloud: PointCloud, params: RegistrationParams):
    """The cloud's FeatureCloud, and `params` resolved for the cloud."""
    if cloud.raster_shape is None:
        params = params.resolved(None)
        return compute_features(preprocess(cloud, params), params.feature_radius), params
    params = params.resolved(raster_pitch(cloud))
    return compute_features(outline(cloud), params.feature_radius), params


def prepare_cloud(cloud: PointCloud, params: RegistrationParams) -> FeatureCloud:
    """Condition and describe a cloud once; reusable across estimate_pose calls.

    A cloud with a raster shape is reduced to its outline, with in-plane
    normals from the raster, and described at a radius derived from its own
    pitch; any other cloud goes through outlier removal and the voxel grid.
    FPFH runs here, once per cloud. The returned FeatureCloud builds its
    KD-trees on first use and keeps them, so no outer loop and no later
    estimate_pose call against the same prepared cloud rebuilds one.
    """
    return _prepare(cloud, params)[0]


def _loop_seed(seed: int, loop: int) -> int:
    return int(np.random.SeedSequence([int(seed), 0x10D, loop]).generate_state(1, dtype=np.uint64)[0])


def estimate_pose(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                  seed: int, ref_prepared: Optional[FeatureCloud] = None) -> RegistrationResult:
    """Estimate the pose mapping `ref` into the frame of `scan`."""
    if len(scan) == 0 or (ref_prepared is None and len(ref) == 0):
        raise ValueError("clouds must be non-empty")
    ref_f = ref_prepared if ref_prepared is not None else prepare_cloud(ref, params)
    scan_f, params = _prepare(scan, params)
    # the seed only changes the RANSAC sampling; the correspondences are per pair
    candidates = correspondence_candidates(scan_f, ref_f)

    f_best = _FITNESS_SENTINEL
    best_pose = None
    best_fraction = 0.0
    history = []
    for loop in range(params.max_outer_loops):
        coarse = ransac_register(scan_f, ref_f, params, _loop_seed(seed, loop), candidates)
        if quat_distance(coarse.pose.orientation, params.q0) < params.rho_rot:
            try:
                refined = icp_refine(scan_f.keypoints, ref_f.keypoints, params,
                                     initial_pose=coarse.pose, scan_tree=scan_f.keypoint_tree)
            except DivergenceError:
                refined = None  # coarse pose too far off; try another loop
            if refined is not None and refined.fitness < f_best and \
                    quat_distance(refined.pose.orientation, params.q0) < params.rho_rot:
                f_best = refined.fitness
                best_pose = refined.pose
                best_fraction = coarse.inlier_fraction
        history.append(f_best)
        if f_best <= params.rho_icp:
            break

    if best_pose is None:
        raise RegistrationFailedError(
            f"no refined pose passed the orientation gate in {len(history)} outer loops", None)
    best = RegistrationResult(
        pose=best_pose,
        fitness=f_best,
        outer_loops_used=len(history),
        ransac_inlier_fraction=best_fraction,
        fitness_history=tuple(history),
    )
    if f_best <= params.rho_icp:
        return best
    raise RegistrationFailedError(
        f"fitness {f_best:.3e} above rho_icp {params.rho_icp:.3e} "
        f"after {len(history)} outer loops", best)
