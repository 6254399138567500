"""Full pose estimation: prepare both clouds, then one pass of RANSAC ->
orientation gate -> ICP -> orientation gate -> fitness check.

Both clouds are scanner clouds, which carry their raster and the raster's
shape. Each is registered on its outline, and the thresholds left None in
the params are derived from the scan's pitch (`RegistrationParams.resolved`).
rho_icp is the pitch gate ds^2 + dl^2, which the true pose passes, so a scan
that registers does so in this one pass. The orientation gate is checked
on the RANSAC hypothesis (cheap rejection of flipped or degenerate-symmetry
matches) and again on the refined pose, so every result this function
returns satisfies the gate. A failure raises RegistrationFailedError: with
`best` None when no refined pose passed the gate or ICP diverged, and with
the refined result when only its fitness is above rho_icp, so the caller
can decide to rescan and retry.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from insertsim.geom import PointCloud
from insertsim.registration.features import FeatureCloud, compute_features
from insertsim.registration.icp import icp_refine
from insertsim.registration.params import (
    DivergenceError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
)
from insertsim.registration.preprocess import outline, raster_pitch
from insertsim.registration.ransac import ransac_register


def _prepare(cloud: PointCloud, params: RegistrationParams):
    """The cloud's FeatureCloud, and `params` resolved for the cloud."""
    if cloud.raster_shape is None:
        raise ValueError("registration takes scanner clouds: this cloud has no raster shape")
    params = params.resolved(raster_pitch(cloud))
    return compute_features(outline(cloud), params.feature_radius), params


def prepare_cloud(cloud: PointCloud, params: RegistrationParams) -> FeatureCloud:
    """Condition and describe a scanner cloud once, for any number of
    estimate_pose calls: its outline, with in-plane normals from the raster,
    described by FPFH at a radius derived from its own pitch. The returned
    FeatureCloud builds its KD-trees on first use and keeps them, so no
    later estimate_pose call against the same prepared cloud rebuilds one.
    """
    return _prepare(cloud, params)[0]


def _ransac_seed(seed: int) -> int:
    # the first round's seed of the retry loop this pass replaced (loop index
    # 0), which keeps every pose bit-identical
    return int(np.random.SeedSequence([int(seed), 0x10D, 0]).generate_state(1, dtype=np.uint64)[0])


def estimate_pose(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                  seed: int, ref_prepared: Optional[FeatureCloud] = None) -> RegistrationResult:
    """Estimate the pose mapping `ref` into the frame of `scan`."""
    if len(scan) == 0 or (ref_prepared is None and len(ref) == 0):
        raise ValueError("clouds must be non-empty")
    ref_f = ref_prepared if ref_prepared is not None else prepare_cloud(ref, params)
    scan_f, params = _prepare(scan, params)

    coarse = ransac_register(scan_f, ref_f, params, _ransac_seed(seed))
    if not params.in_orientation_gate(coarse.pose.orientation):
        raise RegistrationFailedError(
            "no refined pose passed the orientation gate: the RANSAC pose is outside it", None)
    try:
        refined = icp_refine(scan_f.keypoints, ref_f.keypoints, params,
                             initial_pose=coarse.pose, scan_tree=scan_f.keypoint_tree)
    except DivergenceError as e:
        raise RegistrationFailedError(f"ICP diverged from the RANSAC pose: {e}", None) from e
    if not params.in_orientation_gate(refined.pose.orientation):
        raise RegistrationFailedError(
            "no refined pose passed the orientation gate: the ICP pose is outside it", None)
    result = RegistrationResult(refined.pose, refined.fitness, coarse.inlier_fraction)
    if refined.fitness <= params.rho_icp:
        return result
    raise RegistrationFailedError(
        f"fitness {refined.fitness:.3e} above rho_icp {params.rho_icp:.3e}", result)
