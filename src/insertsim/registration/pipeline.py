"""Full pose estimation: prepare both clouds, then one pass of RANSAC ->
ICP -> orientation gate -> fitness check.

Both clouds are scanner clouds, which carry their scanner's hit mask. Each
is registered on the outline of its top face, every point of which FPFH
describes, so each cloud is indexed once. Every distance threshold derives
from the scan's (ds, dl) pitch, the lengths of the raster's least-squares
axes (the steps along and across profiles), which `preprocess.outline`
fits; with d = max(ds, dl):

  - rho_icp, the fitness gate: ds^2 + dl^2, 12x the mean squared offset from
    its cell's centre of a point placed uniformly in a ds x dl cell;
  - RANSAC's inlier threshold: 4 d;
  - ICP's correspondence cutoff: 12 d;
  - the FPFH radius: 500 um + d, each cloud's from its own pitch.

The true pose passes rho_icp, so a scan that registers does so in this one
pass. The orientation gate (`in_orientation_gate`: within RHO_ROT of the
identity) is checked once per stage: RANSAC gates every hypothesis it scores
(cheap rejection of flipped or degenerate-symmetry matches), so its pose
lies in the gate, and this function gates the pose ICP refines from it, so
every result it returns lies in the gate too. A failure raises
RegistrationFailedError: with `best` None when RANSAC scored no hypothesis,
no refined pose passed the gate or ICP diverged, and with the refined result
when only its fitness is above rho_icp, so the caller can decide to rescan
and retry.
"""

from __future__ import annotations

from insertsim.geom import PointCloud
from insertsim.registration.features import FeatureCloud, compute_features
from insertsim.registration.icp import icp_refine
from insertsim.registration.params import (
    DivergenceError,
    RegistrationFailedError,
    RegistrationParams,
    RegistrationResult,
    in_orientation_gate,
)
from insertsim.registration.preprocess import outline
from insertsim.registration.ransac import ransac_register


def _prepare(cloud: PointCloud):
    """The cloud's FeatureCloud, and the (ds, dl) pitch of its raster."""
    if cloud.hits is None or len(cloud) == 0:
        raise ValueError("registration takes non-empty scanner clouds, with their hit mask")
    edge, normals, pitch = outline(cloud)
    return compute_features(edge, normals, 5e-4 + max(pitch)), pitch


def prepare_cloud(cloud: PointCloud, params: RegistrationParams) -> FeatureCloud:
    """Condition and describe a scanner cloud once, for any number of
    estimate_pose calls: its outline, with in-plane normals from the raster,
    described by FPFH at a radius derived from its own pitch. The returned
    FeatureCloud and its keypoints keep the KD-trees they build on first use,
    so no later estimate_pose call against the same prepared cloud rebuilds one.
    `params` is unused: every threshold comes from the pitch. It is kept only
    because the benchmark passes it positionally.
    """
    return _prepare(cloud)[0]


def estimate_pose(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                  seed: int, ref_prepared: FeatureCloud) -> RegistrationResult:
    """Estimate the pose mapping the reference into the frame of `scan`.

    The reference is `ref_prepared`, from `prepare_cloud`. `ref`, the cloud
    it was prepared from, and `params`, whose orientation prior is fixed
    (RHO_ROT about the identity), are unused; both are kept only because the
    benchmark passes them positionally."""
    scan_f, (ds, dl) = _prepare(scan)
    d = max(ds, dl)

    coarse = ransac_register(scan_f, ref_prepared, 4.0 * d, seed)
    try:
        refined = icp_refine(scan_f.keypoints, ref_prepared.keypoints, 12.0 * d,
                             initial_pose=coarse.pose)
    except DivergenceError as e:
        raise RegistrationFailedError(f"ICP diverged from the RANSAC pose: {e}", None) from e
    if not in_orientation_gate(refined.pose.orientation):
        raise RegistrationFailedError(
            "no refined pose passed the orientation gate: the ICP pose is outside it", None)
    result = RegistrationResult(refined.pose, refined.fitness, coarse.inlier_fraction)
    rho_icp = ds * ds + dl * dl
    if refined.fitness <= rho_icp:
        return result
    raise RegistrationFailedError(
        f"fitness {refined.fitness:.3e} above rho_icp {rho_icp:.3e}", result)
