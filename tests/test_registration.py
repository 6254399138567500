import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from insertsim import geom as geom_module
from insertsim.geom import PointCloud, Pose, pose_compose, quat_distance, quat_from_axis_angle, \
    quat_to_matrix
from insertsim.registration import (
    DegenerateFeatureError,
    DivergenceError,
    FeatureCloud,
    InsufficientCorrespondencesError,
    RegistrationFailedError,
    RegistrationParams,
    compute_features,
    estimate_pose,
    icp_refine,
    prepare_cloud,
    ransac_register,
)
from insertsim.registration import features as features_module
from insertsim.registration import icp as icp_module
from insertsim.registration import pipeline as pipeline_module
from insertsim.registration import preprocess as preprocess_module
from insertsim.registration import ransac as ransac_module
from insertsim.registration.features import estimate_normals
from insertsim.registration.params import RHO_ROT, in_orientation_gate
from insertsim.registration.preprocess import outline, statistical_outlier_removal, \
    voxel_downsample
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep, sweep_scan

# The benchmark's plate, scanners and calibration error, in the plate's frame.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
# estimate_pose and prepare_cloud read nothing of it; the benchmark passes one
PARAMS = RegistrationParams()


def terrain_cloud(nx: int = 31, ny: int = 31, extent: float = 6e-3) -> tuple:
    """Bumpy analytic surface with distinctive local geometry everywhere, and
    its unit normals.

    Grid positions are jittered so no two pair distances are commensurate with
    the lattice (a regular grid aliases under lattice-sized translations).
    """
    xs = np.linspace(0, extent, nx)
    ys = np.linspace(0, extent, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    rng = np.random.default_rng(42)
    spacing = extent / (nx - 1)
    gx = gx + rng.uniform(-0.3, 0.3, gx.shape) * spacing
    gy = gy + rng.uniform(-0.3, 0.3, gy.shape) * spacing
    k1, k2 = 2 * np.pi / extent * 1.7, 2 * np.pi / extent * 2.3
    amp = 4e-4
    gz = amp * np.sin(k1 * gx) * np.cos(k2 * gy) + 0.5 * amp * np.sin(k2 * gx + 1.0)
    dzdx = amp * k1 * np.cos(k1 * gx) * np.cos(k2 * gy) + 0.5 * amp * k2 * np.cos(k2 * gx + 1.0)
    dzdy = -amp * k2 * np.sin(k1 * gx) * np.sin(k2 * gy)
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    nrm = np.column_stack([-dzdx.ravel(), -dzdy.ravel(), np.ones(pts.shape[0])])
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts), nrm


def sphere_cloud(n: int = 900, radius: float = 3e-3) -> tuple:
    # Fibonacci lattice: even coverage, no sparse patches
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    u = np.column_stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)])
    return PointCloud(radius * u), u


def lattice_plate_cloud(pose: Pose | None = None) -> PointCloud:
    """Scan of a hole plate, noise-free under the `noise_free_scans` fixture:
    a 25 um lattice full of exact distance ties."""
    plate = HolePlate((1e-3, 1e-3), 1e-3, (2e-4, 2.5e-4), hole_center=(2e-4, 1e-4))
    scene = Scene([ScenePart("plate", plate, Pose.identity() if pose is None else pose)])
    cfg = ScannerConfig(points_per_profile=96, lateral_resolution=25e-6)
    start = Pose.from_axis_angle([0.0, -1.2e-3, 0.03], [1, 0, 0], np.pi)
    return sweep_scan(scene, linear_sweep(start, [0, 1, 0], 25e-6, 96), cfg,
                      CalibrationError.none(), seed=0)


def up_normals(cloud: PointCloud) -> np.ndarray:
    """A +z normal for every point: a plate scan's top face."""
    return np.tile([0.0, 0.0, 1.0], (len(cloud), 1))


def turned(pose: Pose, cloud: PointCloud, normals: np.ndarray) -> tuple:
    """The cloud moved by `pose`, and its normals turned by the pose's rotation."""
    return PointCloud(pose.transform_points(cloud.points)), normals @ pose.rotation_matrix().T


def bench_scan(workload: str, pose: Pose, cal: CalibrationError) -> PointCloud:
    w = workloads.WORKLOADS[workload]
    scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER), pose)])
    return sweep_scan(scene, w.sweep(), w.scanner, cal, seed=5)


def sparse_scan(pose: Pose = None) -> PointCloud:
    """A `sparse_fresh_ref` scan of the plate at `pose`, without calibration
    error; the reference scan when no pose is given."""
    return bench_scan("sparse_fresh_ref", Pose.identity() if pose is None else pose,
                      CalibrationError.none())


def register(scan: PointCloud, ref: PointCloud, seed: int = 0):
    """estimate_pose of `scan` against `ref`, prepared as the benchmark prepares its reference."""
    return estimate_pose(scan, ref, PARAMS, seed, prepare_cloud(ref, PARAMS))


# RANSAC's inlier threshold and ICP's cutoff on the terrain and lattice clouds
RANSAC_THRESHOLD = 2e-4
ICP_CUTOFF = 1.5e-3


# -- parameters ------------------------------------------------------------------

FOUR_POINTS = PointCloud(np.vstack([np.zeros(3), np.eye(3)]))
FOUR_FEATURES = FeatureCloud(FOUR_POINTS, np.zeros((4, 33)))
# the setting a test id names -> a call that passes it the value, and the
# argument its error names
ARGUMENT_CHECKS = {
    "voxel_size": (lambda v: voxel_downsample(FOUR_POINTS, v), "voxel_size"),
    "outlier_mean_k": (lambda v: statistical_outlier_removal(FOUR_POINTS, v, 2.0), "mean_k"),
    "outlier_std_ratio": (lambda v: statistical_outlier_removal(FOUR_POINTS, 2, v), "std_ratio"),
    "ransac_inlier_threshold": (
        lambda v: ransac_register(FOUR_FEATURES, FOUR_FEATURES, v, 0), "threshold"),
    "icp_max_correspondence_dist": (
        lambda v: icp_refine(FOUR_POINTS, FOUR_POINTS, v, Pose.identity()), "cutoff"),
}


@pytest.mark.parametrize("field, value", [
    ("voxel_size", np.nan), ("voxel_size", np.inf), ("voxel_size", 0.0), ("voxel_size", -1e-4),
    ("ransac_inlier_threshold", np.nan), ("ransac_inlier_threshold", np.inf),
    ("ransac_inlier_threshold", 0.0), ("ransac_inlier_threshold", -1.0),
    ("outlier_std_ratio", np.nan), ("icp_max_correspondence_dist", np.nan),
    ("icp_max_correspondence_dist", np.inf), ("icp_max_correspondence_dist", 0.0),
    ("icp_max_correspondence_dist", -1.0),
    ("outlier_mean_k", np.nan), ("outlier_mean_k", 0), ("outlier_mean_k", "12"),
    ("outlier_mean_k", True),
])
def test_params_reject_nan_and_non_finite(field, value):
    """Every setting is an argument of the function that reads it, which
    checks it itself: RANSAC's inlier threshold and ICP's cutoff, which the
    pipeline derives from the scan's pitch (the FPFH radius has its own
    test below), and the arguments of the functions kept for the
    benchmark's tracer."""
    check, argument = ARGUMENT_CHECKS[field]
    with pytest.raises(ValueError, match=argument):
        check(value)


def test_estimate_pose_derives_its_thresholds_from_the_scan_pitch(monkeypatch):
    """With (ds, dl) the raster pitch of a cloud and d = max(ds, dl): FPFH
    describes each cloud at 500 um + d of its own pitch, and from the scan's
    pitch RANSAC counts inliers within 4 d, ICP matches within 12 d and the
    fitness gate is ds^2 + dl^2: a fitness at it passes, one above it fails."""
    radii, thresholds, cutoffs, fitness = [], [], [], []

    def recording_features(cloud, normals, radius):
        radii.append(radius)
        return compute_features(cloud, normals, radius)

    def recording_ransac(scan, ref, threshold, seed):
        thresholds.append(threshold)
        return ransac_register(scan, ref, threshold, seed)

    def icp_at_fitness(scan, ref, cutoff, initial_pose):
        cutoffs.append(cutoff)
        return icp_refine(scan, ref, cutoff, initial_pose)._replace(fitness=fitness[-1])

    monkeypatch.setattr(pipeline_module, "compute_features", recording_features)
    monkeypatch.setattr(pipeline_module, "ransac_register", recording_ransac)
    monkeypatch.setattr(pipeline_module, "icp_refine", icp_at_fitness)
    ref_cloud = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    ds, dl = outline(scan)[2]
    d = max(ds, dl)
    ref = prepare_cloud(ref_cloud, PARAMS)
    fitness.append(ds * ds + dl * dl)
    assert estimate_pose(scan, ref_cloud, PARAMS, 3, ref).fitness == fitness[-1]
    fitness.append(np.nextafter(fitness[-1], np.inf))
    with pytest.raises(RegistrationFailedError, match="above rho_icp"):
        estimate_pose(scan, ref_cloud, PARAMS, 3, ref)
    assert radii == [5e-4 + max(outline(ref_cloud)[2]), 5e-4 + d, 5e-4 + d]
    assert thresholds == [4.0 * d] * 2 and cutoffs == [12.0 * d] * 2


def test_orientation_gate_is_strictly_inside_rho_rot():
    """The gate admits rotations of less than pi/4 from the identity; the
    benchmark's own check, on the attributes of RegistrationParams, agrees."""
    assert RHO_ROT == np.pi / 4
    for axis in ([0, 0, 1], [1, -2, 0.5]):
        inside = quat_from_axis_angle(axis, np.pi / 4 - 1e-9)
        outside = quat_from_axis_angle(axis, np.pi / 4 + 1e-9)
        assert in_orientation_gate(inside) and not in_orientation_gate(outside)
        for q in (inside, outside):
            assert (quat_distance(q, PARAMS.q0) < PARAMS.rho_rot) == in_orientation_gate(q)
    assert not in_orientation_gate(quat_from_axis_angle([1, 0, 0], np.pi))
    assert not PARAMS.q0.flags.writeable


# -- features -----------------------------------------------------------------

def test_features_deterministic():
    cloud, normals = terrain_cloud()
    a = compute_features(cloud, normals, radius=6e-4)
    b = compute_features(cloud, normals, radius=6e-4)
    np.testing.assert_array_equal(a.descriptors, b.descriptors)


def test_features_rotation_invariant():
    cloud, normals = terrain_cloud()
    pose = Pose.from_axis_angle(np.array([0.02, -0.01, 0.005]), [0.3, 1.0, 0.2], 0.7)
    a = compute_features(cloud, normals, radius=6e-4)
    b = compute_features(*turned(pose, cloud, normals), radius=6e-4)
    assert np.max(np.abs(a.descriptors - b.descriptors)) < 1e-6


def test_plane_patch_interior_descriptors_agree():
    xs = np.linspace(0, 3e-3, 16)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    nrm = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    fc = compute_features(PointCloud(pts), nrm, radius=5e-4)
    interior = (
        (pts[:, 0] > 6e-4) & (pts[:, 0] < 2.4e-3) & (pts[:, 1] > 6e-4) & (pts[:, 1] < 2.4e-3)
    )
    d = fc.descriptors[interior]
    spread = np.max(d, axis=0) - np.min(d, axis=0)
    assert np.max(spread) <= 2.0  # bins are percentages; 2% per bin


def test_features_degenerate_radius():
    with pytest.raises(DegenerateFeatureError):
        compute_features(*terrain_cloud(), radius=1e-5)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -6e-4])
def test_features_reject_a_radius_that_is_not_positive_and_finite(radius):
    """A NaN radius used to raise the DegenerateFeatureError a trial counts as
    a failure, and an infinite one paired every point with every other."""
    with pytest.raises(ValueError, match="radius") as err:
        compute_features(*terrain_cloud(), radius)
    assert err.type is ValueError


def test_features_need_normals():
    """compute_features estimates no normals: it takes one finite unit normal
    per point, and anything else raises naming them (a normal too few is
    test_geom's test_cloud_rejects_mismatched_normals)."""
    cloud, normals = terrain_cloud()
    nan = normals.copy()
    nan[7, 1] = np.nan
    for bad in (None, normals[:, :2], normals * (1.0 + 1e-5), nan):
        with pytest.raises(ValueError, match="normals"):
            compute_features(cloud, bad, radius=6e-4)
    compute_features(cloud, normals * (1.0 + 1e-7), radius=6e-4)  # within the tolerance


# -- loop references ------------------------------------------------------------
# The first, loop-based versions of FPFH and the voxel grid, kept as oracles:
# the vectorised code must reproduce them bit for bit, ties and all.

def reference_pair_features(p, n_p, q, n_q):
    """The pair features on (m, 3) rows, as FPFH computed them before it
    worked one coordinate column at a time."""
    d = q - p
    dist = np.linalg.norm(d, axis=1)
    d_hat = d / dist[:, None]
    u = n_p
    v = np.cross(d_hat, u)
    v_len = np.linalg.norm(v, axis=1)
    ok = v_len > 1e-12
    v = np.where(ok[:, None], v / np.where(ok[:, None], v_len[:, None], 1.0), 0.0)
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, n_q)
    phi = np.einsum("ij,ij->i", u, d_hat)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_q), np.einsum("ij,ij->i", u, n_q))
    return alpha, phi, theta, dist, ok


def reference_compute_features(cloud: PointCloud, normals: np.ndarray, radius: float):
    n = len(cloud)
    neighbor_lists = cKDTree(cloud.points).query_ball_point(cloud.points, r=radius)
    if any(len(nbrs) - 1 < 5 for nbrs in neighbor_lists):
        raise DegenerateFeatureError("too few neighbors")
    src_idx, tgt_idx = [], []
    for i, nbrs in enumerate(neighbor_lists):
        nbrs = [j for j in sorted(nbrs) if j != i]
        src_idx.extend([i] * len(nbrs))
        tgt_idx.extend(nbrs)
    src = np.array(src_idx, dtype=np.int64)
    tgt = np.array(tgt_idx, dtype=np.int64)
    alpha, phi, theta, dist, ok = reference_pair_features(
        cloud.points[src], normals[src], cloud.points[tgt], normals[tgt])
    src, tgt, dist = src[ok], tgt[ok], dist[ok]
    b = features_module._bin_index
    cols = np.concatenate([b(alpha[ok], -1.0, 1.0), 11 + b(phi[ok], -1.0, 1.0),
                           22 + b(theta[ok], -np.pi, np.pi)])
    spfh = np.zeros((n, 33))
    np.add.at(spfh, (np.concatenate([src, src, src]), cols), 1.0)
    inv_d = 1.0 / np.maximum(dist, 0.05 * radius)
    weighted = np.zeros((n, 33))
    np.add.at(weighted, src, spfh[tgt] * inv_d[:, None])
    neighbor_counts = np.zeros(n)
    np.add.at(neighbor_counts, src, 1.0)
    fpfh = spfh + weighted / neighbor_counts[:, None]
    for blk in range(3):
        block = fpfh[:, blk * 11:(blk + 1) * 11]
        sums = block.sum(axis=1, keepdims=True)
        block /= np.where(sums > 0, sums, 1.0)
        block *= 100.0
    return fpfh


def reference_voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    n = len(cloud)
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    uniq, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    m = len(uniq)
    first = np.zeros(m, dtype=np.int64)
    first[inverse[::-1]] = np.arange(n - 1, -1, -1)
    sums = np.zeros((m, 3))
    np.add.at(sums, inverse, cloud.points)
    centroids = sums / counts[:, None]
    single = counts == 1
    centroids[single] = cloud.points[first[single]]
    return PointCloud(centroids)


def assert_same_features(cloud: PointCloud, normals: np.ndarray, radius: float):
    fc = compute_features(cloud, normals, radius)
    assert fc.keypoints is cloud
    np.testing.assert_array_equal(fc.descriptors, reference_compute_features(cloud, normals, radius))


def assert_same_voxels(cloud: PointCloud, voxel_size: float):
    expected = reference_voxel_downsample(cloud, voxel_size)
    np.testing.assert_array_equal(voxel_downsample(cloud, voxel_size).points, expected.points)


def test_features_match_loop_reference_on_lattice_scan(noise_free_scans):
    cloud = lattice_plate_cloud()
    # sqrt(5) lattice steps: a quarter of the neighbour pairs sit on the radius
    assert_same_features(cloud, up_normals(cloud), radius=np.sqrt(5) * 25e-6)
    # estimated normals, on voxel centroids
    centroids = voxel_downsample(cloud, 5e-5)
    assert_same_features(centroids, estimate_normals(centroids), radius=1.5e-4)


def test_features_match_loop_reference_on_jittered_terrain():
    assert_same_features(*terrain_cloud(), radius=6e-4)


def test_features_name_a_point_with_too_few_neighbours():
    """A point with fewer than MIN_NEIGHBORS neighbours cannot be described,
    so the cloud raises naming it."""
    cloud, normals = terrain_cloud()
    far = PointCloud(np.array([[0.02, 0.02, 0.0], [-0.02, 0.01, 0.0]]))
    padded = PointCloud(np.vstack([cloud.points, far.points]))
    with pytest.raises(DegenerateFeatureError, match=f"point {len(cloud)} has 0 < 5 neighbors"):
        compute_features(padded, np.vstack([normals, up_normals(far)]), radius=6e-4)


def test_pair_features_match_the_row_reference(noise_free_scans):
    """The column kernel gives the row kernel's values bit for bit, on a plate
    scan with copies below some points: their pairs lie on the normal line
    (no Darboux frame) and carry antiparallel normals."""
    plate = lattice_plate_cloud()
    below = plate.select(np.arange(len(plate)) % 7 == 0)
    cloud = PointCloud(np.vstack([plate.points, below.points - [0.0, 0.0, 30e-6]]))
    normals = np.vstack([up_normals(plate), -up_normals(below)])
    tilted = turned(Pose.from_axis_angle(np.array([1e-3, -2e-3, 5e-4]), [0.3, -0.4, 1.0], 0.9),
                    cloud, normals)
    for c, nrm in ((cloud, normals), tilted):
        pairs = cKDTree(c.points).query_pairs(np.sqrt(5) * 25e-6, output_type="ndarray")
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        tgt = np.concatenate([pairs[:, 1], pairs[:, 0]])
        expected = reference_pair_features(c.points[src], nrm[src], c.points[tgt], nrm[tgt])
        got = features_module._pair_features(c.points, nrm, src, tgt)
        assert np.count_nonzero(~expected[4]) >= 2 * len(below)
        assert np.any(np.einsum("ij,ij->i", nrm[src], nrm[tgt]) < -0.999)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(e))


def test_features_without_a_darboux_frame_raise():
    """Every neighbour of every point lies on its normal's line, so no pair
    has a frame: a typed error naming the point, and no 0/0 warning."""
    pts = np.zeros((30, 3))
    pts[:, 2] = 1e-4 * np.arange(30)
    cloud = PointCloud(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFeatureError, match="point 0 "):
            compute_features(cloud, up_normals(cloud), radius=5e-4)


def test_voxel_grid_matches_loop_reference_on_lattice_scan(noise_free_scans):
    cloud = lattice_plate_cloud()
    for voxel_size in (1e-4, 5e-5, 2.5e-5):   # cell edges on lattice rows, and one point per cell
        assert_same_voxels(cloud, voxel_size)


def test_voxel_grid_matches_loop_reference_on_jittered_terrain():
    cloud = terrain_cloud()[0]
    for voxel_size in (1e-4, 3e-4, 1e-3):
        assert_same_voxels(cloud, voxel_size)


def test_estimate_pose_indexes_each_cloud_once(monkeypatch):
    """One estimate_pose builds three KD-trees: per cloud the tree of its
    outline, which FPFH queries for its pairs, then the reference's
    descriptor tree (RANSAC's correspondences). The outline is the scan's
    keypoint cloud, so RANSAC's scoring and every ICP iteration query the
    tree FPFH built."""
    builds = []

    def counting_tree(*args, **kwargs):
        builds.append(1)
        return cKDTree(*args, **kwargs)

    for module in (geom_module, preprocess_module, features_module, ransac_module, icp_module,
                   pipeline_module):
        monkeypatch.setattr(module, "cKDTree", counting_tree, raising=False)
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    register(scan, ref, seed=3)
    assert len(builds) == 3


def test_features_keep_the_cloud_and_its_tree(monkeypatch):
    """FPFH's keypoints are the cloud it was given, so the tree its pair
    query built is the one later queries read."""
    cloud, normals = terrain_cloud()
    features = compute_features(cloud, normals, radius=6e-4)
    assert features.keypoints is cloud
    tree = cloud.tree
    monkeypatch.setattr(geom_module, "cKDTree", None)  # any further build fails
    assert features.keypoints.tree is tree


def test_icp_matches_against_the_scan_keypoint_tree(monkeypatch):
    """ICP matches against the scan FeatureCloud's keypoints, whose kept tree
    RANSAC scored on, and places the reference keypoints itself from RANSAC's
    pose."""
    ransac_calls, icp_calls = [], []

    def recording_ransac(scan, ref, *args, **kwargs):
        result = ransac_register(scan, ref, *args, **kwargs)
        ransac_calls.append((scan, ref, result))
        return result

    def recording_icp(scan, ref, cutoff, initial_pose):
        icp_calls.append((scan, ref, initial_pose))
        return icp_refine(scan, ref, cutoff, initial_pose=initial_pose)

    monkeypatch.setattr(pipeline_module, "ransac_register", recording_ransac)
    monkeypatch.setattr(pipeline_module, "icp_refine", recording_icp)
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    register(scan, ref, seed=3)
    assert len(ransac_calls) == len(icp_calls) == 1
    (scan_f, ref_f, coarse), (icp_scan, icp_ref, initial_pose) = ransac_calls[0], icp_calls[0]
    assert icp_scan is scan_f.keypoints
    assert icp_ref is ref_f.keypoints
    assert initial_pose is coarse.pose


def test_prepare_cloud_returns_the_feature_cloud():
    """A prepared reference serves any number of registrations, each as if
    it were freshly prepared."""
    ref = sparse_scan()
    prepared = prepare_cloud(ref, PARAMS)
    assert isinstance(prepared, FeatureCloud)
    assert prepared.fine is prepared.keypoints
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    first = estimate_pose(scan, prepared.fine, PARAMS, seed=3, ref_prepared=prepared)
    reused = estimate_pose(scan, prepared.fine, PARAMS, seed=3, ref_prepared=prepared)
    assert reused.to_json_dict() == first.to_json_dict() == register(scan, ref, seed=3).to_json_dict()


# -- RANSAC -------------------------------------------------------------------

def test_ransac_identity_on_identical_clouds():
    fc = compute_features(*terrain_cloud(), radius=6e-4)
    result = ransac_register(fc, fc, RANSAC_THRESHOLD, seed=0)
    assert result.inlier_fraction >= 0.99
    assert np.linalg.norm(result.pose.position) < 1e-6
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-4


def test_ransac_recovers_known_transform():
    """RANSAC returns its best hypothesis unrefined, and ICP, the one
    refinement, takes it from there to an 8 degree turn of the terrain on
    every seed."""
    ref = terrain_cloud()
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    scan_fc = compute_features(*turned(true, *ref), radius=6e-4)
    ref_fc = compute_features(*ref, radius=6e-4)
    for seed in range(6):
        coarse = ransac_register(scan_fc, ref_fc, RANSAC_THRESHOLD, seed)
        result = icp_refine(scan_fc.keypoints, ref_fc.keypoints, ICP_CUTOFF, coarse.pose)
        assert result.pose.translation_to(true) <= 1e-12
        assert result.pose.rotation_to(true) <= 1e-9


def test_ransac_negative_control_unrelated_geometry():
    result = ransac_register(
        compute_features(*sphere_cloud(), radius=6e-4),
        compute_features(*terrain_cloud(), radius=6e-4),
        RANSAC_THRESHOLD,
        seed=2,
    )
    assert result.inlier_fraction < 0.3


def test_ransac_poses_lie_in_the_orientation_gate(monkeypatch):
    """A terrain turned 50 degrees, outside the gate: RANSAC rejects the
    triples that find the turn, and its pose, whatever it is, lies in the
    gate on every seed, so estimate_pose need not check it again."""
    rejected = []

    def recording_gate(q):
        inside = in_orientation_gate(q)
        rejected.append(not inside)
        return inside

    monkeypatch.setattr(ransac_module, "in_orientation_gate", recording_gate)
    ref = terrain_cloud()
    turn = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0, 0, 1], np.deg2rad(50))
    scan_fc = compute_features(*turned(turn, *ref), radius=6e-4)
    ref_fc = compute_features(*ref, radius=6e-4)
    for seed in range(5):
        rejected.clear()
        result = ransac_register(scan_fc, ref_fc, RANSAC_THRESHOLD, seed)
        assert sum(rejected) > 50
        assert quat_distance(result.pose.orientation, IDENTITY_Q) < RHO_ROT


def test_ransac_insufficient_keypoints():
    tiny = PointCloud(np.zeros((2, 3)) + np.arange(2)[:, None] * 1e-3)
    fc = FeatureCloud(tiny, np.zeros((2, 33)))
    with pytest.raises(InsufficientCorrespondencesError):
        ransac_register(fc, fc, RANSAC_THRESHOLD, seed=0)


class QueryLog:
    """A KD-tree stand-in that appends itself and the points of every query
    to a log it may share with other trees."""

    def __init__(self, tree: cKDTree, log: list):
        self.tree, self.log = tree, log

    def query(self, x, **kwargs):
        self.log.append((self, np.array(x, ndmin=2)))
        return self.tree.query(x, **kwargs)


def test_ransac_queries_the_pools_descriptors_once_before_its_first_hypothesis():
    """Every hypothesis draws from one table: each ransac_register call makes
    one batched descriptor query, of exactly the pool (the scan keypoints
    whose descriptors lie farthest from the mean descriptor, at least 40), as
    its first query, before it scores a hypothesis on the scan keypoint tree,
    and no other descriptor query."""
    ref = prepare_cloud(sparse_scan(), PARAMS)
    scan = prepare_cloud(sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02)),
                         PARAMS)
    log = []
    descriptors = ref.__dict__["descriptor_tree"] = QueryLog(ref.descriptor_tree, log)
    scan.keypoints.__dict__["tree"] = QueryLog(scan.keypoints.tree, log)
    deviation = np.linalg.norm(scan.descriptors - scan.descriptors.mean(axis=0), axis=1)
    pool = np.argsort(deviation, kind="stable")[-max(40, len(scan) // 10):]
    for seed in (3, 4):
        log.clear()
        ransac_register(scan, ref, RANSAC_THRESHOLD, seed)
        assert len(log) > 1
        assert [tree is descriptors for tree, _ in log] == [True] + [False] * (len(log) - 1)
        queried = log[0][1]
        assert len(queried) == len(pool)
        np.testing.assert_array_equal(np.unique(queried, axis=0),
                                      np.unique(scan.descriptors[pool], axis=0))


def test_a_ransac_run_that_scores_nothing_fails_without_a_pose(monkeypatch):
    """One iteration draws one feature triple, which is rejected before it is
    scored: RANSAC has no hypothesis, so the registration fails saying so
    instead of starting ICP from the identity."""
    monkeypatch.setattr(ransac_module, "ITERATIONS", 1)
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    with pytest.raises(RegistrationFailedError, match="RANSAC scored no hypothesis") as err:
        register(scan, sparse_scan(), seed=3)
    assert err.value.best is None


def full_scoring_ransac(scan: FeatureCloud, ref: FeatureCloud, threshold: float,
                        seed: int) -> tuple:
    """The reference for ransac_register: the same draws, prerejection and
    gate, with every hypothesis scored in full by one query of all the moved
    reference keypoints; the first to reach 90% of them ends the run, else
    the first of the highest count wins. (result, hypotheses scored)"""
    deviation = np.linalg.norm(scan.descriptors - scan.descriptors.mean(axis=0), axis=1)
    pool = np.argsort(deviation, kind="stable")[-max(40, len(scan) // 10):]
    k = min(ransac_module._DESC_KNN, len(ref))
    knn = ref.descriptor_tree.query(scan.descriptors[pool], k=k)[1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAC]))
    scan_pts, ref_pts = scan.keypoints.points, ref.keypoints.points
    n_ref = len(ref_pts)
    best_count, best, scored = -1, None, 0
    for it in range(ransac_module.ITERATIONS):
        if it % 2 == 0:
            rows = rng.choice(len(pool), size=3, replace=False)
            src = ref_pts[knn[rows, rng.integers(0, k, size=3)]]
            dst = scan_pts[pool[rows]]
            e_src = ransac_module._edge_lengths(src)
            e_dst = ransac_module._edge_lengths(dst)
            if np.any(e_dst < 3.0 * threshold):
                continue
            if np.any(np.minimum(e_src, e_dst) / np.maximum(e_src, e_dst)
                      < ransac_module._EDGE_SIMILARITY):
                continue
            area = 0.5 * np.linalg.norm(np.cross(dst[1] - dst[0], dst[2] - dst[0]))
            if area < 0.05 * float(np.max(e_dst)) ** 2:
                continue
            R, t = ransac_module.kabsch_transform(src, dst)
            if not in_orientation_gate(ransac_module.quat_from_matrix(R)):
                continue
        else:
            row = int(rng.integers(0, len(pool)))
            R = ransac_module.R_PRIOR
            t = scan_pts[pool[row]] - R @ ref_pts[knn[row, rng.integers(0, k)]]
        d = scan.keypoints.tree.query(ref_pts @ R.T + t, distance_upper_bound=threshold)[0]
        count = int(np.count_nonzero(np.isfinite(d)))
        scored += 1
        if count > best_count:
            best_count, best = count, (R, t)
            if count >= 0.9 * n_ref:
                break
    if best is None:
        raise RegistrationFailedError("RANSAC scored no hypothesis", None)
    R, t = best
    return ransac_module.RansacResult(Pose(t, ransac_module.quat_from_matrix(R)),
                                      best_count / n_ref), scored


def assert_ransac_matches_full_scoring(scan: FeatureCloud, ref: FeatureCloud, threshold: float,
                                       seed: int) -> int:
    """ransac_register returns the reference's pose and inlier fraction bit
    for bit; the number of hypotheses the reference scored."""
    expected, scored = full_scoring_ransac(scan, ref, threshold, seed)
    result = ransac_register(scan, ref, threshold, seed)
    assert result.pose.position.tobytes() == expected.pose.position.tobytes()
    assert result.pose.orientation.tobytes() == expected.pose.orientation.tobytes()
    assert float.hex(result.inlier_fraction) == float.hex(expected.inlier_fraction)
    return scored


@pytest.fixture(scope="module")
def dense_tail_call() -> tuple:
    """The arguments of a long `dense_corrected` RANSAC run, seed 901 trial 19,
    which scores 249 hypotheses before one reaches the 90% stop."""
    calls = []

    def recording(*args):
        calls.append(args)
        return ransac_register(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline_module, "ransac_register", recording)
        workloads.Bench(workloads.WORKLOADS["dense_corrected"], 901).run_trial(19)
    return calls[0]


def test_ransac_matches_full_scoring_on_a_long_dense_run(dense_tail_call):
    assert assert_ransac_matches_full_scoring(*dense_tail_call) >= 200


def test_ransac_matches_full_scoring_when_no_hypothesis_reaches_the_stop(dense_tail_call,
                                                                         monkeypatch):
    """With 100 draws no hypothesis reaches the stop, so the run returns the
    first of the highest count, rescored."""
    monkeypatch.setattr(ransac_module, "ITERATIONS", 100)
    assert assert_ransac_matches_full_scoring(*dense_tail_call) > 1
    assert ransac_register(*dense_tail_call).inlier_fraction < 0.9


@pytest.mark.parametrize("iterations", [20, ransac_module.ITERATIONS])
@pytest.mark.parametrize("seed", range(4))
def test_ransac_matches_full_scoring_on_fewer_keypoints_than_slices(seed, iterations,
                                                                    monkeypatch):
    """Six reference keypoints fill six of the eight slices, one point each.
    Each run reaches the stop (all six) within 2000 draws; within 20, three
    of the four do not, and the first of the highest count wins."""
    monkeypatch.setattr(ransac_module, "ITERATIONS", iterations)
    scan = compute_features(*terrain_cloud(), radius=6e-4)
    few = np.linspace(0, len(scan) - 1, ransac_module._SLICES - 2).astype(int)
    ref = FeatureCloud(PointCloud(scan.keypoints.points[few]), scan.descriptors[few])
    assert assert_ransac_matches_full_scoring(scan, ref, RANSAC_THRESHOLD, seed) >= 1


def test_ransac_scoring_nothing_raises_like_full_scoring(dense_tail_call, monkeypatch):
    """One draw, a feature triple rejected before scoring: both raise."""
    monkeypatch.setattr(ransac_module, "ITERATIONS", 1)
    for run in (full_scoring_ransac, ransac_register):
        with pytest.raises(RegistrationFailedError, match="RANSAC scored no hypothesis"):
            run(*dense_tail_call)


def test_ransac_queries_under_two_fifths_of_full_scoring_on_a_long_dense_run(dense_tail_call,
                                                                              monkeypatch):
    """Hypotheses are dropped once they cannot reach the stop: the long run
    queries at most 40% of the points that full scoring queries."""
    scan, ref, threshold, seed = dense_tail_call
    scored = full_scoring_ransac(scan, ref, threshold, seed)[1]
    log = []
    monkeypatch.setitem(scan.keypoints.__dict__, "tree", QueryLog(scan.keypoints.tree, log))
    ransac_register(scan, ref, threshold, seed)
    assert sum(len(points) for _, points in log) <= 0.4 * scored * len(ref.keypoints.points)


# -- ICP ----------------------------------------------------------------------

def refine(scan: PointCloud, ref: PointCloud, initial_pose: Pose = Pose.identity()):
    """icp_refine of `ref` onto `scan` from `initial_pose`."""
    return icp_refine(scan, ref, ICP_CUTOFF, initial_pose)


def test_icp_identical_clouds():
    cloud = terrain_cloud()[0]
    result = refine(cloud, cloud)
    assert result.fitness <= 1e-18
    assert np.linalg.norm(result.pose.position) < 1e-12
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-10


def test_icp_recovers_small_translation():
    ref = terrain_cloud()[0]
    shift = np.array([2e-4, 0.0, 0.0])
    moved = PointCloud(ref.points + shift)
    # moved ref must come back onto the scan: recovered translation is -shift
    result = refine(ref, moved)
    np.testing.assert_allclose(result.pose.position, -shift, atol=1e-6)
    assert result.fitness < 1e-16


def test_icp_stops_at_the_iteration_cap_on_a_sliding_plate(noise_free_scans):
    # a jittered copy of a plate scan, started 300 um off, slides for all 60 iterations
    plate = lattice_plate_cloud()
    jittered = plate.points.copy()
    jittered[:, :2] += np.random.default_rng(0).uniform(-12.5e-6, 12.5e-6, size=(len(plate), 2))
    start = Pose.from_axis_angle(np.array([3e-4, -1.5e-4, 0.0]), [0, 0, 1], 0.02)
    result = refine(plate, PointCloud(jittered), start)
    assert result.iterations == icp_module.MAX_ITERATIONS == 60


def test_icp_divergence_error():
    a = terrain_cloud()[0]
    b = PointCloud(a.points + np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DivergenceError):
        refine(a, b)


def test_icp_total_pose_composes_initial():
    ref = terrain_cloud()[0]
    coarse = Pose.from_axis_angle(np.array([1e-4, 2e-4, -1e-4]), [0, 1, 0], 0.02)
    result = refine(ref, ref, coarse)
    # scan == ref, so the total ref->scan transform must be identity
    assert np.linalg.norm(result.pose.position) < 1e-7
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-6


# -- estimate_pose: one RANSAC -> ICP pass -------------------------------------
# On the benchmark's sparse scans of the plate, with the thresholds derived
# from their pitch.

@pytest.mark.xfail(strict=True, reason="point-to-point ICP stops in a raster-shifted local "
                   "minimum of the outline (ROADMAP item 2)")
def test_a_scan_registers_onto_itself_exactly():
    """A scan registered against itself should come back at the identity.
    It does not yet: RANSAC's seed-1 pose, a prior-orientation hypothesis
    with every inlier, is 96.0 um (two lateral pitches) off along x, and ICP
    stops after 10 iterations 32.33 um and 0.005 mrad off, at a fitness of
    5.10e-10 m^2 that passes the pitch gate. Seeds 8 and 11 stop at the same
    pose; seeds 0, 2-7, 9 and 10 land on the identity."""
    cloud = sparse_scan()
    result = register(cloud, cloud, seed=1)
    assert result.fitness <= 1e-12
    assert np.linalg.norm(result.pose.position) < 1e-6


# a sparse scan of the plate turned by 5 degrees of yaw, and the pose that reaches it
YAWED_5 = Pose.from_axis_angle(np.array([3e-4, 1e-4, -2e-4]), [0, 0, 1], np.deg2rad(5))


def test_estimate_pose_recovers_perturbation_with_noise(monkeypatch):
    """The scanner's depth noise is the noise; rho_icp is the pitch gate.
    RANSAC's prior-orientation hypotheses are turned to the true rotation, an
    oracle no program has (its prior is the identity): the control of the
    strict xfail below, which registers the same scan on the identity prior."""
    monkeypatch.setattr(ransac_module, "R_PRIOR", quat_to_matrix(YAWED_5.orientation))
    result = register(sparse_scan(YAWED_5), sparse_scan(), seed=4)
    assert np.linalg.norm(result.pose.position - YAWED_5.position) < 30e-6
    assert quat_distance(result.pose.orientation, YAWED_5.orientation) < np.deg2rad(0.5)


@pytest.mark.xfail(strict=True, reason="point-to-point ICP stops 0.71 degrees off a 5 degree "
                   "yaw on the identity prior (ROADMAP item 2)")
def test_estimate_pose_recovers_a_yaw_on_the_identity_prior():
    """The control's scan and bounds on the prior the program uses. It
    fails: 8.3 um and 0.71 degrees off at seed 2, and 0.71 degrees on 7 of
    seeds 0-7 (0.48-0.71 over them), against 0.25-0.48 degrees with the
    oracle prior."""
    result = register(sparse_scan(YAWED_5), sparse_scan(), seed=2)
    assert np.linalg.norm(result.pose.position - YAWED_5.position) < 30e-6
    assert quat_distance(result.pose.orientation, YAWED_5.orientation) < np.deg2rad(0.5)


def test_estimate_pose_gate_negative_control(monkeypatch):
    """An ICP pose 1 rad off the identity fails the registration at the gate, with no pose."""
    def turned_icp(*args, **kwargs):
        refined = icp_refine(*args, **kwargs)
        return refined._replace(pose=pose_compose(
            Pose.from_axis_angle(np.zeros(3), [0, 0, 1], 1.0), refined.pose))

    monkeypatch.setattr(pipeline_module, "icp_refine", turned_icp)
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    with pytest.raises(RegistrationFailedError) as err:
        register(scan, sparse_scan(), seed=5)
    # no pose was kept, so there is no fitness to report
    assert err.value.best is None
    assert "no refined pose passed the orientation gate: the ICP pose is outside it" \
        in str(err.value)


def test_estimate_pose_reports_a_diverged_icp(monkeypatch):
    """An ICP that diverges from the RANSAC pose fails the registration as a
    divergence, with no pose, and not as an orientation-gate failure."""
    def diverging_icp(*args, **kwargs):
        raise DivergenceError("no correspondences within 1.5e-03 m")

    monkeypatch.setattr(pipeline_module, "icp_refine", diverging_icp)
    ref = sparse_scan()
    with pytest.raises(RegistrationFailedError, match="ICP diverged") as err:
        register(ref, ref, seed=0)
    assert err.value.best is None
    assert isinstance(err.value.__cause__, DivergenceError)


def test_estimate_pose_gate_soundness():
    """Plate poses drawn over the benchmark's range (yaw within MAX_YAW,
    offsets within MAX_OFFSET); a larger move takes part of the plate out
    of the sweep."""
    ref = prepare_cloud(sparse_scan(), PARAMS)
    rng = np.random.default_rng(6)
    for trial in range(5):
        offset = rng.uniform(-workloads.MAX_OFFSET, workloads.MAX_OFFSET, size=2)
        true = Pose.from_axis_angle(np.array([*offset, 0.0]), [0, 0, 1],
                                    rng.uniform(-workloads.MAX_YAW, workloads.MAX_YAW))
        result = estimate_pose(sparse_scan(true), ref.keypoints, PARAMS, seed=100 + trial,
                               ref_prepared=ref)
        assert in_orientation_gate(result.pose.orientation)


def test_estimate_pose_deterministic():
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([2e-4, 0, 0]), [0, 0, 1], 0.05))
    a = register(scan, ref, seed=9)
    b = register(scan, ref, seed=9)
    np.testing.assert_array_equal(a.pose.position, b.pose.position)
    np.testing.assert_array_equal(a.pose.orientation, b.pose.orientation)
    assert a.fitness == b.fitness


# -- dense scans, partial scans and traced runs ----------------------------------

@pytest.fixture(scope="module")
def dense_reference() -> FeatureCloud:
    return prepare_cloud(bench_scan("dense_corrected", Pose.identity(), CalibrationError.none()),
                         PARAMS)


@pytest.mark.parametrize("cal", [CalibrationError.none(), workloads.CAL],
                         ids=["no_cal_error", "cal_error"])
@pytest.mark.parametrize("offset", [(200e-6, -200e-6), (-200e-6, 200e-6)], ids=["+-", "-+"])
@pytest.mark.parametrize("yaw", [0.0, 3.0, -3.0])
def test_estimate_pose_on_a_dense_scan_is_accurate_in_one_loop(dense_reference, yaw, offset, cal):
    """Outline registration finds the plate to 15 um
    and 2 mrad in its one RANSAC -> ICP pass. The outline holds whole raster
    cells, so an edge along the raster keeps a sub-pitch bias: hence 15 um,
    not 10, and at 0 yaw, where every side runs along the raster, the yaw
    is fixed only to about the 25 um profile step over the 6 mm side,
    4.2 mrad, not 2 (ICP stops anywhere in that range)."""
    true = Pose(np.array([*offset, 0.0]), quat_from_axis_angle([0, 0, 1], np.deg2rad(yaw)))
    scan = bench_scan("dense_corrected", true, cal)
    result = estimate_pose(scan, dense_reference.keypoints, PARAMS, seed=3,
                           ref_prepared=dense_reference)
    truth = pose_compose(cal.mount_offset.inverse(), true)
    assert result.pose.translation_to(truth) <= 15e-6
    assert result.pose.rotation_to(truth) <= (2e-3 if yaw else 5e-3)


@pytest.mark.parametrize("name, seed, trial", [("dense_corrected", 901, 186),
                                               ("dense_corrected", 901, 261),
                                               ("sparse_fresh_ref", 1, 1029)])
def test_benchmark_scans_pass_the_fitness_gate(monkeypatch, name, seed, trial):
    """Benchmark trials whose registration missed the fitness gate while the
    outline kept the side-face and hole-wall hits that `workloads.CAL`
    shows; on the top face's outline they pass."""
    failures = []

    def recording(*args, **kwargs):
        try:
            return estimate_pose(*args, **kwargs)
        except RegistrationFailedError as e:
            failures.append(e)
            raise

    monkeypatch.setattr(pipeline_module, "estimate_pose", recording)
    result = workloads.Bench(workloads.WORKLOADS[name], seed).run_trial(trial)
    assert failures == [] and result.failure == ""


def test_a_scan_missing_the_hole_and_two_edges_fails_in_one_pass(monkeypatch):
    """A sparse sweep over y in [0.8, 2.5] mm sees neither the hole nor the
    plate's y edges, so nothing pins the plate's position along them:
    registering it against the whole reference fails after one RANSAC run."""
    calls = []

    def counting_ransac(*args, **kwargs):
        calls.append(1)
        return ransac_register(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "ransac_register", counting_ransac)
    w = workloads.WORKLOADS["sparse_fresh_ref"]
    ref = prepare_cloud(bench_scan("sparse_fresh_ref", Pose.identity(), CalibrationError.none()),
                        PARAMS)
    sweep = linear_sweep(Pose.from_axis_angle([0.0, 0.8e-3, 0.03], [1, 0, 0], np.pi),
                         [0, 1, 0], w.sweep_step, 18)
    scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER),
                             Pose.from_axis_angle(np.array([1e-4, -1e-4, 0.0]), [0, 0, 1], 0.02))])
    scan = sweep_scan(scene, sweep, w.scanner, workloads.CAL, seed=5)
    with pytest.raises(RegistrationFailedError):
        estimate_pose(scan, ref.fine, PARAMS, seed=3, ref_prepared=ref)
    assert len(calls) == 1


def test_a_traced_corrected_run_reports_every_layer():
    """The benchmark's traced run reads the registration result of every
    corrected trial (`harness._estimate_attrs`); a tiny corrected workload
    must trace without a failed trial and report every per-layer metric."""
    import harness
    tiny = workloads.Workload(
        "tiny_corrected", corrected=True,
        scanner=ScannerConfig(points_per_profile=256, lateral_resolution=96e-6),
        sweep_step=200e-6, profiles=35, quality_trials=2)
    report = harness.run(tiny, seed=7, seconds=0.0, trace=True)
    assert report["failed"] == 0
    assert list(report["metrics"]) == [name for name, _, _ in harness.PER_LAYER]
    # the functions kept only for these probes run in no trial
    for name in ("preprocess.sor_s", "preprocess.voxel_s", "features.normals_calls"):
        assert report["metrics"][name]["value"] == 0


def test_registration_result_json_round_trip():
    import json
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    result = register(scan, sparse_scan(), seed=0)
    payload = json.dumps(result.to_json_dict())
    back = json.loads(payload)
    assert set(back) == {"position", "orientation_wxyz", "fitness", "ransac_inlier_fraction"}
    assert len(back["orientation_wxyz"]) == 4
