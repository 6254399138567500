import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
from insertsim.registration.preprocess import raster_cells, raster_pitch, \
    statistical_outlier_removal, voxel_downsample
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
        lambda v: icp_refine(FOUR_POINTS, FOUR_POINTS, v, Pose.identity(),
                             cKDTree(FOUR_POINTS.points)),
        "cutoff"),
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

    def icp_at_fitness(scan, ref, cutoff, initial_pose, scan_tree):
        cutoffs.append(cutoff)
        return icp_refine(scan, ref, cutoff, initial_pose, scan_tree)._replace(fitness=fitness[-1])

    monkeypatch.setattr(pipeline_module, "compute_features", recording_features)
    monkeypatch.setattr(pipeline_module, "ransac_register", recording_ransac)
    monkeypatch.setattr(pipeline_module, "icp_refine", icp_at_fitness)
    ref_cloud = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    ds, dl = raster_pitch(scan, raster_cells(scan))
    d = max(ds, dl)
    ref = prepare_cloud(ref_cloud, PARAMS)
    fitness.append(ds * ds + dl * dl)
    assert estimate_pose(scan, ref_cloud, PARAMS, 3, ref).fitness == fitness[-1]
    fitness.append(np.nextafter(fitness[-1], np.inf))
    with pytest.raises(RegistrationFailedError, match="above rho_icp"):
        estimate_pose(scan, ref_cloud, PARAMS, 3, ref)
    assert radii == [5e-4 + max(raster_pitch(ref_cloud, raster_cells(ref_cloud))), 5e-4 + d,
                     5e-4 + d]
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
    n_in = len(cloud)
    while True:  # drop stragglers, re-querying the rest, until none is left
        n = len(cloud)
        neighbor_lists = cKDTree(cloud.points).query_ball_point(cloud.points, r=radius)
        degenerate = [i for i, nbrs in enumerate(neighbor_lists) if len(nbrs) - 1 < 5]
        if not degenerate:
            break
        if n_in - n + len(degenerate) > max(1, n_in // 10):
            raise DegenerateFeatureError("too few neighbors")
        keep = np.ones(n, dtype=bool)
        keep[degenerate] = False
        cloud, normals = cloud.select(keep), normals[keep]
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
    return cloud, fpfh


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
    expected_cloud, expected = reference_compute_features(cloud, normals, radius)
    fc = compute_features(cloud, normals, radius)
    np.testing.assert_array_equal(fc.keypoints.points, expected_cloud.points)
    np.testing.assert_array_equal(fc.descriptors, expected)


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


def test_features_match_loop_reference_after_dropping_stragglers():
    cloud, normals = terrain_cloud()
    stragglers = PointCloud(np.array([[0.02, 0.02, 0.0], [-0.02, 0.01, 0.0]]))
    padded = PointCloud(np.vstack([cloud.points, stragglers.points]))
    padded_normals = np.vstack([normals, up_normals(stragglers)])
    fc = compute_features(padded, padded_normals, radius=6e-4)
    assert len(fc) == len(cloud)
    assert_same_features(padded, padded_normals, radius=6e-4)


def line_of_points(count: int, radius: float) -> PointCloud:
    """Points 0.3 radius apart along x, far from the terrain: each has at most
    6 neighbours, and the ends have 3, so dropping the ends shortens the next."""
    pts = np.zeros((count, 3))
    pts[:, 0] = 0.05 + 0.3 * radius * np.arange(count)
    return PointCloud(pts)


def test_features_peel_stragglers_to_a_fixed_point():
    """Dropping the stragglers leaves new ones; they go too, until none is left,
    and the rest is described as if the dropped points had never been there."""
    radius = 6e-4
    cloud, normals = terrain_cloud()
    line = line_of_points(30, radius)
    padded = PointCloud(np.vstack([cloud.points, line.points]))
    padded_normals = np.vstack([normals, up_normals(line)])
    fc = compute_features(padded, padded_normals, radius)
    expected = compute_features(cloud, normals, radius)
    np.testing.assert_array_equal(fc.keypoints.points, expected.keypoints.points)
    np.testing.assert_array_equal(fc.descriptors, expected.descriptors)
    assert_same_features(padded, padded_normals, radius)
    # the bound counts every dropped point, not only the first round's
    long_line = line_of_points(len(cloud) // 10 + 20, radius)
    with pytest.raises(DegenerateFeatureError, match=f"of {len(cloud) + len(long_line)} points"):
        compute_features(PointCloud(np.vstack([cloud.points, long_line.points])),
                         np.vstack([normals, up_normals(long_line)]), radius)


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
    """One estimate_pose builds four KD-trees: per cloud one for the FPFH
    pairs of its outline, then the reference's descriptor tree (RANSAC's
    correspondences) and the scan's keypoint tree (RANSAC's scoring and
    every ICP iteration)."""
    builds = []

    def counting_tree(*args, **kwargs):
        builds.append(1)
        return cKDTree(*args, **kwargs)

    for module in (preprocess_module, features_module, ransac_module, icp_module,
                   pipeline_module):
        monkeypatch.setattr(module, "cKDTree", counting_tree, raising=False)
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    register(scan, ref, seed=3)
    assert len(builds) == 4


def test_icp_matches_against_the_scan_keypoint_tree(monkeypatch):
    """ICP reuses the scan FeatureCloud's keypoint tree instead of building its own,
    and places the reference keypoints itself from RANSAC's pose."""
    ransac_calls, icp_calls = [], []

    def recording_ransac(scan, ref, *args, **kwargs):
        result = ransac_register(scan, ref, *args, **kwargs)
        ransac_calls.append((scan, ref, result))
        return result

    def recording_icp(scan, ref, cutoff, initial_pose, scan_tree):
        icp_calls.append((ref, initial_pose, scan_tree))
        return icp_refine(scan, ref, cutoff, initial_pose=initial_pose, scan_tree=scan_tree)

    monkeypatch.setattr(pipeline_module, "ransac_register", recording_ransac)
    monkeypatch.setattr(pipeline_module, "icp_refine", recording_icp)
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    register(scan, ref, seed=3)
    assert len(ransac_calls) == len(icp_calls) == 1
    (scan_f, ref_f, coarse), (icp_ref, initial_pose, tree) = ransac_calls[0], icp_calls[0]
    assert tree is scan_f.keypoint_tree
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
    ref = terrain_cloud()
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    scan_fc = compute_features(*turned(true, *ref), radius=6e-4)
    ref_fc = compute_features(*ref, radius=6e-4)
    result = ransac_register(scan_fc, ref_fc, RANSAC_THRESHOLD, seed=1)
    assert np.linalg.norm(result.pose.position - true.position) < 2 * RANSAC_THRESHOLD
    assert quat_distance(result.pose.orientation, true.orientation) < 0.05


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
    """A KD-tree stand-in that keeps the points of every query."""

    def __init__(self, tree: cKDTree):
        self.tree, self.queries = tree, []

    def query(self, x, k):
        self.queries.append(np.array(x, ndmin=2))
        return self.tree.query(x, k=k)


def test_ransac_queries_a_descriptor_row_when_it_first_reads_it(monkeypatch):
    """Before the loop only the pool's rows of the descriptor kNN are queried,
    in one batch; RANSAC queries any other row once, when it first reads it;
    and every row it reads is that row of one batched query of all scan
    keypoints."""
    ref = prepare_cloud(sparse_scan(), PARAMS)
    log = QueryLog(ref.descriptor_tree)
    ref.__dict__["descriptor_tree"] = log
    tables = []
    candidates = ransac_module.correspondence_candidates

    def recording(scan_f, ref_f):
        knn, pool = candidates(scan_f, ref_f)
        tables.append((scan_f, knn.copy(), knn, pool, len(log.queries)))
        return knn, pool

    monkeypatch.setattr(ransac_module, "correspondence_candidates", recording)
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    estimate_pose(scan, ref.keypoints, PARAMS, seed=3, ref_prepared=ref)
    (scan_f, before, after, pool, queries_before_loop), = tables
    batched = log.tree.query(scan_f.descriptors, k=min(5, len(ref)))[1]
    assert queries_before_loop == 1
    np.testing.assert_array_equal(log.queries[0], scan_f.descriptors[pool])
    np.testing.assert_array_equal(before[pool], batched[pool])
    assert np.all(np.delete(before, pool, axis=0) == -1)
    read = np.flatnonzero(after[:, 0] >= 0)
    drawn = np.setdiff1d(read, pool)
    assert len(drawn) > 0 and len(log.queries) == 1 + len(drawn)
    np.testing.assert_array_equal(after[read], batched[read])


def test_a_ransac_run_that_scores_nothing_fails_without_a_pose(monkeypatch):
    """One iteration draws one feature triple, which is rejected before it is
    scored: RANSAC has no hypothesis, so the registration fails saying so
    instead of starting ICP from the identity."""
    monkeypatch.setattr(ransac_module, "ITERATIONS", 1)
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    with pytest.raises(RegistrationFailedError, match="RANSAC scored no hypothesis") as err:
        register(scan, sparse_scan(), seed=3)
    assert err.value.best is None


# -- ICP ----------------------------------------------------------------------

def refine(scan: PointCloud, ref: PointCloud, initial_pose: Pose = Pose.identity()):
    """icp_refine of `ref` onto `scan` from `initial_pose`, with a tree over the scan."""
    return icp_refine(scan, ref, ICP_CUTOFF, initial_pose, cKDTree(scan.points))


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
    It does not yet: RANSAC's seed-0 pose is 57 um and 39 mrad off, and ICP
    stops after 5 iterations 1.5 um and 24.6 mrad off, at a fitness of
    2.2e-9 m^2 that passes the pitch gate."""
    cloud = sparse_scan()
    result = register(cloud, cloud, seed=0)
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
    fails: 8.3 um and 0.71 degrees off at seed 4, and 0.71 degrees on 4 of
    seeds 0-5, against 0.26-0.46 degrees with the oracle prior."""
    result = register(sparse_scan(YAWED_5), sparse_scan(), seed=4)
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
