import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, pose_compose, quat_distance, quat_from_axis_angle, \
    transform_cloud
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
from insertsim.registration.preprocess import raster_cells, raster_pitch, \
    statistical_outlier_removal, voxel_downsample
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep, sweep_scan

# The benchmark's plate, scanners and calibration error, in the plate's frame.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def terrain_cloud(nx: int = 31, ny: int = 31, extent: float = 6e-3) -> PointCloud:
    """Bumpy analytic surface with distinctive local geometry everywhere.

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
    return PointCloud(pts, nrm)


def sphere_cloud(n: int = 900, radius: float = 3e-3) -> PointCloud:
    # Fibonacci lattice: even coverage, no sparse patches
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    u = np.column_stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)])
    return PointCloud(radius * u, u)


def lattice_plate_cloud(pose: Pose | None = None) -> PointCloud:
    """Noise-free scan of a hole plate: a 25 um lattice full of exact distance ties."""
    plate = HolePlate((1e-3, 1e-3), 1e-3, (2e-4, 2.5e-4), hole_center=(2e-4, 1e-4))
    scene = Scene([ScenePart("plate", plate, Pose.identity() if pose is None else pose)])
    cfg = ScannerConfig(points_per_profile=96, lateral_resolution=25e-6, depth_noise_std=0.0)
    start = Pose.from_axis_angle([0.0, -1.2e-3, 0.03], [1, 0, 0], np.pi)
    return sweep_scan(scene, linear_sweep(start, [0, 1, 0], 25e-6, 96), cfg,
                      CalibrationError.none(), seed=0)


def with_up_normals(cloud: PointCloud) -> PointCloud:
    """The plate scan with its top face's +z normals, which the scanner does not give."""
    return PointCloud(cloud.points, np.tile([0.0, 0.0, 1.0], (len(cloud), 1)), cloud.raster,
                      cloud.raster_shape)


def bench_scan(workload: str, pose: Pose, cal: CalibrationError) -> PointCloud:
    w = workloads.WORKLOADS[workload]
    scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER), pose)])
    return sweep_scan(scene, w.sweep(), w.scanner, cal, seed=5)


def sparse_scan(pose: Pose = None) -> PointCloud:
    """A `sparse_fresh_ref` scan of the plate at `pose`, without calibration
    error; the reference scan when no pose is given."""
    return bench_scan("sparse_fresh_ref", Pose.identity() if pose is None else pose,
                      CalibrationError.none())


def register(scan: PointCloud, ref: PointCloud, params: RegistrationParams = RegistrationParams(),
             seed: int = 0):
    """estimate_pose of `scan` against `ref`, prepared as the benchmark prepares its reference."""
    return estimate_pose(scan, ref, params, seed, prepare_cloud(ref, params))


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
    "rho_rot": (lambda v: RegistrationParams(rho_rot=v), "rho_rot"),
    "ransac_inlier_threshold": (
        lambda v: ransac_register(FOUR_FEATURES, FOUR_FEATURES, RegistrationParams(), v, 0),
        "threshold"),
    "icp_max_correspondence_dist": (
        lambda v: icp_refine(FOUR_POINTS, FOUR_POINTS, v, Pose.identity(),
                             cKDTree(FOUR_POINTS.points)),
        "cutoff"),
    "feature_radius": (lambda v: compute_features(FOUR_POINTS, v), "radius"),
}


@pytest.mark.parametrize("field, value", [
    ("voxel_size", np.nan), ("voxel_size", np.inf), ("voxel_size", 0.0), ("voxel_size", -1e-4),
    ("ransac_inlier_threshold", np.nan), ("ransac_inlier_threshold", np.inf),
    ("ransac_inlier_threshold", 0.0), ("ransac_inlier_threshold", -1.0),
    ("feature_radius", np.nan), ("feature_radius", np.inf),
    ("feature_radius", -1.0), ("feature_radius", 0.0),
    ("outlier_std_ratio", np.nan), ("icp_max_correspondence_dist", np.nan),
    ("icp_max_correspondence_dist", np.inf), ("icp_max_correspondence_dist", 0.0),
    ("icp_max_correspondence_dist", -1.0),
    ("rho_rot", np.nan),
    ("outlier_mean_k", np.nan), ("outlier_mean_k", 0), ("outlier_mean_k", "12"),
    ("outlier_mean_k", True),
])
def test_params_reject_nan_and_non_finite(field, value):
    """RegistrationParams checks its orientation prior; every other setting
    is an argument of the function that reads it, which checks it itself:
    RANSAC's inlier threshold, ICP's cutoff and the FPFH radius that the
    pipeline derives from the scan's pitch, and the arguments of the
    functions kept for the benchmark's tracer."""
    check, argument = ARGUMENT_CHECKS[field]
    with pytest.raises(ValueError, match=argument):
        check(value)


def test_estimate_pose_derives_its_thresholds_from_the_scan_pitch(monkeypatch):
    """With (ds, dl) the raster pitch of a cloud and d = max(ds, dl): FPFH
    describes each cloud at 500 um + d of its own pitch, and from the scan's
    pitch RANSAC counts inliers within 4 d, ICP matches within 12 d and the
    fitness gate is ds^2 + dl^2: a fitness at it passes, one above it fails."""
    radii, thresholds, cutoffs, fitness = [], [], [], []

    def recording_features(cloud, radius):
        radii.append(radius)
        return compute_features(cloud, radius)

    def recording_ransac(scan, ref, params, threshold, seed):
        thresholds.append(threshold)
        return ransac_register(scan, ref, params, threshold, seed)

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
    ref = prepare_cloud(ref_cloud, RegistrationParams())
    fitness.append(ds * ds + dl * dl)
    assert estimate_pose(scan, ref_cloud, RegistrationParams(), 3, ref).fitness == fitness[-1]
    fitness.append(np.nextafter(fitness[-1], np.inf))
    with pytest.raises(RegistrationFailedError, match="above rho_icp"):
        estimate_pose(scan, ref_cloud, RegistrationParams(), 3, ref)
    assert radii == [5e-4 + max(raster_pitch(ref_cloud, raster_cells(ref_cloud))), 5e-4 + d,
                     5e-4 + d]
    assert thresholds == [4.0 * d] * 2 and cutoffs == [12.0 * d] * 2


def test_orientation_gate_is_strictly_inside_rho_rot():
    params = RegistrationParams(rho_rot=0.1)
    assert params.in_orientation_gate(quat_from_axis_angle([0, 0, 1], 0.0999))
    assert not params.in_orientation_gate(quat_from_axis_angle([0, 0, 1], 0.1001))
    assert not params.in_orientation_gate(quat_from_axis_angle([1, 0, 0], np.pi))


# -- features -----------------------------------------------------------------

def test_features_deterministic():
    cloud = terrain_cloud()
    a = compute_features(cloud, radius=6e-4)
    b = compute_features(cloud, radius=6e-4)
    np.testing.assert_array_equal(a.descriptors, b.descriptors)


def test_features_rotation_invariant():
    cloud = terrain_cloud()
    pose = Pose.from_axis_angle(np.array([0.02, -0.01, 0.005]), [0.3, 1.0, 0.2], 0.7)
    moved = transform_cloud(cloud, pose)
    a = compute_features(cloud, radius=6e-4)
    b = compute_features(moved, radius=6e-4)
    assert np.max(np.abs(a.descriptors - b.descriptors)) < 1e-6


def test_plane_patch_interior_descriptors_agree():
    xs = np.linspace(0, 3e-3, 16)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    nrm = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    fc = compute_features(PointCloud(pts, nrm), radius=5e-4)
    interior = (
        (pts[:, 0] > 6e-4) & (pts[:, 0] < 2.4e-3) & (pts[:, 1] > 6e-4) & (pts[:, 1] < 2.4e-3)
    )
    d = fc.descriptors[interior]
    spread = np.max(d, axis=0) - np.min(d, axis=0)
    assert np.max(spread) <= 2.0  # bins are percentages; 2% per bin


def test_features_degenerate_radius():
    cloud = terrain_cloud()
    with pytest.raises(DegenerateFeatureError):
        compute_features(cloud, radius=1e-5)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -6e-4])
def test_features_reject_a_radius_that_is_not_positive_and_finite(radius):
    """A NaN radius used to raise the DegenerateFeatureError a trial counts as
    a failure, and an infinite one paired every point with every other."""
    with pytest.raises(ValueError, match="radius") as err:
        compute_features(terrain_cloud(), radius)
    assert err.type is ValueError


def test_features_need_normals():
    """compute_features estimates no normals: a cloud without them raises."""
    with pytest.raises(ValueError, match="normals"):
        compute_features(PointCloud(terrain_cloud().points), radius=6e-4)


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


def reference_compute_features(cloud: PointCloud, radius: float):
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
        cloud = cloud.select(keep)
    src_idx, tgt_idx = [], []
    for i, nbrs in enumerate(neighbor_lists):
        nbrs = [j for j in sorted(nbrs) if j != i]
        src_idx.extend([i] * len(nbrs))
        tgt_idx.extend(nbrs)
    src = np.array(src_idx, dtype=np.int64)
    tgt = np.array(tgt_idx, dtype=np.int64)
    alpha, phi, theta, dist, ok = reference_pair_features(
        cloud.points[src], cloud.normals[src], cloud.points[tgt], cloud.normals[tgt])
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
    normals = None
    if cloud.has_normals:
        nsum = np.zeros((m, 3))
        np.add.at(nsum, inverse, cloud.normals)
        lens = np.linalg.norm(nsum, axis=1, keepdims=True)
        ok = lens[:, 0] > 1e-9
        normals = np.where(ok[:, None], nsum / np.where(ok[:, None], lens, 1.0), 0.0)
        normals[~ok] = cloud.normals[first[~ok]]
    return PointCloud(centroids, normals)


def assert_same_features(cloud: PointCloud, radius: float):
    expected_cloud, expected = reference_compute_features(cloud, radius)
    fc = compute_features(cloud, radius)
    np.testing.assert_array_equal(fc.keypoints.points, expected_cloud.points)
    np.testing.assert_array_equal(fc.keypoints.normals, expected_cloud.normals)
    np.testing.assert_array_equal(fc.descriptors, expected)


def assert_same_voxels(cloud: PointCloud, voxel_size: float):
    expected = reference_voxel_downsample(cloud, voxel_size)
    out = voxel_downsample(cloud, voxel_size)
    np.testing.assert_array_equal(out.points, expected.points)
    if expected.has_normals:
        np.testing.assert_array_equal(out.normals, expected.normals)
    else:
        assert not out.has_normals


def test_features_match_loop_reference_on_lattice_scan():
    cloud = with_up_normals(lattice_plate_cloud())
    # sqrt(5) lattice steps: a quarter of the neighbour pairs sit on the radius
    assert_same_features(cloud, radius=np.sqrt(5) * 25e-6)
    # estimated normals, on voxel centroids
    assert_same_features(estimate_normals(PointCloud(voxel_downsample(cloud, 5e-5).points)),
                         radius=1.5e-4)


def test_features_match_loop_reference_on_jittered_terrain():
    assert_same_features(terrain_cloud(), radius=6e-4)


def test_features_match_loop_reference_after_dropping_stragglers():
    cloud = terrain_cloud()
    stragglers = np.array([[0.02, 0.02, 0.0], [-0.02, 0.01, 0.0]])
    padded = PointCloud(np.vstack([cloud.points, stragglers]),
                        np.vstack([cloud.normals, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]]))
    fc = compute_features(padded, radius=6e-4)
    assert len(fc) == len(cloud)
    assert_same_features(padded, radius=6e-4)


def line_of_points(count: int, radius: float) -> PointCloud:
    """Points 0.3 radius apart along x, far from the terrain: each has at most
    6 neighbours, and the ends have 3, so dropping the ends shortens the next."""
    pts = np.zeros((count, 3))
    pts[:, 0] = 0.05 + 0.3 * radius * np.arange(count)
    return PointCloud(pts, np.tile([0.0, 0.0, 1.0], (count, 1)))


def test_features_peel_stragglers_to_a_fixed_point():
    """Dropping the stragglers leaves new ones; they go too, until none is left,
    and the rest is described as if the dropped points had never been there."""
    radius = 6e-4
    cloud = terrain_cloud()
    line = line_of_points(30, radius)
    padded = PointCloud(np.vstack([cloud.points, line.points]),
                        np.vstack([cloud.normals, line.normals]))
    fc = compute_features(padded, radius)
    expected = compute_features(cloud, radius)
    np.testing.assert_array_equal(fc.keypoints.points, expected.keypoints.points)
    np.testing.assert_array_equal(fc.descriptors, expected.descriptors)
    assert_same_features(padded, radius)
    # the bound counts every dropped point, not only the first round's
    long_line = line_of_points(len(cloud) // 10 + 20, radius)
    with pytest.raises(DegenerateFeatureError, match=f"of {len(cloud) + len(long_line)} points"):
        compute_features(PointCloud(np.vstack([cloud.points, long_line.points]),
                                    np.vstack([cloud.normals, long_line.normals])), radius)


def test_pair_features_match_the_row_reference():
    """The column kernel gives the row kernel's values bit for bit, on a plate
    scan with copies below some points: their pairs lie on the normal line
    (no Darboux frame) and carry antiparallel normals."""
    plate = with_up_normals(lattice_plate_cloud())
    below = plate.select(np.arange(len(plate)) % 7 == 0)
    cloud = PointCloud(np.vstack([plate.points, below.points - [0.0, 0.0, 30e-6]]),
                       np.vstack([plate.normals, -below.normals]))
    tilted = transform_cloud(cloud, Pose.from_axis_angle(
        np.array([1e-3, -2e-3, 5e-4]), [0.3, -0.4, 1.0], 0.9))
    for c in (cloud, tilted):
        pairs = cKDTree(c.points).query_pairs(np.sqrt(5) * 25e-6, output_type="ndarray")
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        tgt = np.concatenate([pairs[:, 1], pairs[:, 0]])
        expected = reference_pair_features(c.points[src], c.normals[src],
                                           c.points[tgt], c.normals[tgt])
        got = features_module._pair_features(c.points, c.normals, src, tgt)
        assert np.count_nonzero(~expected[4]) >= 2 * len(below)
        assert np.any(np.einsum("ij,ij->i", c.normals[src], c.normals[tgt]) < -0.999)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(e))


def test_features_without_a_darboux_frame_raise():
    """Every neighbour of every point lies on its normal's line, so no pair
    has a frame: a typed error naming the point, and no 0/0 warning."""
    pts = np.zeros((30, 3))
    pts[:, 2] = 1e-4 * np.arange(30)
    cloud = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (30, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFeatureError, match="point 0 "):
            compute_features(cloud, radius=5e-4)


def test_voxel_grid_matches_loop_reference_on_lattice_scan():
    cloud = with_up_normals(lattice_plate_cloud())
    for voxel_size in (1e-4, 5e-5, 2.5e-5):   # cell edges on lattice rows, and one point per cell
        assert_same_voxels(cloud, voxel_size)
        assert_same_voxels(PointCloud(cloud.points), voxel_size)


def test_voxel_grid_matches_loop_reference_on_jittered_terrain():
    cloud = terrain_cloud()
    for voxel_size in (1e-4, 3e-4, 1e-3):
        assert_same_voxels(cloud, voxel_size)
        assert_same_voxels(PointCloud(cloud.points), voxel_size)


def test_voxel_grid_matches_loop_reference_on_opposing_normals():
    pts = np.array([[0.0, 0.0, 0.0], [1e-5, 0.0, 0.0], [3e-4, 0.0, 0.0], [3.1e-4, 0.0, 0.0]])
    nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert_same_voxels(PointCloud(pts, nrm), 1e-4)


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
    params = RegistrationParams()
    prepared = prepare_cloud(ref, params)
    assert isinstance(prepared, FeatureCloud)
    assert prepared.fine is prepared.keypoints
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    first = estimate_pose(scan, prepared.fine, params, seed=3, ref_prepared=prepared)
    reused = estimate_pose(scan, prepared.fine, params, seed=3, ref_prepared=prepared)
    assert reused.to_json_dict() == first.to_json_dict() == register(scan, ref, seed=3).to_json_dict()


# -- RANSAC -------------------------------------------------------------------

def test_ransac_identity_on_identical_clouds():
    cloud = terrain_cloud()
    fc = compute_features(cloud, radius=6e-4)
    result = ransac_register(fc, fc, RegistrationParams(), RANSAC_THRESHOLD, seed=0)
    assert result.inlier_fraction >= 0.99
    assert np.linalg.norm(result.pose.position) < 1e-6
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-4


def test_ransac_recovers_known_transform():
    ref = terrain_cloud()
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    scan = transform_cloud(ref, true)
    scan_fc = compute_features(scan, radius=6e-4)
    ref_fc = compute_features(ref, radius=6e-4)
    result = ransac_register(scan_fc, ref_fc, RegistrationParams(), RANSAC_THRESHOLD, seed=1)
    assert np.linalg.norm(result.pose.position - true.position) < 2 * RANSAC_THRESHOLD
    assert quat_distance(result.pose.orientation, true.orientation) < 0.05


def test_ransac_negative_control_unrelated_geometry():
    plate = terrain_cloud()
    ball = sphere_cloud()
    result = ransac_register(
        compute_features(ball, radius=6e-4),
        compute_features(plate, radius=6e-4),
        RegistrationParams(),
        RANSAC_THRESHOLD,
        seed=2,
    )
    assert result.inlier_fraction < 0.3


def test_ransac_insufficient_keypoints():
    tiny = PointCloud(np.zeros((2, 3)) + np.arange(2)[:, None] * 1e-3,
                      np.tile([0.0, 0.0, 1.0], (2, 1)))
    fc = FeatureCloud(tiny, np.zeros((2, 33)))
    with pytest.raises(InsufficientCorrespondencesError):
        ransac_register(fc, fc, RegistrationParams(), RANSAC_THRESHOLD, seed=0)


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
    ref = prepare_cloud(sparse_scan(), RegistrationParams())
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
    estimate_pose(scan, ref.keypoints, RegistrationParams(), seed=3, ref_prepared=ref)
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
    cloud = terrain_cloud()
    result = refine(cloud, cloud)
    assert result.fitness <= 1e-18
    assert np.linalg.norm(result.pose.position) < 1e-12
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-10


def test_icp_recovers_small_translation():
    ref = terrain_cloud()
    shift = np.array([2e-4, 0.0, 0.0])
    moved = PointCloud(ref.points + shift, ref.normals)
    # moved ref must come back onto the scan: recovered translation is -shift
    result = refine(ref, moved)
    np.testing.assert_allclose(result.pose.position, -shift, atol=1e-6)
    assert result.fitness < 1e-16


def test_icp_stops_at_the_iteration_cap_on_a_sliding_plate():
    # a jittered copy of a plate scan, started 300 um off, slides for all 60 iterations
    plate = lattice_plate_cloud()
    jittered = plate.points.copy()
    jittered[:, :2] += np.random.default_rng(0).uniform(-12.5e-6, 12.5e-6, size=(len(plate), 2))
    start = Pose.from_axis_angle(np.array([3e-4, -1.5e-4, 0.0]), [0, 0, 1], 0.02)
    result = refine(plate, PointCloud(jittered), start)
    assert result.iterations == icp_module.MAX_ITERATIONS == 60


def test_icp_divergence_error():
    a = terrain_cloud()
    b = PointCloud(a.points + np.array([1.0, 0.0, 0.0]), a.normals)
    with pytest.raises(DivergenceError):
        refine(a, b)


def test_icp_total_pose_composes_initial():
    ref = terrain_cloud()
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


def test_estimate_pose_recovers_perturbation_with_noise():
    """The scanner's depth noise is the noise; rho_icp is the pitch gate."""
    true = Pose.from_axis_angle(np.array([3e-4, 1e-4, -2e-4]), [0, 0, 1], np.deg2rad(5))
    params = RegistrationParams(q0=true.orientation)
    result = register(sparse_scan(true), sparse_scan(), params, seed=4)
    assert np.linalg.norm(result.pose.position - true.position) < 30e-6
    assert quat_distance(result.pose.orientation, true.orientation) < np.deg2rad(0.5)


def test_estimate_pose_gate_negative_control():
    ref = sparse_scan()
    q0 = Pose.from_axis_angle(np.zeros(3), [1, 0, 0], np.pi / 2).orientation
    params = RegistrationParams(q0=q0, rho_rot=np.deg2rad(10))
    with pytest.raises(RegistrationFailedError) as err:
        register(ref, ref, params, seed=5)
    # no pose was kept, so there is no fitness to report
    assert err.value.best is None
    assert "no refined pose passed the orientation gate" in str(err.value)


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
    ref = prepare_cloud(sparse_scan(), RegistrationParams())
    rng = np.random.default_rng(6)
    for trial in range(5):
        offset = rng.uniform(-workloads.MAX_OFFSET, workloads.MAX_OFFSET, size=2)
        true = Pose.from_axis_angle(np.array([*offset, 0.0]), [0, 0, 1],
                                    rng.uniform(-workloads.MAX_YAW, workloads.MAX_YAW))
        p = RegistrationParams(q0=true.orientation)
        result = estimate_pose(sparse_scan(true), ref.keypoints, p, seed=100 + trial,
                               ref_prepared=ref)
        assert quat_distance(result.pose.orientation, p.q0) < p.rho_rot


def test_estimate_pose_deterministic():
    ref = sparse_scan()
    scan = sparse_scan(Pose.from_axis_angle(np.array([2e-4, 0, 0]), [0, 0, 1], 0.05))
    params = RegistrationParams()
    a = register(scan, ref, params, seed=9)
    b = register(scan, ref, params, seed=9)
    np.testing.assert_array_equal(a.pose.position, b.pose.position)
    np.testing.assert_array_equal(a.pose.orientation, b.pose.orientation)
    assert a.fitness == b.fitness


# -- dense scans, partial scans and traced runs ----------------------------------

@pytest.fixture(scope="module")
def dense_reference() -> FeatureCloud:
    return prepare_cloud(bench_scan("dense_corrected", Pose.identity(), CalibrationError.none()),
                         RegistrationParams())


@pytest.mark.parametrize("cal", [CalibrationError.none(), workloads.CAL],
                         ids=["no_cal_error", "cal_error"])
@pytest.mark.parametrize("offset", [(200e-6, -200e-6), (-200e-6, 200e-6)], ids=["+-", "-+"])
@pytest.mark.parametrize("yaw", [0.0, 3.0, -3.0])
def test_estimate_pose_on_a_dense_scan_is_accurate_in_one_loop(dense_reference, yaw, offset, cal):
    """Outline registration with the default params finds the plate to 15 um
    and 2 mrad in its one RANSAC -> ICP pass. The outline holds whole raster
    cells, so an edge along the raster keeps a sub-pitch bias: hence 15 um,
    not 10, and at 0 yaw, where every side runs along the raster, the yaw
    is fixed only to about the 25 um profile step over the 6 mm side,
    4.2 mrad, not 2 (ICP stops anywhere in that range)."""
    true = Pose(np.array([*offset, 0.0]), quat_from_axis_angle([0, 0, 1], np.deg2rad(yaw)))
    scan = bench_scan("dense_corrected", true, cal)
    result = estimate_pose(scan, dense_reference.keypoints, RegistrationParams(), seed=3,
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
                        RegistrationParams())
    sweep = linear_sweep(Pose.from_axis_angle([0.0, 0.8e-3, 0.03], [1, 0, 0], np.pi),
                         [0, 1, 0], w.sweep_step, 18)
    scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER),
                             Pose.from_axis_angle(np.array([1e-4, -1e-4, 0.0]), [0, 0, 1], 0.02))])
    scan = sweep_scan(scene, sweep, w.scanner, workloads.CAL, seed=5)
    with pytest.raises(RegistrationFailedError):
        estimate_pose(scan, ref.fine, RegistrationParams(), seed=3, ref_prepared=ref)
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


def test_estimate_pose_reads_no_scan_normals():
    """A line scanner measures no normals, and the scanner gives none: adding
    estimated normals to both raster clouds changes no bit of the result."""
    ref = bench_scan("sparse_fresh_ref", Pose.identity(), CalibrationError.none())
    scan = bench_scan("sparse_fresh_ref", Pose.from_axis_angle(
        np.array([1e-4, -1.5e-4, 0.0]), [0, 0, 1], 0.03), workloads.CAL)
    assert scan.normals is None and ref.normals is None
    with_normals = [estimate_normals(c) for c in (scan, ref)]
    assert all(c.has_normals and c.raster_shape is not None for c in with_normals)
    assert register(*with_normals, seed=4).to_json_dict() == \
        register(scan, ref, seed=4).to_json_dict()


def test_registration_result_json_round_trip():
    import json
    scan = sparse_scan(Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    result = register(scan, sparse_scan(), seed=0)
    payload = json.dumps(result.to_json_dict())
    back = json.loads(payload)
    assert set(back) == {"position", "orientation_wxyz", "fitness", "ransac_inlier_fraction"}
    assert len(back["orientation_wxyz"]) == 4
