import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, column_norm, pose_compose, quat_distance, \
    quat_from_axis_angle, quat_from_matrix, quat_normalize, quat_to_matrix, transform_cloud
from insertsim.registration import (
    DegenerateFeatureError,
    DivergenceError,
    FeatureCloud,
    InsufficientCorrespondencesError,
    RegistrationFailedError,
    RegistrationParams,
    compute_features,
    estimate_normals,
    estimate_pose,
    icp_refine,
    prepare_cloud,
    ransac_register,
    voxel_downsample,
)
from insertsim.registration import features as features_module
from insertsim.registration import icp as icp_module
from insertsim.registration import pipeline as pipeline_module
from insertsim.registration import preprocess as preprocess_module
from insertsim.registration import ransac as ransac_module
from insertsim.registration.ransac import inlier_count, inlier_grid
from insertsim.registration.rigid import kabsch_transform
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep, sweep_scan

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
    cfg = ScannerConfig(points_per_profile=96, lateral_span=96 * 25e-6,
                        lateral_resolution=25e-6, depth_noise_std=0.0)
    start = Pose.from_axis_angle([0.0, -1.2e-3, 0.03], [1, 0, 0], np.pi)
    return sweep_scan(scene, linear_sweep(start, [0, 1, 0], 25e-6, 96), cfg,
                      CalibrationError.none(), seed=0)


def small_params(**kw) -> RegistrationParams:
    defaults = dict(
        voxel_size=1e-4,
        outlier_mean_k=8,
        outlier_std_ratio=3.0,
        ransac_iterations=600,
        ransac_inlier_threshold=2e-4,
        icp_max_iterations=60,
        icp_max_correspondence_dist=1.5e-3,
        feature_radius=6e-4,
    )
    defaults.update(kw)
    return RegistrationParams(**defaults)


# -- parameters ------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("voxel_size", np.nan), ("voxel_size", np.inf),
    ("rho_icp", np.nan), ("rho_icp", np.inf),
    ("ransac_inlier_threshold", np.nan), ("ransac_inlier_threshold", np.inf),
    ("feature_radius", np.nan), ("feature_radius", np.inf),
    ("feature_radius", -1.0), ("feature_radius", 0.0),
    ("outlier_std_ratio", np.nan), ("icp_max_correspondence_dist", np.nan),
    ("rho_rot", np.nan),
    ("outlier_mean_k", np.nan), ("outlier_mean_k", 0), ("ransac_iterations", 2.5),
    ("ransac_iterations", 3.0), ("max_outer_loops", np.inf), ("icp_max_iterations", True),
    ("max_outer_loops", np.float64(2.0)), ("outlier_mean_k", "12"),
])
def test_params_reject_nan_and_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        RegistrationParams(**{field: value})


def test_params_derive_the_fields_left_none():
    """From the pitch on a raster, the whole-cloud values without one; a
    value the caller passes is kept either way."""
    ds, dl = 12e-6, 25e-6
    fields = ("rho_icp", "ransac_inlier_threshold", "icp_max_correspondence_dist",
              "feature_radius")
    raster = RegistrationParams().resolved((ds, dl))
    assert [getattr(raster, f) for f in fields] == [ds * ds + dl * dl, 4 * dl, 12 * dl, 5e-4 + dl]
    whole = RegistrationParams(voxel_size=2e-4).resolved(None)
    assert [getattr(whole, f) for f in fields] == [(5e-6) ** 2, 2e-4, 1e-3, 1e-3]
    given = small_params(rho_icp=1e-12)
    for pitch in ((ds, dl), None):
        assert [getattr(given.resolved(pitch), f) for f in fields] == [1e-12, 2e-4, 1.5e-3, 6e-4]


def test_params_accept_numpy_integers():
    params = RegistrationParams(outlier_mean_k=np.int64(8), max_outer_loops=np.int32(3))
    assert params.outlier_mean_k == 8 and params.max_outer_loops == 3


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
    if not cloud.has_normals:
        cloud = estimate_normals(cloud)
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
    cloud = lattice_plate_cloud()
    # sqrt(5) lattice steps: a quarter of the neighbour pairs sit on the radius
    assert_same_features(cloud, radius=np.sqrt(5) * 25e-6)
    # normals estimated inside compute_features
    assert_same_features(PointCloud(voxel_downsample(cloud, 5e-5).points), radius=1.5e-4)


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
    plate = lattice_plate_cloud()
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
    cloud = lattice_plate_cloud()
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
    """KD-tree builds per estimate_pose do not grow with the outer loop count,
    and the RANSAC inlier grid is built once."""
    builds, grids = [], []

    def counting_tree(*args, **kwargs):
        builds.append(1)
        return cKDTree(*args, **kwargs)

    def counting_grid(*args, **kwargs):
        grids.append(1)
        return inlier_grid(*args, **kwargs)

    for module in (preprocess_module, features_module, ransac_module, icp_module,
                   pipeline_module):
        monkeypatch.setattr(module, "cKDTree", counting_tree, raising=False)
    monkeypatch.setattr(ransac_module, "inlier_grid", counting_grid)
    ref = terrain_cloud()
    rng = np.random.default_rng(11)
    scan = transform_cloud(ref, Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    scan = PointCloud(scan.points + rng.normal(scale=1.5e-6, size=scan.points.shape), scan.normals)
    counts = []
    for loops in (1, 5):
        builds.clear()
        grids.clear()
        # rho_icp below any reachable fitness, so every outer loop runs
        params = small_params(rho_icp=1e-30, max_outer_loops=loops)
        with pytest.raises(RegistrationFailedError) as err:
            estimate_pose(scan, ref, params, seed=3)
        assert err.value.best.outer_loops_used == loops
        counts.append(len(builds))
        assert len(grids) == 1
    assert counts[0] == counts[1]


def test_icp_matches_against_the_scan_keypoint_tree(monkeypatch):
    """ICP reuses the scan FeatureCloud's keypoint tree instead of building its own,
    and places the reference keypoints itself from the same loop's RANSAC pose."""
    ransac_calls, icp_calls = [], []

    def recording_ransac(scan, ref, *args, **kwargs):
        result = ransac_register(scan, ref, *args, **kwargs)
        ransac_calls.append((scan, ref, result))
        return result

    def recording_icp(scan, ref, params, initial_pose=None, scan_tree=None):
        icp_calls.append((ref, initial_pose, scan_tree))
        return icp_refine(scan, ref, params, initial_pose=initial_pose, scan_tree=scan_tree)

    monkeypatch.setattr(pipeline_module, "ransac_register", recording_ransac)
    monkeypatch.setattr(pipeline_module, "icp_refine", recording_icp)
    ref = terrain_cloud()
    scan = transform_cloud(ref, Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    estimate_pose(scan, ref, small_params(max_outer_loops=2), seed=3)
    assert icp_calls and len(icp_calls) == len(ransac_calls)
    scan_f, ref_f, _ = ransac_calls[0]
    # every loop here passes the gate, so call i of each belongs to loop i
    for (icp_ref, initial_pose, tree), (_, _, coarse) in zip(icp_calls, ransac_calls):
        assert tree is scan_f.keypoint_tree
        assert icp_ref is ref_f.keypoints
        assert initial_pose is coarse.pose


def test_prepare_cloud_returns_the_feature_cloud():
    ref = terrain_cloud()
    params = small_params()
    prepared = prepare_cloud(ref, params)
    assert isinstance(prepared, FeatureCloud)
    assert prepared.fine is prepared.keypoints
    scan = transform_cloud(ref, Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    direct = estimate_pose(scan, ref, params, seed=3)
    reused = estimate_pose(scan, prepared.fine, params, seed=3, ref_prepared=prepared)
    assert reused.to_json_dict() == direct.to_json_dict()


# -- RANSAC -------------------------------------------------------------------

def test_ransac_identity_on_identical_clouds():
    cloud = terrain_cloud()
    fc = compute_features(cloud, radius=6e-4)
    result = ransac_register(fc, fc, small_params(), seed=0)
    assert result.inlier_fraction >= 0.99
    assert np.linalg.norm(result.pose.position) < 1e-6
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-4


def test_ransac_recovers_known_transform():
    ref = terrain_cloud()
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    scan = transform_cloud(ref, true)
    params = small_params()
    scan_fc = compute_features(scan, radius=6e-4)
    ref_fc = compute_features(ref, radius=6e-4)
    result = ransac_register(scan_fc, ref_fc, params, seed=1)
    assert np.linalg.norm(result.pose.position - true.position) < 2 * params.ransac_inlier_threshold
    assert quat_distance(result.pose.orientation, true.orientation) < 0.05


def test_ransac_negative_control_unrelated_geometry():
    plate = terrain_cloud()
    ball = sphere_cloud()
    params = small_params()
    result = ransac_register(
        compute_features(ball, radius=6e-4),
        compute_features(plate, radius=6e-4),
        params,
        seed=2,
    )
    assert result.inlier_fraction < 0.3


def test_ransac_insufficient_keypoints():
    tiny = PointCloud(np.zeros((2, 3)) + np.arange(2)[:, None] * 1e-3,
                      np.tile([0.0, 0.0, 1.0], (2, 1)))
    fc = FeatureCloud(tiny, np.zeros((2, 33)))
    with pytest.raises(InsufficientCorrespondencesError):
        ransac_register(fc, fc, small_params(), seed=0)


# -- RANSAC loop reference -------------------------------------------------------
# The RANSAC loop as it was before the inlier grid, kept as an oracle: every
# hypothesis is scored with one KD-tree query over all reference keypoints.
# The grid-scored loop must return the same RansacResult bit for bit.

def reference_ransac_register(scan: FeatureCloud, ref: FeatureCloud,
                              params: RegistrationParams, seed: int):
    knn, pool, _ = ransac_module.correspondence_candidates(scan, ref,
                                                           params.ransac_inlier_threshold)
    k = knn.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xAC]))
    scan_pts = scan.keypoints.points
    ref_pts = ref.keypoints.points
    n_scan = len(scan_pts)
    n_ref = len(ref_pts)
    scan_tree = cKDTree(scan_pts)
    threshold = params.ransac_inlier_threshold
    min_edge = 3.0 * threshold
    R_prior = quat_to_matrix(params.q0)

    def score(R, t):
        d, idx = scan_tree.query(ref_pts @ R.T + t, distance_upper_bound=threshold)
        inliers = np.isfinite(d)
        return int(inliers.sum()), inliers, idx

    best_count = -1
    best = None
    for it in range(params.ransac_iterations):
        if it % 2 == 0:
            sample = pool[rng.choice(len(pool), size=3, replace=False)]
            ref_sample = knn[sample, rng.integers(0, k, size=3)]
            if len(set(ref_sample.tolist())) < 3:
                continue
            src = ref_pts[ref_sample]
            dst = scan_pts[sample]
            e_src = ransac_module._edge_lengths(src)
            e_dst = ransac_module._edge_lengths(dst)
            if np.any(e_dst < min_edge):
                continue
            longest = np.maximum(e_src, e_dst)
            if np.any(longest <= 0.0) or np.any(np.minimum(e_src, e_dst) / longest < 0.9):
                continue
            area = 0.5 * np.linalg.norm(np.cross(dst[1] - dst[0], dst[2] - dst[0]))
            if area < 0.05 * float(np.max(e_dst)) ** 2:
                continue
            R, t = kabsch_transform(src, dst)
        else:
            s = int(rng.integers(0, n_scan))
            if it % 4 == 1:
                r = int(knn[s, rng.integers(0, k)])
            else:
                r = int(rng.integers(0, n_ref))
            R = R_prior
            t = scan_pts[s] - R @ ref_pts[r]
        if quat_distance(quat_from_matrix(R), params.q0) >= params.rho_rot:
            continue
        count, inliers, idx = score(R, t)
        if count > best_count:
            best_count = count
            best = (R, t, inliers, idx)
            if count >= 0.9 * n_ref:
                break

    if best is None:
        return ransac_module.RansacResult(Pose.identity(), 0.0)
    R, t, inliers, idx = best
    count = best_count
    if count >= 3:
        R2, t2 = kabsch_transform(ref_pts[inliers], scan_pts[idx[inliers]])
        if quat_distance(quat_from_matrix(R2), params.q0) < params.rho_rot:
            refined_count = score(R2, t2)[0]
            if refined_count >= count:
                R, t, count = R2, t2, refined_count
    return ransac_module.RansacResult(Pose(t, quat_from_matrix(R)), count / n_ref)


def assert_same_ransac(scan: FeatureCloud, ref: FeatureCloud, params: RegistrationParams,
                       seeds=range(4)):
    for seed in seeds:
        expected = reference_ransac_register(scan, ref, params, seed)
        result = ransac_register(scan, ref, params, seed)
        np.testing.assert_array_equal(result.pose.position, expected.pose.position)
        np.testing.assert_array_equal(result.pose.orientation, expected.pose.orientation)
        assert result.inlier_fraction == expected.inlier_fraction


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.floats(3e-5, 7e-4), rotate=st.booleans(),
       beat_offset=st.integers(-400, 400))
def test_inlier_grid_count_matches_the_tree(seed, threshold, rotate, beat_offset):
    """The count is the tree's whenever it exceeds `beat`, and at most `beat` otherwise."""
    rng = np.random.default_rng(seed)
    cube = threshold / 2
    scan = rng.uniform(-1e-3, 1e-3, size=(300, 3))
    scan[:100] = np.round(scan[:100] / cube) * cube  # on cube faces, edges and corners
    axes = np.eye(3)[rng.integers(0, 3, size=200)] * rng.choice([-1.0, 1.0], size=(200, 1))
    ref = np.vstack([
        scan[:200] + threshold * axes,  # at distance thr from a keypoint, on and off cube faces
        scan[rng.integers(0, 300, size=200)] + rng.normal(scale=threshold, size=(200, 3)),
        np.round(rng.uniform(-1.2e-3, 1.2e-3, size=(200, 3)) / cube) * cube,
        rng.uniform(-2e-3, 2e-3, size=(200, 3)),
    ])
    if rotate:
        R = quat_to_matrix(quat_normalize(rng.normal(size=4)))
        ref = ref @ R.T + rng.normal(scale=threshold, size=3)
    tree = cKDTree(scan)
    expected = np.count_nonzero(np.isfinite(tree.query(ref, distance_upper_bound=threshold)[0]))
    grid = inlier_grid(scan, threshold)
    sure, most = (0, len(ref)) if grid is None else grid_bounds(ref, threshold, grid)
    assert sure <= expected <= most
    # around the grid's bounds and the count itself, where an off-by-one shows
    for beat in (expected + beat_offset, -1, sure - 1, sure, expected - 1, expected,
                 most - 1, most):
        count = inlier_count(ref, tree, threshold, grid, beat)
        if expected > beat:
            assert count == expected
        else:
            assert count <= beat
        assert inlier_count(ref, tree, threshold, None, beat) == expected


def grid_bounds(moved: np.ndarray, threshold: float, grid) -> tuple:
    """Points of `moved` in keypoint cubes, and in keypoint or near cubes:
    the grid's lower and upper bounds on their inlier count."""
    cubes = np.clip(np.floor(moved / (threshold / 2)) - grid.lo, 0.0, grid.top)
    state = grid.state[tuple(cubes.astype(np.intp).T)]
    return int(np.count_nonzero(state == 2)), int(np.count_nonzero(state >= 1))


def test_ransac_losers_skip_the_tree(monkeypatch):
    """A hypothesis whose grid upper bound is no more than the count to beat
    never reaches scan_tree.query. RANSAC keeps the loop reference's result
    even when every count at or below `beat` comes back as `beat` itself,
    the least helpful answer inlier_count may give."""
    calls = []

    class CountingTree:
        def __init__(self, tree):
            self.tree, self.queries = tree, 0

        def query(self, *args, **kwargs):
            self.queries += 1
            return self.tree.query(*args, **kwargs)

    def least_helpful_count(moved, tree, threshold, grid, beat):
        counting = CountingTree(tree)
        count = inlier_count(moved, counting, threshold, grid, beat)
        calls.append((grid_bounds(moved, threshold, grid)[1] <= beat, counting.queries,
                      count, beat))
        return beat if count <= beat else count

    monkeypatch.setattr(ransac_module, "inlier_count", least_helpful_count)
    params = small_params()
    ref = prepare_cloud(lattice_plate_cloud(), params)
    moved = Pose.from_axis_angle(np.array([6e-5, -4e-5, 0.0]), [0, 0, 1], 0.04)
    assert_same_ransac(prepare_cloud(lattice_plate_cloud(moved), params), ref, params)
    # half the terrain seen: no hypothesis reaches the 0.9 stop, so every
    # iteration and the polish are scored against a count to beat
    terrain = terrain_cloud()
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    half = transform_cloud(terrain.select(terrain.points[:, 0] < 3e-3), true)
    assert_same_ransac(compute_features(half, radius=6e-4),
                       compute_features(terrain, radius=6e-4), params)
    settled = [c for c in calls if c[0]]
    assert len(settled) > len(calls) / 2
    assert all(queries == 0 and count <= beat for _, queries, count, beat in settled)
    assert any(queries for _, queries, _, _ in calls)


def test_ransac_matches_loop_reference_on_lattice_scan():
    params = small_params()
    ref = prepare_cloud(lattice_plate_cloud(), params)
    moved = Pose.from_axis_angle(np.array([6e-5, -4e-5, 0.0]), [0, 0, 1], 0.04)
    scan = prepare_cloud(lattice_plate_cloud(moved), params)
    assert_same_ransac(scan, ref, params)
    # an inlier threshold that is no multiple of the voxel or lattice size
    other = small_params(ransac_inlier_threshold=1.7e-4)
    assert_same_ransac(scan, ref, other)
    with pytest.raises(ValueError, match="another inlier threshold"):
        ransac_register(scan, ref, other, seed=0, candidates=ransac_module.correspondence_candidates(
            scan, ref, params.ransac_inlier_threshold))


def test_ransac_matches_loop_reference_on_jittered_terrain():
    ref = compute_features(terrain_cloud(), radius=6e-4)
    true = Pose.from_axis_angle(np.array([4e-4, -2e-4, 3e-4]), [0.1, 0.2, 1.0], np.deg2rad(8))
    scan = compute_features(transform_cloud(terrain_cloud(), true), radius=6e-4)
    assert_same_ransac(scan, ref, small_params())
    assert_same_ransac(scan, ref, small_params(ransac_inlier_threshold=2.3e-4, rho_rot=0.1))


def test_ransac_grid_with_a_far_keypoint():
    """A keypoint far from the rest puts the grid's box over its cube budget,
    and a scan 1e9 m away has cube indices past 2**40; either way there is no
    grid and every point is looked up in the tree."""
    params = small_params()
    threshold = params.ransac_inlier_threshold
    ref = compute_features(terrain_cloud(), radius=6e-4)
    near = compute_features(transform_cloud(
        terrain_cloud(), Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02)), radius=6e-4)
    assert inlier_grid(near.keypoints.points, threshold) is not None
    scans = [FeatureCloud(
        PointCloud(np.vstack([near.keypoints.points, far]),
                   np.vstack([near.keypoints.normals, [0.0, 0.0, 1.0]])),
        np.vstack([near.descriptors, near.descriptors[:1]]))
        for far in ([1.0, 0.0, 0.0], [1e6, -1e6, 1e6], [0.0, 0.0, 1e9])]
    shifted = near.keypoints.points + [1e9, 0.0, 0.0]  # same box, cube x-indices past 2**40
    assert 1e9 / (threshold / 2) > 2.0 ** 41
    scans.append(FeatureCloud(PointCloud(shifted, near.keypoints.normals), near.descriptors))
    for scan in scans:
        assert inlier_grid(scan.keypoints.points, threshold) is None
        assert_same_ransac(scan, ref, params, seeds=range(2))


def test_inlier_grid_is_built_on_scanner_clouds():
    """A silent fallback to the tree keeps every count, so only this shows it:
    the grid of a scanned plate exists and stays within 343 cubes per keypoint."""
    params = small_params()
    moved = Pose.from_axis_angle(np.array([6e-5, -4e-5, 0.0]), [0, 0, 1], 0.04)
    ref = prepare_cloud(lattice_plate_cloud(), params)
    for scan in (ref, prepare_cloud(lattice_plate_cloud(moved), params)):
        grid = ransac_module.correspondence_candidates(
            scan, ref, params.ransac_inlier_threshold).grid
        assert grid is not None
        assert grid.state.size <= 343 * len(scan)


# -- ICP ----------------------------------------------------------------------

def test_icp_identical_clouds():
    cloud = terrain_cloud()
    result = icp_refine(cloud, cloud, small_params())
    assert result.fitness <= 1e-18
    assert np.linalg.norm(result.pose.position) < 1e-12
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-10


def test_icp_recovers_small_translation():
    ref = terrain_cloud()
    shift = np.array([2e-4, 0.0, 0.0])
    moved = PointCloud(ref.points + shift, ref.normals)
    # moved ref must come back onto the scan: recovered translation is -shift
    result = icp_refine(ref, moved, small_params())
    np.testing.assert_allclose(result.pose.position, -shift, atol=1e-6)
    assert result.fitness < 1e-16


def test_icp_fitness_history_monotone():
    ref = terrain_cloud()
    pose = Pose.from_axis_angle(np.array([3e-4, -1e-4, 2e-4]), [0, 0, 1], np.deg2rad(4))
    moved = transform_cloud(ref, pose)
    result = icp_refine(ref, moved, small_params())
    hist = np.array(result.fitness_history)
    assert np.all(np.diff(hist) <= 1e-18)


def test_icp_divergence_error():
    a = terrain_cloud()
    b = PointCloud(a.points + np.array([1.0, 0.0, 0.0]), a.normals)
    with pytest.raises(DivergenceError):
        icp_refine(a, b, small_params())


def test_icp_total_pose_composes_initial():
    ref = terrain_cloud()
    coarse = Pose.from_axis_angle(np.array([1e-4, 2e-4, -1e-4]), [0, 1, 0], 0.02)
    result = icp_refine(ref, ref, small_params(), initial_pose=coarse)
    # scan == ref, so the total ref->scan transform must be identity
    assert np.linalg.norm(result.pose.position) < 1e-7
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-6

def test_tree_distances_are_the_explicit_expression():
    """ICP's fitness, the SOR raster window and the FPFH pair distances take
    distances from geom.column_norm instead of the tree, so the two must
    agree bit for bit; a scipy whose cKDTree sums otherwise fails here."""
    tilt = Pose.from_axis_angle(np.array([3e-5, -2e-5, 1e-5]), [0.2, -0.1, 1.0], 0.03)
    for scan in (lattice_plate_cloud(), lattice_plate_cloud(tilt)):
        tree = cKDTree(scan.points)
        rng = np.random.default_rng(7)
        queries = scan.points + rng.normal(scale=20e-6, size=scan.points.shape)
        d, i = tree.query(queries)
        dx, dy, dz = (queries - scan.points[i]).T
        np.testing.assert_array_equal(d, np.sqrt((dx * dx + dy * dy) + dz * dz))
        np.testing.assert_array_equal(d, column_norm(*(queries - scan.points[i]).T))
        d, i = tree.query(queries, k=2, distance_upper_bound=40e-6)
        found = np.isfinite(d)
        assert 0 < np.count_nonzero(found) < found.size
        for col in range(2):
            rows = found[:, col]
            np.testing.assert_array_equal(
                d[rows, col], column_norm(*(queries[rows] - scan.points[i[rows, col]]).T))


# -- ICP loop reference ----------------------------------------------------------
# The ICP loop as it was before match reuse, kept as an oracle: every iteration
# makes one k=1 KD-tree query over all moving points. The loop that reuses
# certified matches must return the same IcpResult bit for bit.

def reference_icp_refine(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                         initial_pose=None):
    if initial_pose is None:
        initial_pose = Pose.identity()
    tree = cKDTree(scan.points)
    moving = initial_pose.transform_points(ref.points)
    cutoff = params.icp_max_correspondence_dist
    R_total = np.eye(3)
    t_total = np.zeros(3)
    history = []
    iterations = 0
    for _ in range(params.icp_max_iterations):
        d, idx = tree.query(moving, distance_upper_bound=cutoff)
        matched = np.isfinite(d)
        if not np.any(matched):
            raise DivergenceError("no correspondences within the cutoff distance")
        targets = scan.points[idx[matched]]
        R, t = kabsch_transform(moving[matched], targets)
        moving = moving @ R.T + t
        R_total = R @ R_total
        t_total = R @ t_total + t
        iterations += 1
        resid = moving[matched] - targets
        history.append(float(np.mean(np.einsum("ij,ij->i", resid, resid))))
        angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
        if np.linalg.norm(t) < icp_module._POS_CONVERGE and angle < icp_module._ROT_CONVERGE:
            break
    d, idx = tree.query(moving, distance_upper_bound=cutoff)
    matched = np.isfinite(d)
    if not np.any(matched):
        raise DivergenceError("no correspondences within the cutoff distance")
    fitness = float(np.mean(d[matched] ** 2))
    incremental = Pose(t_total, quat_from_matrix(R_total))
    return icp_module.IcpResult(fitness, pose_compose(incremental, initial_pose), tuple(history),
                                iterations)


def assert_same_icp(scan: PointCloud, ref: PointCloud, params: RegistrationParams,
                    initial_pose=None):
    expected = reference_icp_refine(scan, ref, params, initial_pose)
    result = icp_refine(scan, ref, params, initial_pose=initial_pose)
    assert result.fitness == expected.fitness
    np.testing.assert_array_equal(result.pose.position, expected.pose.position)
    np.testing.assert_array_equal(result.pose.orientation, expected.pose.orientation)
    assert result.fitness_history == expected.fitness_history
    assert result.iterations == expected.iterations
    return result


def test_icp_matches_loop_reference_on_lattice_scan():
    scan = lattice_plate_cloud()
    params = small_params(icp_max_correspondence_dist=2e-4)
    for offset, angle in (([7e-6, -11e-6, 0.0], 0.0), ([3e-6, 5e-6, 2e-6], 0.004),
                          ([-20e-6, 9e-6, 0.0], -0.01)):
        start = Pose.from_axis_angle(np.array(offset), [0, 0, 1], angle)
        assert_same_icp(scan, scan, params, start)


def test_icp_matches_loop_reference_on_tied_lattice():
    """A half-pitch offset puts each moving point at equal distances from scan points."""
    pitch = 2.0 ** -15   # ~30.5 um, so the lattice and its offset are exact in binary
    g = np.arange(-24, 25) * pitch
    gx, gy = np.meshgrid(g, g, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    scan = PointCloud(grid)
    start = Pose(np.array([pitch / 2, pitch / 2, 0.0]), IDENTITY_Q)
    d, _ = cKDTree(grid).query(start.transform_points(grid), k=2)
    assert np.count_nonzero(d[:, 0] == d[:, 1]) >= len(grid) - 1   # all but a corner tie
    assert_same_icp(scan, scan, small_params(icp_max_correspondence_dist=2e-4), start)
    assert_same_icp(scan, scan, small_params(icp_max_correspondence_dist=2e-4),
                    Pose(np.array([pitch / 2, 0.0, 0.0]), IDENTITY_Q))
    # the scan's own lattice, offset by half its pitch along the sweep
    plate = lattice_plate_cloud()
    assert_same_icp(plate, plate, small_params(icp_max_correspondence_dist=2e-4),
                    Pose(np.array([0.0, 12.5e-6, 0.0]), IDENTITY_Q))


def test_icp_matches_loop_reference_on_jittered_terrain():
    ref = terrain_cloud()
    pose = Pose.from_axis_angle(np.array([3e-4, -1e-4, 2e-4]), [0.2, 0.1, 1.0], np.deg2rad(4))
    assert_same_icp(ref, transform_cloud(ref, pose), small_params())
    assert_same_icp(ref, ref, small_params(), pose)


def test_icp_matches_loop_reference_beyond_the_cutoff():
    """Part of the reference lies farther than the cutoff from every scan point."""
    ref = terrain_cloud()
    scan = ref.select(ref.points[:, 0] < 3e-3)
    params = small_params(icp_max_correspondence_dist=4e-4)
    start = Pose.from_axis_angle(np.array([1e-4, 5e-5, 0.0]), [0, 0, 1], 0.01)
    assert np.any(np.isinf(cKDTree(scan.points).query(
        start.transform_points(ref.points), distance_upper_bound=4e-4)[0]))
    assert_same_icp(scan, ref, params, start)


def test_icp_matches_loop_reference_on_a_one_point_scan():
    ref = terrain_cloud()
    one = PointCloud(ref.points[480:481])
    assert_same_icp(one, ref, small_params(icp_max_correspondence_dist=3e-4))
    assert_same_icp(one, one, small_params(), Pose(np.array([1e-5, 0.0, 0.0]), IDENTITY_Q))


def test_icp_matches_loop_reference_over_a_long_drift(monkeypatch):
    """A jittered copy of a plate scan, started 300 um off, slides for all 60
    iterations, and most matches are reused rather than queried again."""
    queried = []

    def counting_query(tree, points, cutoff):
        queried.append(len(points))
        return query(tree, points, cutoff)

    query = icp_module._query
    monkeypatch.setattr(icp_module, "_query", counting_query)
    plate = lattice_plate_cloud()
    jittered = plate.points.copy()
    jittered[:, :2] += np.random.default_rng(0).uniform(-12.5e-6, 12.5e-6, size=(len(plate), 2))
    start = Pose.from_axis_angle(np.array([3e-4, -1.5e-4, 0.0]), [0, 0, 1], 0.02)
    result = assert_same_icp(plate, PointCloud(jittered), small_params(), start)
    assert result.iterations == 60
    assert sum(queried) < 0.75 * 60 * len(plate)


def test_icp_divergence_matches_loop_reference():
    a = terrain_cloud()
    b = PointCloud(a.points + np.array([1.0, 0.0, 0.0]), a.normals)
    for fn in (reference_icp_refine, icp_refine):
        with pytest.raises(DivergenceError):
            fn(a, b, small_params())


# -- estimate_pose (Algorithm loop) --------------------------------------------

def test_estimate_pose_trivial_self_registration():
    cloud = terrain_cloud()
    params = small_params(rho_rot=np.pi / 4)
    result = estimate_pose(cloud, cloud, params, seed=0)
    assert result.outer_loops_used == 1
    assert result.fitness <= 1e-12
    assert np.linalg.norm(result.pose.position) < 1e-6


def test_estimate_pose_recovers_perturbation_with_noise():
    ref = terrain_cloud()
    rng = np.random.default_rng(3)
    true = Pose.from_axis_angle(np.array([3e-4, 1e-4, -2e-4]), [0, 0, 1], np.deg2rad(5))
    noisy = transform_cloud(ref, true)
    noisy = PointCloud(noisy.points + rng.normal(scale=1.5e-6, size=noisy.points.shape),
                       noisy.normals)
    params = small_params(rho_icp=2.5e-11, q0=true.orientation)
    result = estimate_pose(noisy, ref, params, seed=4)
    assert np.linalg.norm(result.pose.position - true.position) < 30e-6
    assert quat_distance(result.pose.orientation, true.orientation) < np.deg2rad(0.5)


def test_estimate_pose_gate_negative_control():
    ref = terrain_cloud()
    q0 = Pose.from_axis_angle(np.zeros(3), [1, 0, 0], np.pi / 2).orientation
    params = small_params(q0=q0, rho_rot=np.deg2rad(10), max_outer_loops=4)
    with pytest.raises(RegistrationFailedError) as err:
        estimate_pose(ref, ref, params, seed=5)
    assert "4 outer loops" in str(err.value)


def test_estimate_pose_gate_soundness_and_monotone_history():
    ref = terrain_cloud()
    rng = np.random.default_rng(6)
    params = small_params()
    for trial in range(5):
        axis = rng.normal(size=3)
        true = Pose.from_axis_angle(rng.normal(scale=3e-4, size=3), axis, rng.uniform(0, 0.2))
        scan = transform_cloud(ref, true)
        p = RegistrationParams(**{**params.__dict__, "q0": true.orientation})
        result = estimate_pose(scan, ref, p, seed=100 + trial)
        assert quat_distance(result.pose.orientation, p.q0) < p.rho_rot
        hist = [h for h in result.fitness_history if h < 1e6]
        assert np.all(np.diff(hist) <= 0.0 + 1e-18)


def test_estimate_pose_deterministic():
    ref = terrain_cloud()
    scan = transform_cloud(ref, Pose.from_axis_angle(np.array([2e-4, 0, 0]), [0, 0, 1], 0.05))
    params = small_params()
    a = estimate_pose(scan, ref, params, seed=9)
    b = estimate_pose(scan, ref, params, seed=9)
    np.testing.assert_array_equal(a.pose.position, b.pose.position)
    np.testing.assert_array_equal(a.pose.orientation, b.pose.orientation)
    assert a.fitness == b.fitness and a.outer_loops_used == b.outer_loops_used


# -- estimate_pose on scanner output ---------------------------------------------
# The benchmark's plate, scanner and calibration error, in the plate's frame.

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402


def bench_scan(workload: str, pose: Pose, cal: CalibrationError) -> PointCloud:
    w = workloads.WORKLOADS[workload]
    scene = Scene([ScenePart("plate", workloads.plate(workloads.HOLE_CENTER), pose)])
    return sweep_scan(scene, w.sweep(), w.scanner, cal, seed=5)


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
    and 2 mrad in its first outer loop. The outline holds whole raster
    cells, so an edge along the raster keeps a sub-pitch bias: hence 15 um,
    not 10, and at 0 yaw, where every side runs along the raster, the yaw
    is fixed only to about the 25 um profile step over the 6 mm side,
    4.2 mrad, not 2 (ICP stops anywhere in that range)."""
    true = Pose(np.array([*offset, 0.0]), quat_from_axis_angle([0, 0, 1], np.deg2rad(yaw)))
    scan = bench_scan("dense_corrected", true, cal)
    result = estimate_pose(scan, dense_reference.keypoints, RegistrationParams(), seed=3,
                           ref_prepared=dense_reference)
    truth = pose_compose(cal.mount_offset.inverse(), true)
    assert result.outer_loops_used == 1
    assert result.pose.translation_to(truth) <= 15e-6
    assert result.pose.rotation_to(truth) <= (2e-3 if yaw else 5e-3)


def test_estimate_pose_reads_no_scan_normals():
    """A line scanner measures no normals: stripping them from both clouds
    changes no bit of the result."""
    ref = bench_scan("sparse_fresh_ref", Pose.identity(), CalibrationError.none())
    scan = bench_scan("sparse_fresh_ref", Pose.from_axis_angle(
        np.array([1e-4, -1.5e-4, 0.0]), [0, 0, 1], 0.03), workloads.CAL)
    strip = [PointCloud(c.points, None, c.raster, c.raster_shape) for c in (scan, ref)]
    assert estimate_pose(*strip, RegistrationParams(), seed=4).to_json_dict() == \
        estimate_pose(scan, ref, RegistrationParams(), seed=4).to_json_dict()


def test_registration_result_json_round_trip():
    import json
    ref = terrain_cloud()
    result = estimate_pose(ref, ref, small_params(), seed=0)
    payload = json.dumps(result.to_json_dict())
    back = json.loads(payload)
    assert back["outer_loops_used"] == 1
    assert len(back["orientation_wxyz"]) == 4
