import numpy as np
import pytest
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, pose_compose, quat_distance, transform_cloud
from insertsim.registration import (
    DegenerateFeatureError,
    DivergenceError,
    InsufficientCorrespondencesError,
    RegistrationFailedError,
    RegistrationParams,
    compute_features,
    estimate_normals,
    estimate_pose,
    icp_refine,
    ransac_register,
    voxel_downsample,
)
from insertsim.registration import features as features_module
from insertsim.registration import icp as icp_module
from insertsim.registration import pipeline as pipeline_module
from insertsim.registration import preprocess as preprocess_module
from insertsim.registration import ransac as ransac_module
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


def lattice_plate_cloud() -> PointCloud:
    """Noise-free scan of a hole plate: a 25 um lattice full of exact distance ties."""
    plate = HolePlate((1e-3, 1e-3), 1e-3, (2e-4, 2.5e-4), hole_center=(2e-4, 1e-4))
    scene = Scene([ScenePart("plate", plate, Pose.identity())])
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

def reference_compute_features(cloud: PointCloud, radius: float, _retry: bool = True):
    if not cloud.has_normals:
        cloud = estimate_normals(cloud)
    n = len(cloud)
    neighbor_lists = cKDTree(cloud.points).query_ball_point(cloud.points, r=radius)
    degenerate = [i for i, nbrs in enumerate(neighbor_lists) if len(nbrs) - 1 < 5]
    if degenerate:
        if not _retry or len(degenerate) > max(1, n // 10):
            raise DegenerateFeatureError("too few neighbors")
        keep = np.ones(n, dtype=bool)
        keep[degenerate] = False
        return reference_compute_features(cloud.select(keep), radius, _retry=False)
    src_idx, tgt_idx = [], []
    for i, nbrs in enumerate(neighbor_lists):
        nbrs = [j for j in sorted(nbrs) if j != i]
        src_idx.extend([i] * len(nbrs))
        tgt_idx.extend(nbrs)
    src = np.array(src_idx, dtype=np.int64)
    tgt = np.array(tgt_idx, dtype=np.int64)
    alpha, phi, theta, dist, ok = features_module._pair_features(
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
    """KD-tree builds per estimate_pose do not grow with the outer loop count."""
    builds = []

    def counting_tree(*args, **kwargs):
        builds.append(1)
        return cKDTree(*args, **kwargs)

    for module in (preprocess_module, features_module, ransac_module, icp_module,
                   pipeline_module):
        monkeypatch.setattr(module, "cKDTree", counting_tree, raising=False)
    ref = terrain_cloud()
    rng = np.random.default_rng(11)
    scan = transform_cloud(ref, Pose.from_axis_angle(np.array([1e-4, 0, 0]), [0, 0, 1], 0.02))
    scan = PointCloud(scan.points + rng.normal(scale=1.5e-6, size=scan.points.shape), scan.normals)
    counts = []
    for loops in (1, 5):
        builds.clear()
        # rho_icp below any reachable fitness, so every outer loop runs
        params = small_params(rho_icp=1e-30, max_outer_loops=loops)
        with pytest.raises(RegistrationFailedError) as err:
            estimate_pose(scan, ref, params, seed=3)
        assert err.value.best.outer_loops_used == loops
        counts.append(len(builds))
    assert counts[0] == counts[1]


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
    from insertsim.registration import FeatureCloud
    fc = FeatureCloud(tiny, np.zeros((2, 33)))
    with pytest.raises(InsufficientCorrespondencesError):
        ransac_register(fc, fc, small_params(), seed=0)


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
    aligned = transform_cloud(ref, coarse)
    result = icp_refine(ref, aligned, small_params(), initial_pose=coarse)
    # scan == ref, so the total ref->scan transform must be identity
    assert np.linalg.norm(result.pose.position) < 1e-7
    assert quat_distance(result.pose.orientation, IDENTITY_Q) < 1e-6


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


def test_registration_result_json_round_trip():
    import json
    ref = terrain_cloud()
    result = estimate_pose(ref, ref, small_params(), seed=0)
    payload = json.dumps(result.to_json_dict())
    back = json.loads(payload)
    assert back["outer_loops_used"] == 1
    assert len(back["orientation_wxyz"]) == 4
