import numpy as np
import pytest

from insertsim.geom import Pose, transform_cloud
from insertsim.scansim import (
    Box,
    CalibrationError,
    Cylinder,
    HolePlate,
    Scene,
    ScenePart,
    ScannerConfig,
    TriangleMesh,
    linear_sweep,
    sweep_scan,
    sweep_scan_detailed,
)

DOWN = Pose.from_axis_angle(np.array([0.0, 0.0, 0.02]), [1, 0, 0], np.pi)  # sensor +z -> world -z


def plane_scene(top_z: float = 0.0) -> Scene:
    plate = Box(half_extents=(0.5, 0.5, 0.001))
    pose = Pose(np.array([0.0, 0.0, top_z - 0.001]), np.array([1.0, 0.0, 0.0, 0.0]))
    return Scene([ScenePart("plate", plate, pose)])


def small_cfg(**kw) -> ScannerConfig:
    defaults = dict(points_per_profile=64, lateral_span=64 * 12e-6)
    defaults.update(kw)
    return ScannerConfig(**defaults)


def test_lateral_positions_default_grid():
    cfg = ScannerConfig()
    x = cfg.lateral_positions()
    assert len(x) == 2048
    assert np.all(np.diff(x) > 0)
    np.testing.assert_allclose(np.diff(x), 12e-6, atol=1e-16)


def test_flat_plate_zero_noise_constant_depth():
    cfg = small_cfg(depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], cfg.sweep_step, 5)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=1)
    assert len(cloud) == 5 * 64
    assert np.ptp(cloud.points[:, 2]) < 1e-12


def test_full_hit_sweep_point_count_is_profiles_times_2048():
    cfg = ScannerConfig(depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], cfg.sweep_step, 10)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=2)
    assert len(cloud) == 10 * 2048


def test_depth_noise_std_matches_configuration():
    cfg = ScannerConfig(depth_noise_std=1.5e-6)
    traj = linear_sweep(DOWN, [0, 1, 0], cfg.sweep_step, 10)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=3)
    assert len(cloud) == 20480
    residuals = cloud.points[:, 2]  # true plane is z = 0
    assert 1.3e-6 <= residuals.std() <= 1.7e-6


def test_sweep_deterministic_and_worker_invariant():
    cfg = small_cfg()
    traj = linear_sweep(DOWN, [0, 1, 0], cfg.sweep_step, 8)
    a = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=7)
    b = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    d = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=8)
    assert not np.array_equal(a.points, d.points)


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        sweep_scan(plane_scene(), [], small_cfg(), CalibrationError.none(), seed=0)


def test_all_misses_give_empty_cloud():
    scene = Scene([ScenePart("far", Box((0.01, 0.01, 0.01)), Pose(np.array([5.0, 5.0, 5.0]), np.array([1.0, 0, 0, 0])))])
    cloud = sweep_scan(scene, [DOWN], small_cfg(depth_noise_std=0.0), CalibrationError.none(), seed=0)
    assert len(cloud) == 0


def test_cylinder_scan_satisfies_implicit_equation():
    # cylinder lying along world y; rays hit the upper lateral surface
    radius, length = 0.002, 0.05
    pose = Pose.from_axis_angle(np.array([0.0, -0.025, -0.004]), [1, 0, 0], -np.pi / 2)
    scene = Scene([ScenePart("cyl", Cylinder(radius, length), pose)])
    cfg = small_cfg(depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], 0.001, 9)
    cloud = sweep_scan(scene, traj, cfg, CalibrationError.none(), seed=0)
    assert len(cloud) > 100
    local = (cloud.points - pose.position) @ pose.rotation_matrix()
    radial = np.sqrt(local[:, 0] ** 2 + local[:, 1] ** 2)
    on_wall = np.abs(local[:, 2]) > 1e-9  # exclude cap hits at the ends
    on_wall &= np.abs(local[:, 2] - length) > 1e-9
    assert np.max(np.abs(radial[on_wall] - radius)) < 1e-12


def test_calibration_offset_relates_clouds_by_the_offset():
    cfg = small_cfg(depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], cfg.sweep_step, 6)
    offset = Pose.from_axis_angle(np.array([5e-4, -2e-4, 3e-4]), [0.2, 1.0, -0.3], np.deg2rad(0.5))
    scene = plane_scene()
    clean = sweep_scan(scene, traj, cfg, CalibrationError.none(), seed=4)
    skewed = sweep_scan(scene, traj, cfg, CalibrationError(offset), seed=4)
    # the skewed cloud, moved by the offset, must land back on the true surface
    restored = transform_cloud(skewed, offset)
    assert np.max(np.abs(restored.points[:, 2])) < 1e-9
    assert np.max(np.abs(clean.points[:, 2])) < 1e-9
    # and a pure-translation offset shifts the reported plane by exactly -dz
    t_only = Pose(np.array([0.0, 0.0, 1e-3]), np.array([1.0, 0, 0, 0]))
    shifted = sweep_scan(scene, traj, cfg, CalibrationError(t_only), seed=4)
    np.testing.assert_allclose(shifted.points[:, 2], -1e-3, atol=1e-12)


def test_part_labels_follow_scene_parts():
    plate = ScenePart("plate", Box((0.05, 0.05, 0.001)), Pose(np.array([0.0, 0.0, -0.001]), np.array([1.0, 0, 0, 0])))
    bump = ScenePart("bump", Box((0.0005, 0.0005, 0.002)), Pose(np.array([0.0, 0.0, 0.001]), np.array([1.0, 0, 0, 0])))
    scene = Scene([plate, bump])
    cfg = small_cfg(depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], 2e-4, 5)
    scan = sweep_scan_detailed(scene, traj, cfg, CalibrationError.none(), seed=0)
    bump_cloud = scan.points_of(scene, "bump")
    plate_cloud = scan.points_of(scene, "plate")
    assert len(bump_cloud) > 0 and len(plate_cloud) > 0
    assert np.all(bump_cloud.points[:, 2] > 0.002 - 1e-9)
    assert np.all(plate_cloud.points[:, 2] < 1e-9)


def test_scene_rejects_duplicate_ids():
    part = ScenePart("p", Box((1, 1, 1)), Pose.identity())
    with pytest.raises(ValueError):
        Scene([part, ScenePart("p", Box((1, 1, 1)), Pose.identity())])


def test_hole_plate_rays_through_hole_miss_top_face():
    plate = HolePlate((0.005, 0.005), 0.001, (150e-6, 175e-6))
    scene = Scene([ScenePart("plate", plate, Pose(np.array([0.0, 0.0, -0.0005]), np.array([1.0, 0, 0, 0])))])
    cfg = small_cfg(points_per_profile=256, lateral_span=256 * 12e-6, depth_noise_std=0.0)
    traj = linear_sweep(DOWN, [0, 1, 0], 25e-6, 16)  # 400 um band across the hole
    start = Pose(DOWN.position - np.array([0.0, 2e-4, 0.0]), DOWN.orientation)
    traj = linear_sweep(start, [0, 1, 0], 25e-6, 16)
    cloud = sweep_scan(scene, traj, cfg, CalibrationError.none(), seed=0)
    # vertical rays through the elliptical opening pass clean through the plate
    assert len(cloud) < 256 * 16
    assert np.all(cloud.points[:, 2] <= 1e-12)


def test_mesh_box_and_analytic_box_agree():
    mesh = TriangleMesh.box((0.01, 0.02, 0.005))
    box = Box((0.01, 0.02, 0.005))
    rng = np.random.default_rng(5)
    origins = rng.uniform(-0.005, 0.005, size=(200, 3))
    origins[:, 2] = 0.05
    dirs = np.tile([0.0, 0.0, -1.0], (200, 1))
    hm = mesh.ray_intersect(origins, dirs)
    hb = box.ray_intersect(origins, dirs)
    np.testing.assert_array_equal(hm.hit, hb.hit)
    np.testing.assert_allclose(hm.t[hm.hit], hb.t[hb.hit], atol=1e-12)
