import importlib

import numpy as np
import pytest
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, Pose, raster_box, transform_cloud
from insertsim.registration import (
    PreprocessingDegenerateError,
    RegistrationParams,
    prepare_cloud,
    statistical_outlier_removal,
    voxel_downsample,
)
from insertsim.registration.preprocess import preprocess
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep, sweep_scan


def test_single_voxel_collapses_to_centroid():
    pts = np.array([[x, y, z] for x in (0, 1e-4) for y in (0, 1e-4) for z in (0, 1e-4)])
    out = voxel_downsample(PointCloud(pts), voxel_size=1.0)
    assert len(out) == 1
    np.testing.assert_allclose(out.points[0], pts.mean(axis=0), atol=1e-18)


def test_fine_voxel_keeps_all_points():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1e-2, size=(500, 3))
    # enforce min pairwise distance 2e-4 by snapping to a coarse grid
    pts = np.unique(np.round(pts / 4e-4) * 4e-4, axis=0)
    out = voxel_downsample(PointCloud(pts), voxel_size=1e-4)
    assert len(out) == len(pts)


def test_outlier_removal_matches_brute_force():
    rng = np.random.default_rng(1)
    patch = rng.uniform(0, 5e-3, size=(10000, 2))
    pts = np.column_stack([patch, np.zeros(len(patch))])
    far = np.array([[5e-2, 5e-2, 0.0]])  # ~10x the patch diameter away
    cloud = PointCloud(np.vstack([pts, far]))

    k = 12
    # brute-force oracle for the neighbor statistics, chunked for memory
    mean_d = np.zeros(len(cloud))
    for lo in range(0, len(cloud), 1000):
        hi = min(lo + 1000, len(cloud))
        d = np.linalg.norm(cloud.points[lo:hi, None, :] - cloud.points[None, :, :], axis=2)
        part = np.partition(d, k, axis=1)[:, 1:k + 1]
        mean_d[lo:hi] = np.sort(d, axis=1)[:, 1:k + 1].mean(axis=1)
        del d, part
    cutoff = mean_d.mean() + 1.0 * mean_d.std()
    expected_keep = mean_d <= cutoff
    assert not expected_keep[-1]  # oracle agrees the far point is an outlier

    out = statistical_outlier_removal(cloud, mean_k=k, std_ratio=1.0)
    assert len(out) == int(expected_keep.sum())
    # the far point is gone
    assert np.max(np.linalg.norm(out.points, axis=1)) < 1e-2


def test_preprocess_idempotent_on_voxel_centroids():
    rng = np.random.default_rng(2)
    # closed surface sampling (sphere) so the outlier filter has no lonely edge
    u = rng.normal(size=(4000, 3))
    pts = 5e-3 * u / np.linalg.norm(u, axis=1, keepdims=True)
    params = RegistrationParams(voxel_size=5e-4, outlier_mean_k=10, outlier_std_ratio=3.0)
    once = preprocess(PointCloud(pts), params)
    twice = preprocess(once, params)
    # every surviving point must coincide with a point of the first pass
    for p in twice.points:
        assert np.min(np.linalg.norm(once.points - p, axis=1)) <= 1e-12


def test_preprocess_degenerate_error():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    params = RegistrationParams(outlier_mean_k=2, outlier_std_ratio=-10.0)
    with pytest.raises(PreprocessingDegenerateError):
        preprocess(cloud, params)


def test_preprocess_empty_input_rejected():
    with pytest.raises(ValueError):
        preprocess(PointCloud(np.zeros((0, 3))), RegistrationParams())


def test_voxel_downsample_averages_normals():
    pts = np.array([[0.0, 0.0, 0.0], [1e-5, 0.0, 0.0]])
    nrm = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    out = voxel_downsample(PointCloud(pts, nrm), voxel_size=1.0)
    expected = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(out.normals[0], expected, atol=1e-12)


def test_voxel_grid_too_large_to_number_raises():
    # 1e7 cells per axis: 1e21 cells overflow int64 cell numbers
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        voxel_downsample(cloud, voxel_size=1e-7)


# -- raster k-NN for outlier removal --------------------------------------------

preprocess_module = importlib.import_module("insertsim.registration.preprocess")

PLATE = HolePlate((3e-3, 3e-3), 1e-3, (150e-6, 175e-6), hole_center=(8e-4, 3e-4))
SWEEP_START = Pose.from_axis_angle([0.0, -3.5e-3, 0.03], [1, 0, 0], np.pi)
SCANNERS = {  # name -> (config, profile step, profiles), the benchmark's two scanners
    "dense": (ScannerConfig(), 25e-6, 280),
    "sparse": (ScannerConfig(points_per_profile=512, lateral_resolution=48e-6), 100e-6, 70),
}
PLATE_POSES = {
    "level": Pose.identity(),
    "yaw+3": Pose.from_axis_angle([1.5e-4, -2e-4, 0.0], [0, 0, 1], np.deg2rad(3)),
    "yaw-3": Pose.from_axis_angle([-2e-4, 1e-4, 0.0], [0, 0, 1], np.deg2rad(-3)),
    "tilted": Pose.from_axis_angle([1e-4, 5e-5, 2e-4], [1.0, 0.6, 0.2], 0.15),
}
CAL = CalibrationError(Pose.from_axis_angle([60e-6, -80e-6, 0.0], [0.3, -0.5, 0.8], 2e-3))


def plate_scan(scanner: str, pose: str, cal: CalibrationError) -> PointCloud:
    cfg, step, profiles = SCANNERS[scanner]
    scene = Scene([ScenePart("plate", PLATE, PLATE_POSES[pose])])
    return sweep_scan(scene, linear_sweep(SWEEP_START, [0, 1, 0], step, profiles), cfg, cal, seed=611)


def tree_dists(points: np.ndarray, m: int) -> np.ndarray:
    return cKDTree(points).query(points, k=m)[0]


def assert_sor_matches_tree(cloud: PointCloud, mean_k: int = 12, std_ratio: float = 2.0):
    """Outlier removal keeps exactly the points that a plain KD-tree query on
    every point keeps, and its neighbour distances are the tree's."""
    k = min(mean_k, len(cloud) - 1)
    dists = tree_dists(cloud.points, k + 1)
    np.testing.assert_array_equal(preprocess_module._nearest_dists(cloud, k + 1), dists)
    mean_d = dists[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    out = statistical_outlier_removal(cloud, mean_k, std_ratio)
    np.testing.assert_array_equal(out.points, cloud.points[keep])
    assert out.has_normals == cloud.has_normals
    if cloud.has_normals:
        np.testing.assert_array_equal(out.normals, cloud.normals[keep])
    np.testing.assert_array_equal(out.raster, cloud.raster[keep])


def count_tree_queries(monkeypatch) -> list:
    """Points asked about by each query of a KD-tree that outlier removal builds."""
    queried = []

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(preprocess_module, "cKDTree", CountingTree)
    return queried


@pytest.mark.parametrize("scanner", sorted(SCANNERS))
@pytest.mark.parametrize("pose", sorted(PLATE_POSES))
@pytest.mark.parametrize("cal_error", [False, True], ids=["no_cal_error", "cal_error"])
def test_raster_sor_matches_tree_on_plate_scans(scanner, pose, cal_error, monkeypatch):
    cloud = plate_scan(scanner, pose, CAL if cal_error else CalibrationError.none())
    assert raster_box(cloud.raster) is not None
    queried = count_tree_queries(monkeypatch)
    assert_sor_matches_tree(cloud)
    # the window settles at least 95% of the points, on the tilted part too
    assert len(queried) == 2 and queried[0] < len(cloud) / 20


def small_scan() -> PointCloud:
    return plate_scan("sparse", "yaw+3", CAL)


def test_raster_sor_with_shuffled_labels():
    cloud = small_scan()
    order = np.random.default_rng(5).permutation(len(cloud))
    assert_sor_matches_tree(PointCloud(cloud.points, cloud.normals, cloud.raster[order]))


def test_raster_sor_with_every_point_in_one_profile():
    cloud = small_scan()
    raster = np.column_stack([np.zeros(len(cloud), dtype=np.int64), np.arange(len(cloud))])
    assert_sor_matches_tree(PointCloud(cloud.points, cloud.normals, raster))


def test_raster_sor_with_gaps_and_missing_rows():
    cloud = small_scan()
    rng = np.random.default_rng(6)
    keep = (cloud.raster[:, 0] % 3 != 1) & (rng.random(len(cloud)) < 0.8)
    assert_sor_matches_tree(cloud.select(keep))


def test_raster_sor_with_exact_distance_ties():
    # a lattice of exactly representable coordinates, every point twice:
    # zero distances and equal lattice distances tie exactly
    i, j = np.meshgrid(np.arange(40), np.arange(30), indexing="ij")
    flat = np.column_stack([i.ravel() * 2.0 ** -14, j.ravel() * 2.0 ** -13, np.zeros(i.size)])
    points = np.vstack([flat, flat])
    raster = np.vstack([np.column_stack([i.ravel(), 2 * j.ravel()]),
                        np.column_stack([i.ravel(), 2 * j.ravel() + 1])])
    cloud = PointCloud(points, raster=raster)
    assert_sor_matches_tree(cloud)
    assert_sor_matches_tree(cloud, mean_k=3)


@pytest.mark.parametrize("n", [2, 3, 12, 13, 14])
def test_raster_sor_with_few_points(n):
    cloud = small_scan().select(np.arange(200, 200 + n))
    assert_sor_matches_tree(cloud)


def test_raster_box_too_large_takes_the_tree_path(monkeypatch):
    cloud = small_scan()
    spread = PointCloud(cloud.points, cloud.normals, cloud.raster * 3)  # 9x the cells
    assert raster_box(spread.raster) is None
    queried = count_tree_queries(monkeypatch)
    assert_sor_matches_tree(spread)
    assert queried == [len(spread)] * 2  # _nearest_dists, then the outlier removal


def test_raster_validation():
    pts = np.zeros((3, 3))
    pts[:, 0] = [0.0, 1.0, 2.0]
    PointCloud(pts, raster=np.array([[0, 0], [0, 1], [5, 7]], dtype=np.int32))
    with pytest.raises(ValueError, match="unique"):
        PointCloud(pts, raster=np.array([[0, 0], [0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="unique"):  # a box too sparse to grid
        PointCloud(pts, raster=np.array([[0, 0], [10 ** 12, 1], [10 ** 12, 1]]))
    for bad in (np.zeros((3, 3), dtype=np.int64), np.zeros((2, 2), dtype=np.int64),
                np.zeros((3, 2)), np.zeros((3, 2), dtype=bool)):
        with pytest.raises(ValueError, match="raster"):
            PointCloud(pts, raster=bad)
    cloud = PointCloud(pts, raster=np.array([[0, 0], [0, 1], [1, 0]]))
    assert cloud.raster.dtype == np.int64 and not cloud.raster.flags.writeable
    moved = transform_cloud(cloud, Pose.from_axis_angle([1.0, 2.0, 3.0], [0, 0, 1], 0.3))
    np.testing.assert_array_equal(moved.raster, cloud.raster)
    np.testing.assert_array_equal(cloud.select([2, 0]).raster, [[1, 0], [0, 0]])
    assert PointCloud(pts).select([0]).raster is None


def test_prepare_cloud_asks_the_tree_only_for_uncertified_points(monkeypatch):
    """The raster reaches outlier removal through prepare_cloud, and the
    window certificate settles all but a few points of a dense scan."""
    cloud = plate_scan("dense", "yaw+3", CAL)
    queried = count_tree_queries(monkeypatch)
    prepare_cloud(cloud, RegistrationParams())
    assert len(cloud) > 100_000
    assert len(queried) == 1 and 0 < queried[0] < 200
