import numpy as np
import pytest

from insertsim.geom import PointCloud
from insertsim.registration import (
    PreprocessingDegenerateError,
    RegistrationParams,
    preprocess,
    statistical_outlier_removal,
    voxel_downsample,
)


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
