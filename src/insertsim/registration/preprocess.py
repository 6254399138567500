"""Scan cloud conditioning: statistical outlier removal and voxel downsampling."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud
from insertsim.registration.params import PreprocessingDegenerateError, RegistrationParams


def statistical_outlier_removal(cloud: PointCloud, mean_k: int, std_ratio: float) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds global mean + ratio * std."""
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot filter an empty cloud")
    k = min(mean_k, n - 1)
    if k < 1:
        return cloud
    tree = cKDTree(cloud.points)
    dists, _ = tree.query(cloud.points, k=k + 1)  # column 0 is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    cutoff = mean_d.mean() + std_ratio * mean_d.std()
    keep = mean_d <= cutoff
    return cloud.select(keep)


def _voxel_sums(inverse: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Per-voxel column sums, added in point order."""
    return np.column_stack([np.bincount(inverse, weights=values[:, c], minlength=m)
                            for c in range(values.shape[1])])


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Centroid per occupied voxel; output sorted by voxel key for determinism.

    A voxel holding a single point reproduces that point bit-exactly, so an
    already-voxelized cloud passes through unchanged.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot downsample an empty cloud")
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    # row-major cell numbers sort like the (x, y, z) key rows; an oversized
    # grid raises here instead of wrapping
    keys -= keys.min(axis=0)
    cells = np.ravel_multi_index(keys.T, keys.max(axis=0) + 1)
    _, first, inverse, counts = np.unique(cells, return_index=True, return_inverse=True,
                                          return_counts=True)
    m = len(counts)
    centroids = _voxel_sums(inverse, cloud.points, m) / counts[:, None]
    single = counts == 1
    centroids[single] = cloud.points[first[single]]  # exact pass-through, no round-off
    normals = None
    if cloud.has_normals:
        nsum = _voxel_sums(inverse, cloud.normals, m)
        lens = np.linalg.norm(nsum, axis=1, keepdims=True)
        ok = lens[:, 0] > 1e-9
        normals = np.where(ok[:, None], nsum / np.where(ok[:, None], lens, 1.0), 0.0)
        # opposing normals cancelled out; fall back to the first point's normal
        normals[~ok] = cloud.normals[first[~ok]]
    return PointCloud(centroids, normals)


def preprocess(cloud: PointCloud, params: RegistrationParams) -> PointCloud:
    """Outlier removal followed by voxel-grid downsampling."""
    if len(cloud) == 0:
        raise ValueError("cannot preprocess an empty cloud")
    filtered = statistical_outlier_removal(cloud, params.outlier_mean_k, params.outlier_std_ratio)
    if len(filtered) == 0:
        raise PreprocessingDegenerateError("outlier removal emptied the cloud")
    return voxel_downsample(filtered, params.voxel_size)
