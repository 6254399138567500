"""Scan cloud conditioning: the outline of a scanner raster and its pitch.

A scanned part with a flat face gives the same FPFH descriptor at every
point of that face, so registration on the whole cloud has nothing to
match; the part's outline carries the in-plane shape. When a cloud carries
its scanner raster and the raster's shape, `outline` keeps the hit cells
with a miss among their 8 neighbours (cells on the raster's border are
never outline: what lies past them was not scanned) and gives each an
in-plane normal from the hit mask alone: the Sobel gradient of the
occupancy image, mapped into 3-D through the raster's axes. `raster_pitch`
measures the point spacing along and across profiles, from which
`pipeline` derives every registration threshold.
Both read one cell table over the hits' bounding box padded by one cell and
clipped to the raster (`raster_cells`): past its edge lie misses or no raster.
A line scanner measures no normals; `outline` returns the outline's.
The scanner adds no outliers, and outlier removal would drop only outline
points, so registration runs neither it nor a voxel grid.

`statistical_outlier_removal` and `voxel_downsample` have no caller in the
program; they stay while the benchmark's tracer (`harness.PROBES`) names them.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_erosion
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, column_norm
from insertsim.registration.params import DegenerateFeatureError


def statistical_outlier_removal(cloud: PointCloud, mean_k: int, std_ratio: float) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds global mean + ratio * std
    (Rusu et al., RAS 2008). Kept only for the benchmark's tracer."""
    if not isinstance(mean_k, (int, np.integer)) or isinstance(mean_k, bool) or mean_k < 1:
        raise ValueError("mean_k must be an integer >= 1")
    if np.isnan(std_ratio):
        raise ValueError("std_ratio must not be NaN")
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot filter an empty cloud")
    k = min(mean_k, n - 1)
    if k < 1:
        return cloud
    dists = cKDTree(cloud.points).query(cloud.points, k=k + 1)[0]  # column 0 is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    cutoff = mean_d.mean() + std_ratio * mean_d.std()
    keep = mean_d <= cutoff
    return cloud.select(keep)


def raster_cells(cloud: PointCloud) -> tuple:
    """(table, profile, column): the point in each cell of the hits' window
    (module docstring), -1 for a miss, and each point's cell in the window."""
    raster = cloud.raster.T  # one row per axis: reducing (N, 2) along axis 0 is slow
    lo = [max(r.min() - 1, 0) for r in raster]
    hi = [min(r.max() + 2, n) for r, n in zip(raster, cloud.raster_shape)]
    profile, column = raster[0] - lo[0], raster[1] - lo[1]
    table = np.full((hi[0] - lo[0], hi[1] - lo[1]), -1, dtype=np.intp)
    table[profile, column] = np.arange(len(cloud))
    return table, profile, column


def raster_pitch(cloud: PointCloud, cells: tuple) -> tuple:
    """(ds, dl): the median distance between the points of neighbouring hit
    cells along a profile (adjacent columns) and across profiles (adjacent
    profiles) of a cloud with a raster shape, from its `raster_cells`."""
    table = cells[0]
    coords = np.array(cloud.points.T)  # x, y and z as contiguous rows
    pitch = []
    for a, b, across in ((table[:, :-1], table[:, 1:], "columns"),
                         (table[:-1], table[1:], "profiles")):
        both = (a >= 0) & (b >= 0)
        if not both.any():
            raise DegenerateFeatureError(f"no two neighbouring raster cells across {across} "
                                         f"both hit, so the scan's pitch is unknown")
        a, b = a[both], b[both]
        pitch.append(float(np.median(column_norm(*(c[b] - c[a] for c in coords)))))
    return tuple(pitch)


def outline(cloud: PointCloud, cells: tuple) -> tuple:
    """(edge, normals): the outline of a cloud with a raster shape and its
    (N, 3) unit in-plane normals pointing out of the hit region (module docstring).
    An outline cell whose Sobel gradient vanishes has no normal and is dropped."""
    table, profile, column = cells
    hit = table >= 0
    edge = hit & ~binary_erosion(hit, structure=np.ones((3, 3), dtype=bool), border_value=1)
    edge[[0, -1], :] = False
    edge[:, [0, -1]] = False
    on = np.flatnonzero(edge[profile, column])
    # the Sobel gradient of the occupancy image, at the outline cells only
    p, c = profile[on], column[on]
    across = [hit[p + d, c - 1] + 2.0 * hit[p + d, c] + hit[p + d, c + 1] for d in (-1, 1)]
    along = [hit[p - 1, c + d] + 2.0 * hit[p, c + d] + hit[p + 1, c + d] for d in (-1, 1)]
    grad = np.column_stack([across[1] - across[0], along[1] - along[0]])
    described = np.any(grad != 0.0, axis=1)
    on, grad = on[described], grad[described]
    # raster axes: least squares of the points on (1, profile, column); the
    # occupancy gradient over the raster's plane is pinv(axes)^T (d/dp, d/dc)
    design = np.column_stack([np.ones(len(cloud)), cloud.raster]).astype(np.float64)
    axes = np.linalg.lstsq(design, cloud.points, rcond=None)[0][1:].T  # (3, 2)
    normals = -(grad @ np.linalg.pinv(axes))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points[on], cloud.raster[on], cloud.raster_shape), normals


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Centroid per occupied voxel; output sorted by voxel key for determinism.

    A voxel holding a single point reproduces that point bit-exactly, so an
    already-voxelized cloud passes through unchanged. Kept only for the
    benchmark's tracer.
    """
    if not 0 < voxel_size < np.inf:
        raise ValueError("voxel_size must be positive and finite")
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
    # per-voxel coordinate sums, added in point order
    sums = np.column_stack([np.bincount(inverse, weights=c, minlength=len(counts))
                            for c in cloud.points.T])
    centroids = sums / counts[:, None]
    single = counts == 1
    centroids[single] = cloud.points[first[single]]  # exact pass-through, no round-off
    return PointCloud(centroids)

