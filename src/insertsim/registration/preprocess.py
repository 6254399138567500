"""Scan cloud conditioning: statistical outlier removal and voxel downsampling.

Outlier removal (Rusu et al., RAS 2008) needs each point's k nearest
distances. A scanner cloud carries its raster, the (profile, column) cell of
every point, and then most of those distances come from a fixed window of
cells around the point, ±1 profile by ±4 columns, with no KD-tree (cf. the
organised-cloud neighbourhoods of Holzer et al., IROS 2012). The window's
distances come from `geom.column_norm`, the expression cKDTree evaluates,
and the window holds the point itself, so its k+1 smallest distances,
sorted, are the tree's answer whenever no point outside the window is
nearer than the largest of them, `D`.

A point keeps its window answer only when a certificate proves that. Take
two unit axes, `u` across profiles and `v` along them. Every point in a
profile beyond p±1 is at least as far as the gap in `u·s` between the point
and the nearest of those profiles' extremes (a suffix minimum and a prefix
maximum over profiles), and every point of profiles p-1..p+1 beyond column
c±4 at least as far as the gap in `v·s` to those rows' column extremes (per
row suffix minima and prefix maxima). These bounds hold for any axes and
any raster labels, so the scanner's geometry decides only how many points
are certified, never whether a certified answer is right. The smallest gap
must beat `D` by the relative margin `_WINDOW_MARGIN` of `D` plus the
cloud's extent, far above the rounding of the projections and of the
distances. Tight gaps want axes along which successive profiles (columns)
move apart while one profile's (column's) own points spread least, so each
is Fisher's discriminant direction for its labels; on a scan of a tilted
part, depth along the rays then moves neither projection.

Points with fewer than k+1 window neighbours or too small a gap (near
corners and rims, ~90 of 120k on a dense scan) ask a KD-tree with k+1, as
does every point of a cloud with no raster or a raster box too sparse to
grid. The window table is built in blocks of `_BLOCK` points, so it adds
no memory peak beyond the tree query it replaces.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud, column_norm, raster_box
from insertsim.registration.params import PreprocessingDegenerateError, RegistrationParams

_WINDOW = (1, 4)       # raster window: profiles and columns on each side of a point
_WINDOW_MARGIN = 1e-9  # relative margin of the window certificate
_BLOCK = 8192          # points per block of the window distance table


def statistical_outlier_removal(cloud: PointCloud, mean_k: int, std_ratio: float) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds global mean + ratio * std."""
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot filter an empty cloud")
    k = min(mean_k, n - 1)
    if k < 1:
        return cloud
    dists = _nearest_dists(cloud, k + 1)  # column 0 is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    cutoff = mean_d.mean() + std_ratio * mean_d.std()
    keep = mean_d <= cutoff
    return cloud.select(keep)


def _nearest_dists(cloud: PointCloud, m: int) -> np.ndarray:
    """(n, m) ascending distances from each point to its m nearest points,
    itself included, bit for bit as cKDTree.query(points, k=m) reports them."""
    box = raster_box(cloud.raster) if cloud.raster is not None else None
    if box is None or m > (2 * _WINDOW[0] + 1) * (2 * _WINDOW[1] + 1):
        return cKDTree(cloud.points).query(cloud.points, k=m)[0]
    lo, shape = box
    cells = cloud.raster - lo
    dists = _window_dists(cloud.points, cells, shape, m)
    far = dists[:, m - 1]  # NaN where the window holds fewer than m points
    gap, extent = _outside_gap(cloud.points, cells, shape)
    stale = np.flatnonzero(~(gap - far > _WINDOW_MARGIN * (far + extent)))
    if len(stale):
        # a tree of any shape answers with the same distances; this one builds fastest
        tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
        dists[stale] = tree.query(cloud.points[stale], k=m)[0]
    return dists


def _window_dists(points: np.ndarray, cells: np.ndarray, shape: tuple, m: int) -> np.ndarray:
    """(n, m) smallest distances from each point to the points of its raster
    window, ascending, NaN where the window holds fewer than m points."""
    wp, wc = _WINDOW
    rows, cols = shape
    row, col = cells.T
    n = len(points)
    # coordinate planes of the raster padded by the window, NaN where no point
    width = cols + 2 * wc
    grid = np.full((3, rows + 2 * wp, width), np.nan)
    grid[:, row + wp, col + wc] = points.T
    x, y, z = grid.reshape(3, -1)
    # one distance plane per flat window offset o > 0: |s(f + o) - s(f)| at
    # cell f is f's distance at offset o and, read at f + o, that cell's
    # distance at offset -o
    half = np.array([dp * width + dc for dp in range(wp + 1) for dc in range(-wc, wc + 1)
                     if dp * width + dc > 0])
    planes = np.full((len(half), x.size), np.nan)
    for plane, o in zip(planes, half):
        plane[:-o] = column_norm(x[o:] - x[:-o], y[o:] - y[:-o], z[o:] - z[:-o])
    reads = np.concatenate([np.arange(len(half)) * x.size + shift for shift in (0, -half)])
    planes = planes.ravel()
    centre = (row + wp) * width + (col + wc)
    dists = np.empty((n, m))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        d = np.empty((hi - lo, 1 + len(reads)))
        d[:, 0] = 0.0  # the point itself
        d[:, 1:] = planes[centre[lo:hi, None] + reads]
        d.sort(axis=1)  # NaN, an empty cell, sorts last
        dists[lo:hi] = d[:, :m]
    return dists


def _outside_gap(points: np.ndarray, cells: np.ndarray, shape: tuple):
    """Lower bound on each point's distance to every point outside its
    raster window, and the cloud's extent, for the certificate's margin."""
    wp, wc = _WINDOW
    rows, cols = shape
    row, col = cells.T
    # the certificate's axes, across and along profiles
    rel = points - points[0]
    gram = rel.T @ rel
    u, v = _separating_axis(rel, gram, row), _separating_axis(rel, gram, col)
    extent = float(np.sqrt(np.max(np.einsum("ij,ij->i", rel, rel))))
    pu, pv = rel @ u, rel @ v
    # profiles beyond p±wp: suffix minima and prefix maxima of u·s over profiles
    low, high = np.full(rows, np.inf), np.full(rows, -np.inf)
    np.minimum.at(low, row, pu)
    np.maximum.at(high, row, pu)
    above = np.full(rows + wp + 1, np.inf)
    above[:rows] = np.minimum.accumulate(low[::-1])[::-1]
    below = np.full(rows + wp + 1, -np.inf)
    below[wp + 1:] = np.maximum.accumulate(high)
    gap = np.minimum(above[row + wp + 1] - pu, pu - below[row])
    # columns beyond c±wc in profiles p-wp..p+wp: per-row suffix minima and
    # prefix maxima of v·s over columns, then their extremes over those rows
    per_col = np.full((rows, cols), np.inf)
    per_col[row, col] = pv
    right = np.full((rows + 2 * wp, cols + wc + 1), np.inf)
    right[wp:wp + rows, :cols] = np.minimum.accumulate(per_col[:, ::-1], axis=1)[:, ::-1]
    per_col[row, col] = -pv
    left = np.full((rows + 2 * wp, cols + wc + 1), -np.inf)
    left[wp:wp + rows, wc + 1:] = -np.minimum.accumulate(per_col, axis=1)
    right = reduce(np.minimum, (right[dr:dr + rows] for dr in range(2 * wp + 1)))
    left = reduce(np.maximum, (left[dr:dr + rows] for dr in range(2 * wp + 1)))
    return np.minimum(gap, np.minimum(right[row, col + wc + 1] - pv, pv - left[row, col])), extent


def _separating_axis(rel: np.ndarray, gram: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Unit axis along which the points of successive labels (profiles or
    columns) move apart while the points of one label spread least: Fisher's
    discriminant (S + lam I)^-1 w, with `w` the step from the first label's
    mean to the last's, S the within-label scatter and `gram` = rel.T @ rel.
    The ridge lam, far below |w|^2, keeps it defined when S is singular."""
    count = np.bincount(label)
    found = count > 0
    sums = np.stack([np.bincount(label, weights=c) for c in rel.T])[:, found]
    means = sums / count[found]
    w = means[:, -1] - means[:, 0]
    scatter = (gram - means @ sums.T) / len(rel)
    axis = np.linalg.solve(scatter + 1e-6 * (w @ w) * np.eye(3), w) if w @ w > 0 else w
    norm = float(np.linalg.norm(axis))
    return axis / norm if 0.0 < norm < np.inf else np.array([1.0, 0.0, 0.0])


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
