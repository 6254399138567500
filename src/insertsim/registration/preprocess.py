"""Scan cloud conditioning: the outline of a scanner raster and its pitch.

A scanned part with a flat face gives the same FPFH descriptor at every
point of that face, so registration on the whole cloud has nothing to
match; the part's outline carries the in-plane shape. `outline` takes a
cloud that carries its scanner's hit mask and keeps the cells of the top
face with a miss or a dropped hit among their 8 neighbours (cells on the
raster's border are never outline: what lies past them was not scanned).
It gives each an in-plane normal from the mask alone: the Sobel gradient of
the top face's occupancy image, mapped into 3-D through the raster's axes.
The axes are a least-squares fit of the points on their (profile, column)
cells, and their lengths are the scan's one measurement, its (ds, dl)
pitch: ds the step along a profile (to the next column), dl the step across
profiles. `pipeline` derives every registration threshold from it.

A calibration tilt or a tilted part shows side faces and hole walls too. A
hit more than one pitch (the longer axis) off the fitted plane is not on the
top face; such hits tilt the fit, so it is corrected once to the others, and
the hits off the corrected plane are dropped (a scan without any keeps its
fit bit for bit). No other stage drops a hit. `outline` reads only the hits'
bounding window padded by one cell and clipped to the raster: past its edge
lie misses or no raster, and the fit's axes do not depend on the window's
shift. A line scanner measures no normals; `outline` returns the outline's.
The scanner adds no outliers, and outlier removal would drop only outline
points, so registration runs neither it nor a voxel grid.

`statistical_outlier_removal` and `voxel_downsample` have no caller in the
program; they stay while the benchmark's tracer (`harness.PROBES`) names them.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_erosion

from insertsim.geom import PointCloud, vector_norm
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
    dists = cloud.tree.query(cloud.points, k=k + 1)[0]  # column 0 is the point itself
    mean_d = dists[:, 1:].mean(axis=1)
    cutoff = mean_d.mean() + std_ratio * mean_d.std()
    keep = mean_d <= cutoff
    return cloud.select(keep)


def outline(cloud: PointCloud) -> tuple:
    """(edge, normals, pitch) of a non-empty cloud with a hit mask: its top
    face's outline, the outline's (N, 3) unit in-plane normals pointing out
    of the top face, and the (ds, dl) pitch of its raster (module docstring).
    An outline cell whose Sobel gradient vanishes has no normal and is
    dropped. The outline carries no mask: nothing downstream reads one. Hits
    on one line of the raster have no pitch and raise DegenerateFeatureError."""
    hits = cloud.hits
    rows = np.flatnonzero(hits.any(axis=1))  # the profiles with a hit
    cols = np.flatnonzero(hits.any(axis=0))  # the columns with a hit
    # the hits' window, padded by one cell; slicing clips the far ends
    hit = hits[max(rows[0] - 1, 0):rows[-1] + 2, max(cols[0] - 1, 0):cols[-1] + 2].copy()
    profile, column = np.nonzero(hit)  # each point's cell in the window
    # raster axes: least squares of the points on (1, profile, column)
    design = np.column_stack([np.ones(len(cloud)), profile, column])
    fit, _, rank, _ = np.linalg.lstsq(design, cloud.points, rcond=None)
    if rank < 3:
        raise DegenerateFeatureError("the hit cells lie on one line of the raster, "
                                     "so the scan's pitch is unknown")
    # refit to the hits on the plane: the fit solves DᵀD fit = DᵀP, so dropping rows
    # D_off, P_off moves it by -(DᵀD - D_offᵀD_off)⁻¹ D_offᵀ(P_off - D_off fit)
    off = _off_plane(cloud.points, fit)
    d_off = design[off]
    fit -= np.linalg.solve(design.T @ design - d_off.T @ d_off,
                           d_off.T @ (cloud.points[off] - d_off @ fit))
    off = _off_plane(cloud.points, fit)
    hit[profile[off], column[off]] = False  # the top face's cells are left
    axes = fit[1:].T  # (3, 2): the step to the next profile, to the next column
    pitch = (vector_norm(axes[:, 1]), vector_norm(axes[:, 0]))
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
    # the occupancy gradient over the raster's plane is pinv(axes)^T (d/dp, d/dc)
    normals = -(grad @ np.linalg.pinv(axes))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points[on]), normals, pitch


def _off_plane(points: np.ndarray, fit: np.ndarray) -> np.ndarray:
    """Which points lie more than a pitch (the longer axis) off the fit's plane."""
    normal = np.cross(fit[1], fit[2])
    normal /= vector_norm(normal)
    return np.abs(points @ normal - fit[0] @ normal) > max(vector_norm(fit[1]), vector_norm(fit[2]))


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

