"""Normal estimation and 33-bin fast point feature histograms.

The descriptor follows the FPFH construction of Rusu, Blodow and Beetz
("Fast Point Feature Histograms for 3D registration", ICRA 2009): per point,
three Darboux angle features over radius neighbors are histogrammed into 11
bins each (simplified histograms, SPFH), then neighbor SPFHs are blended in
with inverse distance weights and each 11-bin block is normalized to sum 100.
Features depend only on relative geometry, so a rigidly moved cloud (with
moved normals) produces the same descriptors.

All neighbour pairs come from one KD-tree pair query and are processed as
flat arrays; histogram counts and the neighbour blend add each pair in
(source, target) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from insertsim.geom import PointCloud
from insertsim.registration.params import DegenerateFeatureError

BINS_PER_FEATURE = 11
DESCRIPTOR_SIZE = 3 * BINS_PER_FEATURE
MIN_NEIGHBORS = 5


@dataclass(frozen=True)
class FeatureCloud:
    """Keypoints with their descriptors: what prepare_cloud returns and
    registration matches and refines on.

    `fine` is a read-only alias of `keypoints`, kept because the benchmark
    in `trialbench/workloads.py` reads `ref.fine` from a prepared reference
    and the benchmark's files are held fixed so that runs stay comparable.
    """

    keypoints: PointCloud
    descriptors: np.ndarray  # (N, 33), non-negative

    def __post_init__(self):
        if self.descriptors.shape != (len(self.keypoints), DESCRIPTOR_SIZE):
            raise ValueError("descriptor table must be (N, 33)")
        if not np.all(np.isfinite(self.descriptors)) or np.any(self.descriptors < 0):
            raise ValueError("descriptors must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.keypoints)

    @property
    def fine(self) -> PointCloud:
        return self.keypoints

    # Indexes over the cloud, each built on first use and kept with it, so a
    # cloud registered in many RANSAC rounds or against many scans is indexed once.
    @cached_property
    def keypoint_tree(self) -> cKDTree:
        return cKDTree(self.keypoints.points)

    @cached_property
    def descriptor_tree(self) -> cKDTree:
        return cKDTree(self.descriptors)


def estimate_normals(cloud: PointCloud, k: int = 10, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """PCA normals over k nearest neighbors, oriented toward the viewpoint."""
    n = len(cloud)
    if n < 3:
        raise ValueError("need at least 3 points to estimate normals")
    k = min(k, n - 1)
    tree = cKDTree(cloud.points)
    _, idx = tree.query(cloud.points, k=k + 1)
    nbrs = cloud.points[idx]  # (N, k+1, 3), includes the point itself
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]  # eigenvector of the smallest eigenvalue
    to_view = np.asarray(viewpoint, dtype=np.float64) - cloud.points
    flip = np.einsum("ij,ij->i", normals, to_view) < 0.0
    normals = np.where(flip[:, None], -normals, normals)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals)


def _pair_features(p, n_p, q, n_q):
    """Darboux angle features (alpha, phi, theta) for source->target pairs."""
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


def _bin_index(values, lo, hi):
    scaled = (values - lo) / (hi - lo) * BINS_PER_FEATURE
    return np.clip(scaled.astype(np.int64), 0, BINS_PER_FEATURE - 1)


def compute_features(cloud: PointCloud, radius: float, normal_k: int = 10,
                     viewpoint=(0.0, 0.0, 0.0), _retry: bool = True) -> FeatureCloud:
    """FPFH-style descriptors over the given radius.

    Points with fewer than 5 neighbors inside the radius cannot be described;
    isolated stragglers are dropped, but if more than 10% of the cloud is
    degenerate the radius is wrong for this cloud and a
    DegenerateFeatureError is raised instead.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not cloud.has_normals:
        cloud = estimate_normals(cloud, k=normal_k, viewpoint=viewpoint)
    n = len(cloud)
    # every neighbour pair in both directions, sorted by (source, target):
    # the order in which the blend below accumulates
    pairs = cKDTree(cloud.points).query_pairs(radius, output_type="ndarray")
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]]))
    src, tgt = np.divmod(keys, n)
    neighbors = np.bincount(src, minlength=n)

    degenerate = np.flatnonzero(neighbors < MIN_NEIGHBORS)
    if len(degenerate):
        example = degenerate[0]
        if not _retry or len(degenerate) > max(1, n // 10):
            raise DegenerateFeatureError(
                f"{len(degenerate)} of {n} points have too few neighbors within "
                f"{radius} (e.g. point {example}: {neighbors[example]} < {MIN_NEIGHBORS})"
            )
        keep = neighbors >= MIN_NEIGHBORS
        return compute_features(cloud.select(keep), radius, normal_k, viewpoint, _retry=False)

    alpha, phi, theta, dist, ok = _pair_features(
        cloud.points[src], cloud.normals[src], cloud.points[tgt], cloud.normals[tgt]
    )
    src, tgt, dist = src[ok], tgt[ok], dist[ok]
    cols = np.concatenate([
        _bin_index(alpha[ok], -1.0, 1.0),
        BINS_PER_FEATURE + _bin_index(phi[ok], -1.0, 1.0),
        2 * BINS_PER_FEATURE + _bin_index(theta[ok], -np.pi, np.pi),
    ])
    cells = np.tile(src, 3) * DESCRIPTOR_SIZE + cols
    spfh = np.bincount(cells, minlength=n * DESCRIPTOR_SIZE).astype(np.float64)
    spfh = spfh.reshape(n, DESCRIPTOR_SIZE)

    # blend neighbor SPFHs with inverse-distance weights; the cap keeps
    # near-duplicate points from dominating the histogram. Each CSR row sums
    # its pairs in (source, target) order, one pair at a time.
    inv_d = 1.0 / np.maximum(dist, 0.05 * radius)
    neighbor_counts = np.bincount(src, minlength=n)
    blend = csr_array((inv_d, tgt, np.concatenate([[0], np.cumsum(neighbor_counts)])), shape=(n, n))
    fpfh = spfh + (blend @ spfh) / neighbor_counts[:, None]

    # normalize each 11-bin block to sum 100
    for b in range(3):
        block = fpfh[:, b * BINS_PER_FEATURE:(b + 1) * BINS_PER_FEATURE]
        sums = block.sum(axis=1, keepdims=True)
        block /= np.where(sums > 0, sums, 1.0)
        block *= 100.0
    return FeatureCloud(cloud, fpfh)
