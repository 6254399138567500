"""Normal estimation and 33-bin fast point feature histograms.

The descriptor follows the FPFH construction of Rusu, Blodow and Beetz
("Fast Point Feature Histograms for 3D registration", ICRA 2009): per point,
three Darboux angle features over radius neighbors are histogrammed into 11
bins each (simplified histograms, SPFH), then neighbor SPFHs are blended in
with inverse distance weights and each 11-bin block is normalized to sum 100.
The normals are an argument, since a scan has none. Features depend only on
relative geometry, so a rigidly moved cloud, with its normals turned by the
same rotation, produces the same descriptors.

All neighbour pairs come from one KD-tree pair query and are processed as
flat arrays; histogram counts and the neighbour blend add each pair in
(source, target) order. The pair features work on coordinate columns: the
points and normals are transposed once into contiguous x, y and z
rows, each pair gathers its own columns, and cross and dot products are
written out per component. The sums follow the order of the (m, 3) row
routines they replace (np.linalg.norm, np.cross, np.einsum), so every
feature keeps its bits while each step streams through one dense column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from insertsim.geom import _UNIT_TOL, PointCloud, column_norm
from insertsim.registration.params import DegenerateFeatureError

BINS_PER_FEATURE = 11
DESCRIPTOR_SIZE = 3 * BINS_PER_FEATURE
MIN_NEIGHBORS = 5
NORMAL_K = 10  # neighbours of each point in its PCA normal


@dataclass(frozen=True)
class FeatureCloud:
    """Keypoints, without the normals FPFH read, and their descriptors: what
    prepare_cloud returns and registration matches and refines on.

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
    # scan that RANSAC and ICP both query, or a reference used by many scans, is indexed once.
    @cached_property
    def keypoint_tree(self) -> cKDTree:
        return cKDTree(self.keypoints.points)

    @cached_property
    def descriptor_tree(self) -> cKDTree:
        return cKDTree(self.descriptors)


def estimate_normals(cloud: PointCloud) -> np.ndarray:
    """(N, 3) unit PCA normals over the NORMAL_K nearest neighbors, oriented
    toward the origin. Kept only for the benchmark's tracer (`harness.PROBES`)."""
    n = len(cloud)
    if n < 3:
        raise ValueError("need at least 3 points to estimate normals")
    k = min(NORMAL_K, n - 1)
    tree = cKDTree(cloud.points)
    _, idx = tree.query(cloud.points, k=k + 1)
    nbrs = cloud.points[idx]  # (N, k+1, 3), includes the point itself
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]  # eigenvector of the smallest eigenvalue
    flip = np.einsum("ij,ij->i", normals, -cloud.points) < 0.0
    normals = np.where(flip[:, None], -normals, normals)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


def _dot(a, b):
    """Dot products of two column triples, summed as np.einsum sums (m, 3)
    rows: (x + z) + y, then + 0.0, which turns a -0.0 into +0.0."""
    return ((a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]) + 0.0


def _cross(a, b):
    """Cross products of two column triples, as np.cross forms them."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _pair_features(points, normals, src, tgt):
    """Darboux angle features (alpha, phi, theta), distance and frame flag
    `ok` of each source -> target pair, on coordinate columns; every value,
    signed zeros included, is the one the (m, 3) row routines give."""
    xyz = np.ascontiguousarray(points.T)
    nxyz = np.ascontiguousarray(normals.T)
    d = tuple(c[tgt] - c[src] for c in xyz)
    dist = column_norm(*d)
    d_hat = tuple(c / dist for c in d)
    u = tuple(c[src] for c in nxyz)
    n_q = tuple(c[tgt] for c in nxyz)
    v = _cross(d_hat, u)
    v_len = column_norm(*v)
    ok = v_len > 1e-12
    scale = np.where(ok, v_len, 1.0)
    v = tuple(np.where(ok, c / scale, 0.0) for c in v)
    w = _cross(u, v)
    alpha = _dot(v, n_q)
    phi = _dot(u, d_hat)
    theta = np.arctan2(_dot(w, n_q), _dot(u, n_q))
    return alpha, phi, theta, dist, ok


def _bin_index(values, lo, hi):
    scaled = (values - lo) / (hi - lo) * BINS_PER_FEATURE
    return np.clip(scaled.astype(np.int64), 0, BINS_PER_FEATURE - 1)


def compute_features(cloud: PointCloud, normals: np.ndarray, radius: float) -> FeatureCloud:
    """FPFH-style descriptors over the given radius.

    `normals` is (N, 3): one finite unit normal per point of the cloud.
    Points with fewer than 5 neighbors inside the radius cannot be
    described. Such stragglers are dropped until none is left (dropping one
    can leave its neighbors short), but if more than 10% of the cloud is
    dropped in all the radius is wrong for this cloud and a
    DegenerateFeatureError is raised instead.
    """
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != cloud.points.shape or not np.all(  # a NaN or inf length fails too
            np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= _UNIT_TOL):
        raise ValueError(f"normals must be one finite unit vector per point, within {_UNIT_TOL}")
    n = len(cloud)
    # every neighbour pair in both directions, sorted by (source, target):
    # the order in which the blend below accumulates
    pairs = cKDTree(cloud.points).query_pairs(radius, output_type="ndarray")
    keys = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]]))
    src, tgt = np.divmod(keys, n)

    # peel the stragglers off the pair list; renumbering the kept points in
    # order keeps the pairs sorted
    keep = np.ones(n, dtype=bool)
    while True:
        neighbors = np.bincount(src, minlength=n)
        degenerate = np.flatnonzero(keep & (neighbors < MIN_NEIGHBORS))
        if not len(degenerate):
            break
        keep[degenerate] = False
        dropped = n - np.count_nonzero(keep)
        if dropped > max(1, n // 10):
            example = degenerate[0]
            raise DegenerateFeatureError(
                f"{dropped} of {n} points have too few neighbors within "
                f"{radius} (e.g. point {example}: {neighbors[example]} < {MIN_NEIGHBORS})"
            )
        live = keep[src] & keep[tgt]
        src, tgt = src[live], tgt[live]
    if not keep.all():
        renumber = np.cumsum(keep) - 1
        src, tgt = renumber[src], renumber[tgt]
        cloud, normals = cloud.select(keep), normals[keep]
        n = len(cloud)

    alpha, phi, theta, dist, ok = _pair_features(cloud.points, normals, src, tgt)
    src, tgt, dist = src[ok], tgt[ok], dist[ok]
    neighbor_counts = np.bincount(src, minlength=n)
    if not neighbor_counts.all():
        example = int(np.argmin(neighbor_counts))
        raise DegenerateFeatureError(
            f"point {example} has no neighbor within {radius} off its normal's "
            f"line, so none of its pairs has a Darboux frame"
        )
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
    blend = csr_array((inv_d, tgt, np.concatenate([[0], np.cumsum(neighbor_counts)])), shape=(n, n))
    fpfh = spfh + (blend @ spfh) / neighbor_counts[:, None]

    # normalize each 11-bin block to sum 100
    for b in range(3):
        block = fpfh[:, b * BINS_PER_FEATURE:(b + 1) * BINS_PER_FEATURE]
        sums = block.sum(axis=1, keepdims=True)
        block /= np.where(sums > 0, sums, 1.0)
        block *= 100.0
    return FeatureCloud(cloud, fpfh)
