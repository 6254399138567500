import importlib

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from insertsim.geom import PointCloud, Pose
from insertsim.registration import (
    DegenerateFeatureError,
    InsufficientCorrespondencesError,
    RegistrationParams,
    estimate_pose,
    prepare_cloud,
)
from insertsim.registration.preprocess import outline, statistical_outlier_removal, \
    voxel_downsample
from insertsim.scansim import CalibrationError, HolePlate, Scene, ScenePart, ScannerConfig, \
    linear_sweep, sweep_scan


def cells_of(part: PointCloud, cloud: PointCloud) -> np.ndarray:
    """The (profile, column) cell in the hit mask of `cloud` of each point of
    `part`, whose points are points of `cloud`."""
    at = {p.tobytes(): i for i, p in enumerate(cloud.points)}
    assert len(at) == len(cloud)
    return np.argwhere(cloud.hits)[[at[p.tobytes()] for p in part.points]].reshape(-1, 2)


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


def brute_force_sor_keep(points: np.ndarray, mean_k: int, std_ratio: float) -> np.ndarray:
    """Which points outlier removal keeps, from the distances of every pair,
    in rows of 1000 points for memory."""
    k = min(mean_k, len(points) - 1)
    mean_d = np.zeros(len(points))
    for lo in range(0, len(points), 1000):
        nearest = np.partition(cdist(points[lo:lo + 1000], points), k, axis=1)[:, :k + 1]
        mean_d[lo:lo + 1000] = np.sort(nearest, axis=1)[:, 1:].mean(axis=1)  # drop the point itself
    return mean_d <= mean_d.mean() + std_ratio * mean_d.std()


def test_outlier_removal_matches_brute_force():
    """A 5 mm patch of 10000 points and one point ~10x its diameter away."""
    rng = np.random.default_rng(1)
    patch = rng.uniform(0, 5e-3, size=(10000, 2))
    far = np.array([[5e-2, 5e-2, 0.0]])
    cloud = PointCloud(np.vstack([np.column_stack([patch, np.zeros(len(patch))]), far]))
    k = 12
    expected_keep = brute_force_sor_keep(cloud.points, k, 1.0)
    assert not expected_keep[-1]  # oracle agrees the far point is an outlier
    out = statistical_outlier_removal(cloud, mean_k=k, std_ratio=1.0)
    np.testing.assert_array_equal(out.points, cloud.points[expected_keep])
    np.testing.assert_array_equal(
        statistical_outlier_removal(cloud, mean_k=np.int64(k), std_ratio=1.0).points, out.points)


def test_preprocess_idempotent_on_voxel_centroids():
    """Outlier removal then the voxel grid, run again on its own output."""
    rng = np.random.default_rng(2)
    # closed surface sampling (sphere) so the outlier filter has no lonely edge
    u = rng.normal(size=(4000, 3))
    pts = 5e-3 * u / np.linalg.norm(u, axis=1, keepdims=True)

    def condition(cloud):
        return voxel_downsample(statistical_outlier_removal(cloud, 10, 3.0), 5e-4)

    once = condition(PointCloud(pts))
    twice = condition(once)
    # every surviving point must coincide with a point of the first pass
    for p in twice.points:
        assert np.min(np.linalg.norm(once.points - p, axis=1)) <= 1e-12


def test_preprocess_empty_input_rejected():
    empty = PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="empty"):
        statistical_outlier_removal(empty, 12, 2.0)
    with pytest.raises(ValueError, match="empty"):
        voxel_downsample(empty, 1e-4)


def test_voxel_grid_too_large_to_number_raises():
    # 1e7 cells per axis: 1e21 cells overflow int64 cell numbers
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        voxel_downsample(cloud, voxel_size=1e-7)


# -- scans of the benchmark's plate ---------------------------------------------

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
    "tilted": Pose.from_axis_angle([1e-4, 5e-5, 2e-4], [1.0, 0.6, 0.2], 0.15),
}
CAL = CalibrationError(Pose.from_axis_angle([60e-6, -80e-6, 0.0], [0.3, -0.5, 0.8], 2e-3))


def plate_scan(scanner: str, pose: str, cal: CalibrationError, profiles: int = None) -> PointCloud:
    cfg, step, count = SCANNERS[scanner]
    scene = Scene([ScenePart("plate", PLATE, PLATE_POSES[pose])])
    sweep = linear_sweep(SWEEP_START, [0, 1, 0], step, profiles or count)
    return sweep_scan(scene, sweep, cfg, cal, seed=611)


def count_calls(monkeypatch, module, name: str) -> list:
    """Arguments of every call to `module.name` from here on."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("n", [2, 3, 12, 13, 14])
def test_raster_sor_with_few_points(n):
    """2-14 points of a scan, down to where k = min(mean_k, n - 1) clamps;
    the kept points take their raster cells with them."""
    scan = plate_scan("sparse", "yaw+3", CAL)
    index = np.arange(len(scan))
    few = scan.select((index >= 200) & (index < 200 + n))
    keep = brute_force_sor_keep(few.points, 12, 2.0)
    out = statistical_outlier_removal(few, 12, 2.0)
    np.testing.assert_array_equal(out.points, few.points[keep])
    np.testing.assert_array_equal(np.argwhere(out.hits), np.argwhere(few.hits)[keep])
    assert out.hits.shape == few.hits.shape


def test_raster_validation():
    """A hit mask is a 2-D boolean raster with one True cell per point, and
    the cloud keeps a read-only copy of it."""
    pts = np.zeros((3, 3))
    pts[:, 0] = [0.0, 1.0, 2.0]
    hits = np.zeros((2, 3), dtype=bool)
    hits.flat[[0, 1, 5]] = True
    cloud = PointCloud(pts, hits)
    np.testing.assert_array_equal(np.argwhere(cloud.hits), [[0, 0], [0, 1], [1, 2]])
    assert not cloud.hits.flags.writeable
    hits[0, 0] = False
    assert cloud.hits[0, 0]  # a copy: the caller's array stays the caller's
    hits[0, 0] = True
    two, four = hits.copy(), hits.copy()
    two[0, 0], four[1, 0] = False, True
    for bad in (hits.astype(np.int64), hits.astype(np.float64), hits.ravel(), hits[None],
                two, four):
        with pytest.raises(ValueError, match="hits"):
            PointCloud(pts, bad)
    assert PointCloud(pts).hits is None


def test_select_keeps_each_point_in_its_cell():
    """`select` takes a boolean mask with one entry per point; each kept
    point keeps its cell of the hit mask, and an integer index raises."""
    cloud = plate_scan("sparse", "yaw+3", CAL)
    keep = np.random.default_rng(4).random(len(cloud)) < 0.5
    out = cloud.select(keep)
    np.testing.assert_array_equal(out.points, cloud.points[keep])
    np.testing.assert_array_equal(np.argwhere(out.hits), np.argwhere(cloud.hits)[keep])
    assert out.hits.shape == cloud.hits.shape
    for bad in (np.flatnonzero(keep), keep[:-1], keep.astype(np.int64)):
        with pytest.raises(ValueError, match="boolean mask"):
            cloud.select(bad)
    assert PointCloud(cloud.points).select(keep).hits is None


# -- outline of a scan -------------------------------------------------------------

def top_face_oracle(cloud: PointCloud) -> tuple:
    """(on, fit): which points lie on the top face, and the fit of the points
    on (1, profile, column) over their cells in the full raster, by normal
    equations: fit every hit, drop the hits more than a pitch (the longer
    fitted axis) off the fitted plane, fit the rest, and drop again."""
    design = np.column_stack([np.ones(len(cloud)), np.argwhere(cloud.hits)])
    on = np.ones(len(cloud), dtype=bool)
    for _ in range(2):
        fit = np.linalg.solve(design[on].T @ design[on], design[on].T @ cloud.points[on])
        normal = np.cross(fit[1], fit[2])
        depth = (cloud.points - fit[0]) @ (normal / np.linalg.norm(normal))
        on = np.abs(depth) <= np.max(np.linalg.norm(fit[1:], axis=1))
    return on, fit


def outline_oracle(cloud: PointCloud) -> set:
    """Cells of the outline by a loop: a top-face cell off the raster's
    border with a miss or a dropped hit among its 8 neighbours."""
    rows, cols = cloud.hits.shape
    hit = set(map(tuple, np.argwhere(cloud.hits)[top_face_oracle(cloud)[0]].tolist()))
    return {(p, c) for p, c in hit if 0 < p < rows - 1 and 0 < c < cols - 1
            and any((p + dp, c + dc) not in hit for dp in (-1, 0, 1) for dc in (-1, 0, 1))}


@pytest.mark.parametrize("pose", ["level", "yaw+3", "tilted"])
def test_outline_is_the_hit_cells_next_to_a_miss(pose):
    cloud = plate_scan("sparse", pose, CAL)
    expected = outline_oracle(cloud)
    edge, normals, _ = outline(cloud)
    assert normals.shape == edge.points.shape
    cells = list(map(tuple, cells_of(edge, cloud).tolist()))
    # only cells whose Sobel gradient vanishes (none on a plate) are left out
    assert len(cells) == len(set(cells)) == len(expected) > 300
    assert set(cells) == expected
    assert cells == sorted(cells)  # the outline keeps the points' order
    assert edge.hits is None


def test_outline_drops_cells_without_a_gradient():
    """A plus of hit cells: every cell is outline, but the centre's Sobel
    gradient vanishes, so it has no normal and is left out; each arm's
    normal points away from the centre."""
    cells = np.array([[1, 2], [2, 1], [2, 2], [2, 3], [3, 2]])
    hits = np.zeros((5, 5), dtype=bool)
    hits[tuple(cells.T)] = True
    cloud = PointCloud(np.column_stack([cells[:, 1] * 1e-5, cells[:, 0] * 2e-5, np.zeros(5)]),
                       hits)
    edge, normals, _ = outline(cloud)
    np.testing.assert_array_equal(cells_of(edge, cloud), cells[[0, 1, 3, 4]])
    np.testing.assert_allclose(normals, [[0, -1, 0], [-1, 0, 0], [1, 0, 0], [0, 1, 0]],
                               atol=1e-12)


def test_outline_normals_point_out_of_the_plate_in_its_plane():
    """On the straight sides of a level plate the normal is the side's
    outward axis; on a tilted plate every normal lies in the plate's plane:
    the raster axes are fitted to the top face's hits, without the ~3% of
    them on its side faces that turned the axes by ~0.01 rad."""
    edge, normals, _ = outline(plate_scan("dense", "level", CalibrationError.none()))
    x, y = edge.points[:, 0], edge.points[:, 1]
    for axis, coord, other in ((0, x, y), (1, y, x)):
        side = (np.abs(coord) > 2.9e-3) & (np.abs(other) < 2.8e-3)
        assert np.count_nonzero(side) > 400
        outward = np.zeros((np.count_nonzero(side), 3))
        outward[:, axis] = np.sign(coord[side])
        assert np.min(np.einsum("ij,ij->i", normals[side], outward)) > np.cos(0.05)
    tilted = PLATE_POSES["tilted"]
    normals = outline(plate_scan("sparse", "tilted", CalibrationError.none()))[1]
    assert np.max(np.abs(normals @ tilted.rotate_vector([0.0, 0.0, 1.0]))) < 1e-3


@pytest.mark.parametrize("cal", ["none", "CAL"])
@pytest.mark.parametrize("pose", ["level", "yaw+3", "tilted"])
@pytest.mark.parametrize("scanner", ["dense", "sparse"])
def test_outline_lies_on_the_top_face(scanner, pose, cal):
    """A calibration tilt or a tilted plate shows the scanner the plate's
    side faces and its hole wall, down to 1 mm below the top; the outline
    keeps none of those hits. The tilted cases fail with a cut from the fit
    over all hits, which the side hits turn, so they check the corrected fit."""
    error = CAL if cal == "CAL" else CalibrationError.none()
    edge, _, pitch = outline(plate_scan(scanner, pose, error))
    # the scan is the true surface moved by the inverse mount offset
    local = PLATE_POSES[pose].inverse().transform_points(
        error.mount_offset.transform_points(edge.points))
    assert len(edge) > 300
    assert np.max(np.abs(local[:, 2] - PLATE.half_thickness)) < 1.5 * max(pitch)


@pytest.mark.parametrize("scanner, pitch", [("dense", (12e-6, 25e-6)),
                                            ("sparse", (48e-6, 100e-6))])
def test_raster_pitch_is_the_scanner_spacing(scanner, pitch):
    """The fitted steps along and across profiles are the scanner's column
    spacing and sweep step: the depth noise averages out of the fit."""
    np.testing.assert_allclose(outline(plate_scan(scanner, "yaw+3", CAL))[2], pitch, rtol=1e-5)


def pitch_oracle(cloud: PointCloud) -> tuple:
    """(ds, dl) of the top face's fit: the lengths of the column and the
    profile axis."""
    fit = top_face_oracle(cloud)[1]
    return float(np.linalg.norm(fit[2])), float(np.linalg.norm(fit[1]))


NARROW = ScannerConfig(points_per_profile=64, lateral_resolution=40e-6)


def narrow_scan(x: float, y: float, profiles: int) -> PointCloud:
    """A 64-column, 2.56 mm wide sweep of the plate from (x, y), 100 um a profile."""
    start = Pose.from_axis_angle([x, y, 0.03], [1, 0, 0], np.pi)
    return sweep_scan(Scene([ScenePart("plate", PLATE, PLATE_POSES["yaw+3"])]),
                      linear_sweep(start, [0, 1, 0], 100e-6, profiles), NARROW, CAL, seed=3)


# each scan's hits touch the raster's border where it says: (first profile,
# last profile, first column, last column)
WINDOW_SCANS = {
    "inside": (lambda: plate_scan("sparse", "yaw+3", CAL), (False, False, False, False)),
    "last profile": (lambda: plate_scan("sparse", "tilted", CAL, profiles=50),
                     (False, True, False, False)),
    "first profile": (lambda: narrow_scan(-1.5e-3, -2e-3, 60), (True, False, True, True)),
    "first column": (lambda: narrow_scan(3e-3, -3.5e-3, 70), (False, False, True, False)),
    "last column": (lambda: narrow_scan(-3e-3, -3.5e-3, 70), (False, False, False, True)),
    "fills the raster": (lambda: narrow_scan(-1.5e-3, -2e-3, 20), (True, True, True, True)),
}


@pytest.mark.parametrize("name", WINDOW_SCANS)
def test_conditioning_on_the_hits_window_matches_the_full_raster(name):
    """Pitch and outline read the hits' bounding window only; a fit over the
    whole raster's cells gives the same pitch to round-off, and a loop over
    it the same outline, wherever the hits meet the raster's border."""
    scan, touches = WINDOW_SCANS[name]
    cloud = scan()
    rows, cols = cloud.hits.shape
    profile, column = np.argwhere(cloud.hits).T
    assert (profile.min() == 0, profile.max() == rows - 1,
            column.min() == 0, column.max() == cols - 1) == touches
    edge, _, pitch = outline(cloud)
    np.testing.assert_allclose(pitch, pitch_oracle(cloud), rtol=1e-12)
    assert set(map(tuple, cells_of(edge, cloud).tolist())) == outline_oracle(cloud)


def test_prepare_cloud_registers_a_scan_on_its_outline(monkeypatch):
    """A scan reaches neither outlier removal nor the voxel grid, and its
    keypoints are its outline."""
    sor = count_calls(monkeypatch, preprocess_module, "statistical_outlier_removal")
    voxel = count_calls(monkeypatch, preprocess_module, "voxel_downsample")
    cloud = plate_scan("sparse", "yaw+3", CAL)
    prepared = prepare_cloud(cloud, RegistrationParams())
    assert sor == [] and voxel == []
    np.testing.assert_array_equal(prepared.keypoints.points, outline(cloud)[0].points)


def test_registration_rejects_a_cloud_without_a_raster_shape():
    """Registration takes scanner clouds: a cloud without its hit mask, and
    so without a raster shape, as reference (prepared by prepare_cloud) or
    as scan, raises and names what it lacks."""
    scan = plate_scan("sparse", "yaw+3", CAL)
    params = RegistrationParams()
    ref = prepare_cloud(scan, params)
    bare = PointCloud(scan.points)
    with pytest.raises(ValueError, match="hit mask"):
        prepare_cloud(bare, params)
    with pytest.raises(ValueError, match="hit mask"):
        estimate_pose(bare, scan, params, 0, ref)


def test_a_plate_across_the_last_profile_has_no_outline_on_it():
    """The sweep stops inside the plate: the last profile is all plate, and
    what lies past it was not scanned, so none of its cells is outline."""
    cloud = plate_scan("sparse", "yaw+3", CAL, profiles=50)
    last = cloud.hits.shape[0] - 1
    assert np.count_nonzero(cloud.hits[last]) > 100
    edge = outline(cloud)[0]
    assert np.max(cells_of(edge, cloud)[:, 0]) == last - 1


def test_outline_poor_rasters_raise_typed_errors():
    """A plate that fills the raster has no outline, and a single profile or
    a single column has no pitch across it: both fail with the errors a
    trial counts."""
    cfg = ScannerConfig(points_per_profile=64, lateral_resolution=40e-6)
    start = Pose.from_axis_angle([-1.5e-3, -2e-3, 0.03], [1, 0, 0], np.pi)
    cloud = sweep_scan(Scene([ScenePart("plate", PLATE, Pose.identity())]),
                       linear_sweep(start, [0, 1, 0], 100e-6, 20), cfg,
                       CalibrationError.none(), seed=1)
    assert len(cloud) == 20 * 64 and len(outline(cloud)[0]) == 0
    params = RegistrationParams()
    with pytest.raises(InsufficientCorrespondencesError):
        estimate_pose(cloud, cloud, params, 0, prepare_cloud(cloud, params))
    for line in (0, 1):  # one profile, one column
        one_line = cloud.select(np.argwhere(cloud.hits)[:, line] == 3)
        with pytest.raises(DegenerateFeatureError, match="pitch"):
            prepare_cloud(one_line, params)


