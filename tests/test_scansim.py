import numpy as np
import pytest

from insertsim.geom import PointCloud, Pose, quat_from_axis_angle
from insertsim.scansim import (
    Box,
    CalibrationError,
    HolePlate,
    Scene,
    ScenePart,
    ScannerConfig,
    linear_sweep,
    sweep_scan,
)
from insertsim.scansim import scanner as scanner_module

DOWN = Pose.from_axis_angle(np.array([0.0, 0.0, 0.02]), [1, 0, 0], np.pi)  # sensor +z -> world -z
SWEEP_STEP = 25e-6  # profile spacing of the test sweeps


def plane_scene(top_z: float = 0.0) -> Scene:
    plate = Box(half_extents=(0.5, 0.5, 0.001))
    pose = Pose(np.array([0.0, 0.0, top_z - 0.001]), np.array([1.0, 0.0, 0.0, 0.0]))
    return Scene([ScenePart("plate", plate, pose)])


def small_cfg(**kw) -> ScannerConfig:
    defaults = dict(points_per_profile=64)
    defaults.update(kw)
    return ScannerConfig(**defaults)


def snapped_columns(n: int, span: float, resolution: float) -> np.ndarray:
    """Columns spread evenly over `span`, snapped to the centres of a
    `resolution` grid, duplicates dropped: the rule the benchmark's scans
    were first made with, when every scanner spanned 2048 * 12 um."""
    snapped = (np.floor((np.arange(n) + 0.5 - n / 2.0) * (span / n) / resolution) + 0.5) * resolution
    return snapped[np.r_[True, np.diff(snapped) > 0]]


def test_lateral_positions_default_grid():
    # the benchmark's dense and sparse scanners and its test scanner: n columns
    # centred on the laser line, bit-equal to the snapped rule over 2048 * 12 um
    for n, resolution in ((2048, 12e-6), (512, 48e-6), (256, 96e-6)):
        x = ScannerConfig(points_per_profile=n, lateral_resolution=resolution).lateral_positions()
        assert x.tobytes() == snapped_columns(n, 2048 * 12e-6, resolution).tobytes()
        assert x.tobytes() == (-x[::-1]).tobytes()
        np.testing.assert_allclose(np.diff(x), resolution, rtol=1e-9)
        assert x[-1] - x[0] == pytest.approx((n - 1) * resolution, rel=1e-12)


def test_flat_plate_zero_noise_constant_depth(noise_free_scans):
    cfg = small_cfg()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 5)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=1)
    assert len(cloud) == 5 * 64
    assert np.ptp(cloud.points[:, 2]) < 1e-12


def test_full_hit_sweep_point_count_is_profiles_times_2048(noise_free_scans):
    cfg = ScannerConfig()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 10)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=2)
    assert len(cloud) == 10 * 2048


def test_depth_noise_std_matches_configuration():
    assert scanner_module.DEPTH_NOISE_STD == 1.5e-6
    cfg = ScannerConfig()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 10)
    cloud = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=3)
    assert len(cloud) == 20480
    residuals = cloud.points[:, 2]  # true plane is z = 0
    assert 1.3e-6 <= residuals.std() <= 1.7e-6


def test_sweep_deterministic_under_seed():
    cfg = small_cfg()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 8)
    a = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=7)
    b = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=7)
    np.testing.assert_array_equal(a.points, b.points)
    d = sweep_scan(plane_scene(), traj, cfg, CalibrationError.none(), seed=8)
    assert not np.array_equal(a.points, d.points)


def reference_sweep_scan(scene: Scene, trajectory, cfg: ScannerConfig,
                         cal: CalibrationError, seed: int) -> PointCloud:
    """Per-profile loop: one Scene.cast and one sensor-to-base map per profile,
    with one noise stream drawn in profile order."""
    lateral = cfg.lateral_positions()
    n = len(lateral)
    pts, hits = [np.zeros((0, 3))], np.zeros((len(trajectory), n), dtype=bool)
    Rc = cal.mount_offset.rotation_matrix()
    rng = np.random.default_rng(seed)
    for k, assumed in enumerate(trajectory):
        Ra = assumed.rotation_matrix()
        R = Rc @ Ra  # true = offset ∘ assumed
        origins_local = np.zeros((n, 3))
        origins_local[:, 0] = lateral
        t = Rc @ assumed.position + cal.mount_offset.position
        depth = scene.cast(origins_local @ R.T + t, np.tile(R[:, 2], (n, 1)))
        mask = hits[k] = np.isfinite(depth)
        s = depth[mask] + rng.normal(scale=scanner_module.DEPTH_NOISE_STD, size=mask.sum())
        pts.append(lateral[mask, None] * Ra[:, 0] + s[:, None] * Ra[:, 2] + assumed.position)
    return PointCloud(np.vstack(pts), hits)


def assert_same_sweep(got: PointCloud, want: PointCloud):
    for a, b in ((got.points, want.points), (got.hits, want.hits)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


HOLE_PLATE = HolePlate((3e-3, 3e-3), 1e-3, (5e-4, 6e-4), hole_center=(8e-4, 3e-4))
ROTATED_CAL = CalibrationError(Pose.from_axis_angle(np.array([6e-5, -8e-5, 2e-5]),
                                                    [0.3, -0.5, 0.8], 2e-3))


def hole_plate_scene() -> Scene:
    tilted = Pose.from_axis_angle(np.array([1e-4, 2e-4, -5e-4]), [0.1, 0.2, 1.0], 0.05)
    return Scene([ScenePart("plate", HOLE_PLATE, tilted)])


def plate_and_bump_scene() -> Scene:
    plate = ScenePart("plate", Box((0.05, 0.05, 0.001)), Pose(np.array([0.0, 0.0, -0.001]), np.array([1.0, 0, 0, 0])))
    bump = ScenePart("bump", Box((0.0005, 0.0005, 0.002)), Pose(np.array([0.0, 0.0, 0.001]), np.array([1.0, 0, 0, 0])))
    return Scene([plate, bump])


def wobbling_sweep(count: int) -> list[Pose]:
    """Sweep whose orientation changes from one pose to the next."""
    start = Pose(DOWN.position - np.array([0.0, 5e-4, 0.0]), DOWN.orientation)
    return [Pose(p.position, quat_from_axis_angle([1.0, 0.2 * np.sin(k), 0.1], np.pi + 0.01 * k))
            for k, p in enumerate(linear_sweep(start, [0, 1, 0], 25e-6, count))]


def wide_cfg() -> ScannerConfig:
    return small_cfg(points_per_profile=256)


FAR_BOX = Scene([ScenePart("far", Box((0.01, 0.01, 0.01)), Pose(np.array([5.0, 5.0, 5.0]), np.array([1.0, 0, 0, 0])))])


def boxes_at(*centers_and_half_extents) -> Scene:
    """Unrotated boxes, one part per (centre, half extents)."""
    return Scene([ScenePart(f"box{i}", Box(h), Pose(np.array(c, dtype=float), np.array([1.0, 0, 0, 0])))
                  for i, (c, h) in enumerate(centers_and_half_extents)])


# with DOWN, sensor x is base x: column 40's ray runs down the +x side, column 23's down the -x side
SIDE_ON_A_COLUMN = boxes_at(((0.0, 0.0, -1e-3), (small_cfg().lateral_positions()[40], 1e-3, 1e-3)))
# the -y face lies in the laser plane of profile 15 (y = 0), which tilts by ~1e-16 away from the box
FACE_IN_THE_LASER_PLANE = boxes_at(((0.0, 1e-4, -1e-3), (2e-4, 1e-4, 1e-3)))
# a pillar around the sensor (z = 0.02) and a box wholly behind it
BEHIND_THE_SENSOR = boxes_at(((2e-4, 0.0, 0.01), (1e-4, 1e-3, 0.015)),
                             ((-2e-4, 0.0, 0.035), (1e-4, 1e-3, 5e-3)))
# two narrow parts at opposite ends of the line, with unhit columns between them
TWO_WINDOWS = boxes_at(((-2.5e-4, 0.0, -1e-3), (5e-5, 1e-3, 1e-3)), ((2.5e-4, 0.0, -1e-3), (5e-5, 1e-3, 1e-3)))
SWEEP_CASES = {  # name -> (scene, trajectory, config, calibration)
    "varying_orientation": lambda: (hole_plate_scene(), wobbling_sweep(40), wide_cfg(), CalibrationError.none()),
    "rotated_calibration": lambda: (hole_plate_scene(), wobbling_sweep(40), wide_cfg(), ROTATED_CAL),
    "noise_off": lambda: (hole_plate_scene(), wobbling_sweep(40), wide_cfg(), ROTATED_CAL),
    "plate_and_bump": lambda: (plate_and_bump_scene(), linear_sweep(DOWN, [0, 1, 0], 2e-4, 12), small_cfg(),
                               ROTATED_CAL),
    "all_miss": lambda: (FAR_BOX, linear_sweep(DOWN, [0, 1, 0], 25e-6, 6), small_cfg(), ROTATED_CAL),
    "side_on_a_column": lambda: (SIDE_ON_A_COLUMN, linear_sweep(DOWN, [0, 1, 0], 25e-6, 6), small_cfg(),
                                 CalibrationError.none()),
    # 16 profiles per chunk: profile 15, the last of the first chunk, is the only one there that sees the part
    "face_in_the_laser_plane": lambda: (FACE_IN_THE_LASER_PLANE,
                                        linear_sweep(Pose(DOWN.position - [0.0, 15 * 25e-6, 0.0], DOWN.orientation),
                                                     [0, 1, 0], 25e-6, 18),
                                        ScannerConfig(), CalibrationError.none()),
    "behind_the_sensor": lambda: (BEHIND_THE_SENSOR, linear_sweep(DOWN, [0, 1, 0], 25e-6, 8), small_cfg(),
                                  ROTATED_CAL),
    "two_windows_in_one_chunk": lambda: (TWO_WINDOWS, linear_sweep(DOWN, [0, 1, 0], 25e-6, 8), small_cfg(),
                                         ROTATED_CAL),
    # 2048 rays per profile: 40 profiles fill two whole chunks and part of a third
    "several_chunks": lambda: (hole_plate_scene(), wobbling_sweep(40), ScannerConfig(), ROTATED_CAL),
}


def sweep_case(case: str, request) -> tuple:
    """The case's (scene, trajectory, config, calibration); "noise_off" scans without depth noise."""
    if case == "noise_off":
        request.getfixturevalue("noise_free_scans")
    return SWEEP_CASES[case]()


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_per_profile_reference(case, request):
    scene, traj, cfg, cal = sweep_case(case, request)
    if case == "several_chunks":
        per_chunk = scanner_module._CHUNK_RAYS // len(cfg.lateral_positions())
        assert 2 * per_chunk < len(traj) < 3 * per_chunk
    got = sweep_scan(scene, traj, cfg, cal, seed=611)
    want = reference_sweep_scan(scene, traj, cfg, cal, seed=611)
    if case == "all_miss":
        assert len(want) == 0
    else:
        assert np.count_nonzero(want.hits.any(axis=1)) > 1
    assert_same_sweep(got, want)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_raster_matches_per_profile_reference(case, request):
    """The hit mask is True at each ray's profile and detector column where
    it hit, and its shape is (profiles, detector columns), misses included."""
    scene, traj, cfg, cal = sweep_case(case, request)
    cloud = sweep_scan(scene, traj, cfg, cal, seed=611)
    want = reference_sweep_scan(scene, traj, cfg, cal, seed=611).hits
    assert cloud.hits.dtype == want.dtype == bool
    np.testing.assert_array_equal(cloud.hits, want)
    assert cloud.hits.shape == (len(traj), len(cfg.lateral_positions()))


def test_sweep_with_chunks_narrower_than_a_profile(monkeypatch):
    monkeypatch.setattr(scanner_module, "_CHUNK_RAYS", 100)  # each chunk holds one profile
    scene, traj, cfg, cal = SWEEP_CASES["rotated_calibration"]()
    assert_same_sweep(sweep_scan(scene, traj, cfg, cal, seed=3),
                      reference_sweep_scan(scene, traj, cfg, cal, seed=3))


def test_sweep_casts_only_the_columns_a_plate_can_reach(monkeypatch):
    """A plate under a quarter of the line is handed under 30% of the rays."""
    scene = boxes_at(((0.0, 0.0, -1e-3), (3e-3, 0.01, 1e-3)))
    cfg = ScannerConfig()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 20)
    cast, rays = scene.cast, []
    monkeypatch.setattr(scene, "cast", lambda o, d: rays.append(len(o)) or cast(o, d))
    got = sweep_scan(scene, traj, cfg, ROTATED_CAL, seed=5)
    all_rays = len(traj) * len(cfg.lateral_positions())
    assert 0.2 * all_rays < len(got) and sum(rays) <= 0.3 * all_rays
    assert_same_sweep(got, reference_sweep_scan(scene, traj, cfg, ROTATED_CAL, seed=5))


BAD_SWEEPS = {  # name -> (linear_sweep arguments that differ from a good sweep, argument named)
    "zero_direction": (dict(direction=[0.0, 0.0, 0.0]), "direction"),
    "nan_direction": (dict(direction=[0.0, np.nan, 0.0]), "direction"),
    "two_component_direction": (dict(direction=[0.0, 1.0]), "direction"),
    "nan_step": (dict(step=np.nan, count=1), "step"),
    "inf_step": (dict(step=np.inf), "step"),
    "zero_count": (dict(count=0), "count"),
    "negative_count": (dict(count=-2), "count"),
    "fractional_count": (dict(count=2.5), "count"),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_linear_sweep_rejects_bad_arguments(case):
    changed, argument = BAD_SWEEPS[case]
    with pytest.raises(ValueError, match=argument):
        linear_sweep(**(dict(start=DOWN, direction=[0, 1, 0], step=SWEEP_STEP, count=3) | changed))


def test_empty_trajectory_rejected():
    with pytest.raises(ValueError):
        sweep_scan(plane_scene(), [], small_cfg(), CalibrationError.none(), seed=0)


def test_all_misses_give_empty_cloud(noise_free_scans):
    scene = Scene([ScenePart("far", Box((0.01, 0.01, 0.01)), Pose(np.array([5.0, 5.0, 5.0]), np.array([1.0, 0, 0, 0])))])
    cfg = small_cfg()
    cloud = sweep_scan(scene, [DOWN], cfg, CalibrationError.none(), seed=0)
    assert len(cloud) == 0
    assert cloud.hits.shape == (1, len(cfg.lateral_positions()))


def test_calibration_offset_relates_clouds_by_the_offset(noise_free_scans):
    cfg = small_cfg()
    traj = linear_sweep(DOWN, [0, 1, 0], SWEEP_STEP, 6)
    offset = Pose.from_axis_angle(np.array([5e-4, -2e-4, 3e-4]), [0.2, 1.0, -0.3], np.deg2rad(0.5))
    scene = plane_scene()
    clean = sweep_scan(scene, traj, cfg, CalibrationError.none(), seed=4)
    skewed = sweep_scan(scene, traj, cfg, CalibrationError(offset), seed=4)
    # the skewed cloud, moved by the offset, must land back on the true surface
    restored = offset.transform_points(skewed.points)
    assert np.max(np.abs(restored[:, 2])) < 1e-9
    assert np.max(np.abs(clean.points[:, 2])) < 1e-9
    # and a pure-translation offset shifts the reported plane by exactly -dz
    t_only = Pose(np.array([0.0, 0.0, 1e-3]), np.array([1.0, 0, 0, 0]))
    shifted = sweep_scan(scene, traj, cfg, CalibrationError(t_only), seed=4)
    np.testing.assert_allclose(shifted.points[:, 2], -1e-3, atol=1e-12)


def test_scene_rejects_duplicate_ids():
    part = ScenePart("p", Box((1, 1, 1)), Pose.identity())
    with pytest.raises(ValueError):
        Scene([part, ScenePart("p", Box((1, 1, 1)), Pose.identity())])


def test_hole_plate_rays_through_hole_miss_top_face(noise_free_scans):
    plate = HolePlate((0.005, 0.005), 0.001, (150e-6, 175e-6), hole_center=(0.0, 0.0))
    scene = Scene([ScenePart("plate", plate, Pose(np.array([0.0, 0.0, -0.0005]), np.array([1.0, 0, 0, 0])))])
    cfg = small_cfg(points_per_profile=256)
    traj = linear_sweep(DOWN, [0, 1, 0], 25e-6, 16)  # 400 um band across the hole
    start = Pose(DOWN.position - np.array([0.0, 2e-4, 0.0]), DOWN.orientation)
    traj = linear_sweep(start, [0, 1, 0], 25e-6, 16)
    cloud = sweep_scan(scene, traj, cfg, CalibrationError.none(), seed=0)
    # vertical rays through the elliptical opening pass clean through the plate
    assert len(cloud) < 256 * 16
    assert np.all(cloud.points[:, 2] <= 1e-12)


def test_hole_plate_matches_box_off_the_hole():
    plate = HOLE_PLATE
    box = Box((plate.hx, plate.hy, plate.half_thickness))
    rng = np.random.default_rng(8)
    origins = rng.uniform(-4e-3, 4e-3, size=(4000, 3))
    dirs = rng.normal(size=(4000, 3))
    dirs[:1000] = [0.0, 0.0, -1.0]  # scanner-like rays onto the top face
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # keep rays whose xy line stays outside the hole's bounding circle
    rel = origins[:, :2] - [plate.cx, plate.cy]
    dxy = dirs[:, :2]
    along = np.einsum("ij,ij->i", rel, dxy) / np.maximum(np.einsum("ij,ij->i", dxy, dxy), 1e-300)
    closest = rel - along[:, None] * dxy
    off_hole = np.linalg.norm(closest, axis=1) > 1.01 * max(plate.a, plate.b)
    hp = plate.ray_intersect(origins[off_hole], dirs[off_hole])
    hb = box.ray_intersect(origins[off_hole], dirs[off_hole])
    assert np.isfinite(hb).sum() > 500
    np.testing.assert_array_equal(hp, hb)


@pytest.mark.parametrize("center", [(8e-4, 0.0), (-5e-4, 0.0), (0.0, 6.5e-4), (0.0, -7e-4)])
def test_hole_plate_rejects_a_hole_reaching_a_side(center):
    """The hole wall would report hits beyond the plate's side, where the side face
    stays solid; a hole touching or crossing a side is refused."""
    with pytest.raises(ValueError, match="fit inside"):
        HolePlate((1e-3, 1e-3), 1e-3, (5e-4, 4e-4), hole_center=center)
    HolePlate((1e-3, 1e-3), 1e-3, (5e-4, 4e-4), hole_center=(4.9e-4, 5.9e-4))


INVALID_PARTS = {  # name -> construction that must raise ValueError
    "scanner_resolution_nan": lambda: ScannerConfig(lateral_resolution=np.nan),
    "scanner_resolution_inf": lambda: ScannerConfig(lateral_resolution=np.inf),
    "scanner_points_fractional": lambda: ScannerConfig(points_per_profile=64.5),
    "scanner_points_float": lambda: ScannerConfig(points_per_profile=64.0),
    "box_nan": lambda: Box((np.nan, 1.0, 1.0)),
    "box_inf": lambda: Box((1.0, np.inf, 1.0)),
    "plate_size_nan": lambda: HolePlate((np.nan, 1e-3), 1e-3, (1e-4, 1e-4), (0.0, 0.0)),
    "plate_thickness_inf": lambda: HolePlate((1e-3, 1e-3), np.inf, (1e-4, 1e-4), (0.0, 0.0)),
    "plate_axis_nan": lambda: HolePlate((1e-3, 1e-3), 1e-3, (np.nan, 1e-4), (0.0, 0.0)),
    "plate_center_nan": lambda: HolePlate((1e-3, 1e-3), 1e-3, (1e-4, 1e-4), hole_center=(np.nan, 0.0)),
}


@pytest.mark.parametrize("case", sorted(INVALID_PARTS))
def test_scansim_rejects_non_finite_and_non_integer_sizes(case):
    with pytest.raises(ValueError):
        INVALID_PARTS[case]()


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def bounds_ray_sets(lo: np.ndarray, hi: np.ndarray, rng) -> dict:
    """Local-frame rays (origins, directions) placed on the features of the box [lo, hi]."""
    size = hi - lo
    corners = np.array([[(lo, hi)[(k >> a) & 1][a] for a in range(3)] for k in range(8)])
    sets = {}
    # parallel to a face of the bounds and lying in its plane
    o, d = [], []
    for axis in range(3):
        for side in (lo, hi):
            pts = rng.uniform(lo - 0.2 * size, hi + 0.2 * size, size=(60, 3))
            pts[:, axis] = side[axis]
            dirs = rng.normal(size=(60, 3))
            dirs[:, axis] = 0.0
            dirs[:20] = np.roll(np.eye(3)[axis], 1)   # along an edge direction too
            o.append(pts)
            d.append(unit(dirs))
    sets["in_face_plane"] = (np.vstack(o), np.vstack(d))
    sets["inside"] = (rng.uniform(lo, hi, size=(400, 3)), unit(rng.normal(size=(400, 3))))
    # aimed at the corners and at points on the edges, nudged by a few ulps to a few nm
    targets = np.vstack([corners,
                         corners[rng.integers(0, 8, 200)] * (1 + rng.choice([-1, 1], (200, 3)) * 1e-15),
                         corners[rng.integers(0, 8, 200)] + rng.normal(scale=1e-9, size=(200, 3))])
    edge = corners[rng.integers(0, 8, 200)]
    axis = rng.integers(0, 3, 200)
    edge[np.arange(200), axis] = rng.uniform(lo[axis], hi[axis])
    targets = np.vstack([targets, edge])
    dirs = unit(rng.normal(size=(len(targets), 3)))
    sets["grazing_edges_and_corners"] = (targets - dirs * 3 * size.max(), dirs)
    # outside the bounds, pointing away from them
    centre = (lo + hi) / 2
    out = centre + unit(rng.normal(size=(300, 3))) * size.max() * rng.uniform(1.0, 4.0, (300, 1))
    sets["pointing_away"] = (out, unit(out - centre + rng.normal(scale=0.1 * size.max(), size=(300, 3))))
    # every ray passes beside the bounds, parallel to one side
    beside = rng.uniform(lo, hi, size=(300, 3))
    beside[:, 0] = hi[0] + rng.uniform(0.01, 2.0, 300) * size[0]
    sets["all_miss"] = (beside, unit(rng.normal(size=(300, 3)) * [0.0, 1.0, 1.0]))
    return sets


BOUNDED_SURFACES = {
    "box": Box((1e-3, 2e-3, 5e-4)),
    "hole_plate": HOLE_PLATE,
}


@pytest.mark.parametrize("name", sorted(BOUNDED_SURFACES))
def test_hits_lie_inside_the_padded_bounds(name):
    """The scanner's column window relies on this: a surface reports hits only
    inside its bounds, padded as the window pads them."""
    surface = BOUNDED_SURFACES[name]
    lo, hi = surface.bounds
    for case, (o, d) in bounds_ray_sets(lo, hi, np.random.default_rng(17)).items():
        t = surface.ray_intersect(o, d)
        hit = np.isfinite(t)
        if case in ("in_face_plane", "inside", "grazing_edges_and_corners"):
            assert hit.any(), case
        if case in ("pointing_away", "all_miss"):
            assert not hit.any(), case
        pts = o[hit] + t[hit, None] * d[hit]
        pad = scanner_module._WINDOW_PAD * (np.abs(o).max() + np.abs(surface.bounds).max())
        assert np.all((lo - pad <= pts) & (pts <= hi + pad)), case
