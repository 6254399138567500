import numpy as np
import pytest

import insertsim.insertion as insertion_module
from insertsim.arm import model as model_module
from insertsim.arm import ArmInstance, ArmModel, JointConfig, ProprioceptionError
from insertsim.arm.ik import UnreachableTargetError
from insertsim.geom import Pose, quat_conjugate, quat_distance, quat_multiply, quat_normalize
from insertsim.insertion import (
    DegenerateApproachError,
    InsertedObject,
    InsertionTarget,
    check_insertion,
    execute_insertion,
    plan_relative_trajectory,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
HOME = JointConfig(np.array([0.0, -0.5, 0.0, -2.0, 0.0, 1.6, 0.8]))


def random_pose(rng):
    q = rng.normal(size=4)
    return Pose(rng.normal(scale=0.4, size=3), q / np.linalg.norm(q))


# -- trajectory planning -------------------------------------------------------

def test_degenerate_correction_all_waypoints_identical():
    p = Pose(np.array([0.1, 0.2, 0.3]), quat_normalize(np.array([0.9, 0.1, 0.2, 0.1])))
    waypoints = plan_relative_trajectory(p, p, horizon=20, duration=1.0)
    assert len(waypoints) == 20
    for wp in waypoints:
        np.testing.assert_array_equal(wp.position, p.position)
        assert quat_distance(wp.orientation, p.orientation) < 1e-12


def test_pure_translation_monotone_and_bounded_steps():
    start = Pose(np.zeros(3), IDENTITY_Q)
    end = Pose(np.array([0.0, 0.0, 300e-6]), IDENTITY_Q)
    waypoints = plan_relative_trajectory(start, end, horizon=50, duration=2.0)
    z = np.array([wp.position[2] for wp in waypoints])
    assert np.all(np.diff(z) >= 0)
    assert z[0] == 0.0 and z[-1] == 300e-6
    assert np.max(np.diff(z)) < 2 * (300e-6 / 49)


def test_endpoint_exactness_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = random_pose(rng), random_pose(rng)
        waypoints = plan_relative_trajectory(a, b, horizon=7, duration=0.5)
        assert np.max(np.abs(waypoints[0].position - a.position)) <= 1e-15
        assert np.max(np.abs(waypoints[-1].position - b.position)) <= 1e-15
        assert np.max(np.abs(waypoints[0].orientation - a.orientation)) <= 1e-12
        assert np.max(np.abs(waypoints[-1].orientation - b.orientation)) <= 1e-12


def test_offsets_compose_to_total_correction(monkeypatch, noise_free_arm):
    """The last target that execute_insertion hands to IK is the arm's
    believed pose moved by the whole planned correction."""
    carried = []

    def recording_ik(model, target, bias_config, start):
        carried.append(target)
        return HOME

    monkeypatch.setattr(insertion_module, "ik", recording_ik)
    arm = ArmInstance(ArmModel.panda(), ProprioceptionError(np.zeros(7), 0), HOME)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        waypoints = plan_relative_trajectory(a, b, horizon=50, duration=2.0)
        here = arm.reported
        carried.clear()
        execute_insertion(arm, waypoints, ic_bias=HOME)
        assert len(carried) == 49
        dq_total = quat_normalize(quat_multiply(b.orientation, quat_conjugate(a.orientation)))
        np.testing.assert_allclose(carried[-1].position, here.position + b.position - a.position,
                                   atol=1e-12)
        dq = quat_normalize(quat_multiply(carried[-1].orientation, quat_conjugate(here.orientation)))
        # component distance; geodesic distance hits the arccos precision floor
        assert min(np.max(np.abs(dq - dq_total)), np.max(np.abs(dq + dq_total))) < 1e-12


def test_spline_second_differences_have_no_spikes():
    rng = np.random.default_rng(3)
    a, b = random_pose(rng), random_pose(rng)
    waypoints = plan_relative_trajectory(a, b, horizon=80, duration=2.0)
    pos = np.array([wp.position for wp in waypoints])
    second = np.linalg.norm(np.diff(pos, n=2, axis=0), axis=1)
    assert np.max(second) <= 10 * np.median(second)


# -- execution through the arm ---------------------------------------------------

def test_zero_offset_trajectory_keeps_pose(noise_free_arm):
    model = ArmModel.panda()
    arm = ArmInstance(model, ProprioceptionError(np.zeros(7), 0), HOME)
    start_actual = arm.actual
    here = arm.reported
    waypoints = plan_relative_trajectory(here, here, horizon=10, duration=1.0)
    final, path = execute_insertion(arm, waypoints, ic_bias=HOME)
    assert len(path) == 9
    assert np.linalg.norm(final.position - start_actual.position) < 1e-7


class TwoArgumentError(RuntimeError):
    def __init__(self, joint, residual):
        super().__init__(f"joint {joint}: residual {residual}")
        self.joint = joint
        self.residual = residual


def test_execute_insertion_propagates_other_errors_unchanged(monkeypatch, noise_free_arm):
    raised = TwoArgumentError(3, 1e-4)

    def failing_ik(*args, **kwargs):
        raise raised

    monkeypatch.setattr(insertion_module, "ik", failing_ik)
    arm = ArmInstance(ArmModel.panda(), ProprioceptionError(np.zeros(7), 0), HOME)
    waypoints = plan_relative_trajectory(arm.reported, arm.reported, horizon=5, duration=1.0)
    with pytest.raises(TwoArgumentError) as err:
        execute_insertion(arm, waypoints, ic_bias=HOME)
    assert err.value is raised
    assert (err.value.joint, err.value.residual) == (3, 1e-4)


def test_unreachable_waypoint_is_named(monkeypatch, noise_free_arm):
    calls = []

    def ik_failing_at_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise UnreachableTargetError("no convergence")
        return HOME

    monkeypatch.setattr(insertion_module, "ik", ik_failing_at_third)
    arm = ArmInstance(ArmModel.panda(), ProprioceptionError(np.zeros(7), 0), HOME)
    waypoints = plan_relative_trajectory(arm.reported, arm.reported, horizon=5, duration=1.0)
    with pytest.raises(UnreachableTargetError, match=r"waypoint 3/4: no convergence") as err:
        execute_insertion(arm, waypoints, ic_bias=HOME)
    assert isinstance(err.value.__cause__, UnreachableTargetError)


def test_small_relative_correction_accrues_little_bias_error(noise_free_arm):
    # bias-only model: isolates the low-amplitude-correction claim from
    # repeatability noise, which is drawn fresh on every motion anyway
    model = ArmModel.panda()
    hits = 0
    for seed in range(100):
        arm = ArmInstance(model, ProprioceptionError.draw(seed), HOME)
        intended = Pose(arm.actual.position + np.array([0, 0, 1e-3]), arm.actual.orientation)
        target_rep = Pose(arm.reported.position + np.array([0, 0, 1e-3]), arm.reported.orientation)
        waypoints = plan_relative_trajectory(arm.reported, target_rep, horizon=25, duration=1.0)
        final, _ = execute_insertion(arm, waypoints, ic_bias=HOME)
        if np.linalg.norm(final.position - intended.position) < 50e-6:
            hits += 1
    assert hits >= 95


def test_large_absolute_move_is_worse_than_relative(noise_free_arm):
    """Bias-only arms, as above."""
    model = ArmModel.panda()
    far_start = JointConfig(HOME.angles + np.array([0.6, 0.15, -0.3, 0.2, 0.4, -0.25, 0.3]))
    from insertsim.arm import ik
    worse = 0
    for seed in range(100):
        arm = ArmInstance(model, ProprioceptionError.draw(seed), HOME)
        intended = Pose(arm.actual.position + np.array([0, 0, 1e-3]), arm.actual.orientation)
        target_rep = Pose(arm.reported.position + np.array([0, 0, 1e-3]), arm.reported.orientation)
        waypoints = plan_relative_trajectory(arm.reported, target_rep, horizon=25, duration=1.0)
        final_rel, _ = execute_insertion(arm, waypoints, ic_bias=HOME)
        err_rel = np.linalg.norm(final_rel.position - intended.position)

        arm2 = ArmInstance(model, ProprioceptionError.draw(seed), far_start)
        q_abs = ik(model, target_rep, bias_config=far_start, start=far_start)
        _, final_abs = arm2.move_to(q_abs)
        err_abs = np.linalg.norm(final_abs.position - intended.position)
        if err_abs > err_rel:
            worse += 1
    assert worse >= 90


# -- insertion check -------------------------------------------------------------

NEEDLE = dict(
    hole_center=np.zeros(3),
    hole_axis=np.array([0.0, 0.0, 1.0]),
    hole_semi_axes=(150e-6, 175e-6),
    major_dir=np.array([1.0, 0.0, 0.0]),
)


def test_centered_aligned_tip_succeeds_with_minor_axis_margin():
    target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([0.0, 0.0, 1e-3]), np.array([0.0, 0.0, -1.0]), 75e-6)
    ok, margin = check_insertion(obj, target)
    assert ok
    assert margin == pytest.approx(75e-6, abs=1e-12)


def test_offset_tip_fails_with_negative_margin():
    target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([200e-6, 0.0, 1e-3]), np.array([0.0, 0.0, -1.0]), 75e-6)
    ok, margin = check_insertion(obj, target)
    assert not ok
    assert margin == pytest.approx(-125e-6, abs=1e-12)


def test_boundary_tip_fails_strict_interior():
    target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([150e-6, 0.0, 1e-3]), np.array([0.0, 0.0, -1.0]), 0.0)
    ok, margin = check_insertion(obj, target)
    assert not ok
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_tilted_tip_beyond_cone_fails():
    target = InsertionTarget(**NEEDLE)
    tilt = np.deg2rad(35)
    direction = np.array([np.sin(tilt), 0.0, -np.cos(tilt)])
    obj = InsertedObject(np.zeros(3), direction, 10e-6)
    ok, _ = check_insertion(obj, target)
    assert not ok


def test_parallel_ray_degenerate():
    target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([0.0, 0.0, 1e-3]), np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(DegenerateApproachError):
        check_insertion(obj, target)


def test_oversized_tip_always_fails():
    target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([0.0, 0.0, 1e-3]), np.array([0.0, 0.0, -1.0]), 200e-6)
    ok, margin = check_insertion(obj, target)
    assert not ok and margin < 0


def test_check_invariant_under_rigid_transforms():
    rng = np.random.default_rng(4)
    base_target = InsertionTarget(**NEEDLE)
    obj = InsertedObject(np.array([40e-6, -20e-6, 1e-3]),
                         np.array([0.05, -0.02, -1.0]) / np.linalg.norm([0.05, -0.02, -1.0]),
                         75e-6)
    _, margin0 = check_insertion(obj, base_target)
    for _ in range(20):
        T = random_pose(rng)
        R = T.rotation_matrix()
        moved_target = InsertionTarget(
            hole_center=T.transform_point(base_target.hole_center),
            hole_axis=R @ base_target.hole_axis,
            hole_semi_axes=base_target.hole_semi_axes,
            major_dir=R @ base_target.major_dir,
        )
        moved_obj = InsertedObject(
            T.transform_point(obj.tip_position), R @ obj.tip_direction, obj.tip_radius
        )
        _, margin = check_insertion(moved_obj, moved_target)
        assert margin == pytest.approx(margin0, abs=1e-12)


def panda_with(table: str, row: int, col: int, value: float) -> ArmModel:
    """The Panda model with one entry of its DH table or joint limits set to `value`."""
    tables = {"dh": np.array(model_module.PANDA_DH), "limits": np.array(model_module.PANDA_LIMITS)}
    tables[table][row, col] = value
    return ArmModel(tables["dh"], tables["limits"])


NON_FINITE = {  # name -> construction that must raise ValueError
    "target_axis_and_semi_axis_nan": lambda: InsertionTarget(
        **{**NEEDLE, "hole_axis": np.array([np.nan, 0.0, 0.0]), "hole_semi_axes": (1e-4, np.nan)}),
    "target_axis_nan": lambda: InsertionTarget(**{**NEEDLE, "hole_axis": np.array([0.0, np.nan, 1.0])}),
    "target_semi_axis_nan": lambda: InsertionTarget(**{**NEEDLE, "hole_semi_axes": (1e-4, np.nan)}),
    "target_semi_axis_inf": lambda: InsertionTarget(**{**NEEDLE, "hole_semi_axes": (np.inf, 1e-4)}),
    "target_center_inf": lambda: InsertionTarget(**{**NEEDLE, "hole_center": np.array([np.inf, 0.0, 0.0])}),
    "target_major_dir_nan": lambda: InsertionTarget(**{**NEEDLE, "major_dir": np.array([np.nan, 0.0, 0.0])}),
    "object_direction_nan": lambda: InsertedObject(np.zeros(3), np.array([0.0, 0.0, np.nan]), np.nan),
    "object_radius_nan": lambda: InsertedObject(np.zeros(3), np.array([0.0, 0.0, -1.0]), np.nan),
    "object_radius_inf": lambda: InsertedObject(np.zeros(3), np.array([0.0, 0.0, -1.0]), np.inf),
    "object_position_nan": lambda: InsertedObject(np.array([np.nan, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]), 0.0),
    "proprioception_bias_nan": lambda: ProprioceptionError(np.full(7, np.nan), 1),
    "arm_limit_nan": lambda: panda_with("limits", 2, 1, np.nan),
    "arm_limit_inf": lambda: panda_with("limits", 0, 0, -np.inf),
    "arm_dh_nan": lambda: panda_with("dh", 3, 0, np.nan),
    "arm_dh_inf": lambda: panda_with("dh", 6, 1, np.inf),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_constructors_reject_nan_and_inf(case):
    with pytest.raises(ValueError):
        NON_FINITE[case]()


@pytest.mark.parametrize("horizon, duration, named", [
    (5, np.nan, "duration"), (5, np.inf, "duration"), (5, 0.0, "duration"),
    (2.5, 1.0, "horizon"), (5.0, 1.0, "horizon"), (True, 1.0, "horizon"), (1, 1.0, "horizon"),
])
def test_planner_names_the_bad_argument(horizon, duration, named):
    p = Pose.identity()
    with pytest.raises(ValueError, match=named):
        plan_relative_trajectory(p, p, horizon=horizon, duration=duration)
