import csv

import numpy as np
import pytest

import insertsim.insertion as insertion_module
from insertsim.arm import ArmInstance, ArmModel, IkSettings, JointConfig, ProprioceptionError, fk
from insertsim.arm.ik import UnreachableTargetError
from insertsim.geom import Pose, pose_compose, quat_distance, quat_multiply, quat_normalize
from insertsim.insertion import (
    DegenerateApproachError,
    InsertedObject,
    InsertionTarget,
    Trajectory,
    check_insertion,
    execute_insertion,
    plan_relative_trajectory,
    write_trajectory_csv,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
HOME = JointConfig(np.array([0.0, -0.5, 0.0, -2.0, 0.0, 1.6, 0.8]))


def random_pose(rng):
    q = rng.normal(size=4)
    return Pose(rng.normal(scale=0.4, size=3), q / np.linalg.norm(q))


# -- trajectory planning -------------------------------------------------------

def test_degenerate_correction_all_waypoints_identical():
    p = Pose(np.array([0.1, 0.2, 0.3]), quat_normalize(np.array([0.9, 0.1, 0.2, 0.1])))
    traj = plan_relative_trajectory(p, p, horizon=20, duration=1.0)
    for wp in traj.waypoints:
        np.testing.assert_array_equal(wp.position, p.position)
    for dx, dq in traj.offsets():
        np.testing.assert_array_equal(dx, np.zeros(3))
        assert quat_distance(dq, IDENTITY_Q) < 1e-12


def test_pure_translation_monotone_and_bounded_steps():
    start = Pose(np.zeros(3), IDENTITY_Q)
    end = Pose(np.array([0.0, 0.0, 300e-6]), IDENTITY_Q)
    traj = plan_relative_trajectory(start, end, horizon=50, duration=2.0)
    z = np.array([wp.position[2] for wp in traj.waypoints])
    assert np.all(np.diff(z) >= 0)
    assert z[0] == 0.0 and z[-1] == 300e-6
    assert np.max(np.diff(z)) < 2 * (300e-6 / 49)


def test_endpoint_exactness_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = random_pose(rng), random_pose(rng)
        traj = plan_relative_trajectory(a, b, horizon=7, duration=0.5)
        assert np.max(np.abs(traj.waypoints[0].position - a.position)) <= 1e-15
        assert np.max(np.abs(traj.waypoints[-1].position - b.position)) <= 1e-15
        assert np.max(np.abs(traj.waypoints[0].orientation - a.orientation)) <= 1e-12
        assert np.max(np.abs(traj.waypoints[-1].orientation - b.orientation)) <= 1e-12


def test_offsets_compose_to_total_correction():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = random_pose(rng), random_pose(rng)
        traj = plan_relative_trajectory(a, b, horizon=50, duration=2.0)
        dx_total, dq_total = traj.total_correction()
        dx = np.zeros(3)
        dq = IDENTITY_Q
        for step_dx, step_dq in traj.offsets():
            dx = dx + step_dx
            dq = quat_multiply(step_dq, dq)
        np.testing.assert_allclose(dx, dx_total, atol=1e-12)
        dq = quat_normalize(dq)
        # component distance; geodesic distance hits the arccos precision floor
        assert min(np.max(np.abs(dq - dq_total)), np.max(np.abs(dq + dq_total))) < 1e-12


def test_spline_second_differences_have_no_spikes():
    rng = np.random.default_rng(3)
    a, b = random_pose(rng), random_pose(rng)
    traj = plan_relative_trajectory(a, b, horizon=80, duration=2.0)
    pos = np.array([wp.position for wp in traj.waypoints])
    second = np.linalg.norm(np.diff(pos, n=2, axis=0), axis=1)
    assert np.max(second) <= 10 * np.median(second)


def test_trajectory_validation():
    p = Pose.identity()
    with pytest.raises(ValueError):
        Trajectory((p,), np.array([0.0]))
    with pytest.raises(ValueError):
        Trajectory((p, p), np.array([0.0, 0.0]))


def test_trajectory_csv_export(tmp_path):
    a = Pose(np.zeros(3), IDENTITY_Q)
    b = Pose(np.array([1e-3, 0, 0]), IDENTITY_Q)
    traj = plan_relative_trajectory(a, b, horizon=5, duration=1.0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "x", "y", "z", "qw", "qx", "qy", "qz"]
    assert len(rows) == 6
    assert float(rows[-1][1]) == 1e-3


# -- execution through the arm ---------------------------------------------------

def test_zero_offset_trajectory_keeps_pose():
    model = ArmModel.panda()
    arm = ArmInstance(model, ProprioceptionError.zero(), HOME)
    start_actual = arm.actual
    here = arm.reported
    traj = plan_relative_trajectory(here, here, horizon=10, duration=1.0)
    final, path = execute_insertion(arm, traj, ic_bias=HOME)
    assert len(path) == 9
    assert np.linalg.norm(final.position - start_actual.position) < 1e-7


class TwoArgumentError(RuntimeError):
    def __init__(self, joint, residual):
        super().__init__(f"joint {joint}: residual {residual}")
        self.joint = joint
        self.residual = residual


def test_execute_insertion_propagates_other_errors_unchanged(monkeypatch):
    raised = TwoArgumentError(3, 1e-4)

    def failing_ik(*args, **kwargs):
        raise raised

    monkeypatch.setattr(insertion_module, "ik", failing_ik)
    arm = ArmInstance(ArmModel.panda(), ProprioceptionError.zero(), HOME)
    traj = plan_relative_trajectory(arm.reported, arm.reported, horizon=5, duration=1.0)
    with pytest.raises(TwoArgumentError) as err:
        execute_insertion(arm, traj, ic_bias=HOME)
    assert err.value is raised
    assert (err.value.joint, err.value.residual) == (3, 1e-4)


def test_unreachable_waypoint_is_named(monkeypatch):
    calls = []

    def ik_failing_at_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise UnreachableTargetError("no convergence")
        return HOME

    monkeypatch.setattr(insertion_module, "ik", ik_failing_at_third)
    arm = ArmInstance(ArmModel.panda(), ProprioceptionError.zero(), HOME)
    traj = plan_relative_trajectory(arm.reported, arm.reported, horizon=5, duration=1.0)
    with pytest.raises(UnreachableTargetError, match=r"waypoint 3/4: no convergence") as err:
        execute_insertion(arm, traj, ic_bias=HOME)
    assert isinstance(err.value.__cause__, UnreachableTargetError)


def test_small_relative_correction_accrues_little_bias_error():
    # bias-only model: isolates the low-amplitude-correction claim from
    # repeatability noise, which is drawn fresh on every motion anyway
    model = ArmModel.panda()
    hits = 0
    for seed in range(100):
        err = ProprioceptionError.draw(seed=seed, repeat_noise_std=0.0)
        arm = ArmInstance(model, err, HOME)
        intended = Pose(arm.actual.position + np.array([0, 0, 1e-3]), arm.actual.orientation)
        target_rep = Pose(arm.reported.position + np.array([0, 0, 1e-3]), arm.reported.orientation)
        traj = plan_relative_trajectory(arm.reported, target_rep, horizon=25, duration=1.0)
        final, _ = execute_insertion(arm, traj, ic_bias=HOME)
        if np.linalg.norm(final.position - intended.position) < 50e-6:
            hits += 1
    assert hits >= 95


def test_large_absolute_move_is_worse_than_relative():
    model = ArmModel.panda()
    far_start = JointConfig(HOME.angles + np.array([0.6, 0.15, -0.3, 0.2, 0.4, -0.25, 0.3]))
    from insertsim.arm import ik
    worse = 0
    for seed in range(100):
        err = ProprioceptionError.draw(seed=seed, repeat_noise_std=0.0)

        arm = ArmInstance(model, err, HOME)
        intended = Pose(arm.actual.position + np.array([0, 0, 1e-3]), arm.actual.orientation)
        target_rep = Pose(arm.reported.position + np.array([0, 0, 1e-3]), arm.reported.orientation)
        traj = plan_relative_trajectory(arm.reported, target_rep, horizon=25, duration=1.0)
        final_rel, _ = execute_insertion(arm, traj, ic_bias=HOME)
        err_rel = np.linalg.norm(final_rel.position - intended.position)

        err2 = ProprioceptionError.draw(seed=seed, repeat_noise_std=0.0)
        arm2 = ArmInstance(model, err2, far_start)
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
