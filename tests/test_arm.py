import importlib
from functools import reduce

import numpy as np
import pytest

from insertsim.arm import (
    ArmInstance,
    ArmModel,
    IkSettings,
    JointConfig,
    LimitViolationError,
    ProprioceptionError,
    UnreachableTargetError,
    chain_fk,
    execute_motion,
    fk,
    ik,
    jacobian,
    mdh_transform,
)
from insertsim.geom import Pose, quat_to_matrix, quat_to_rotvec, quat_multiply, quat_conjugate

# the module, not the function of the same name that insertsim.arm exports
ik_module = importlib.import_module("insertsim.arm.ik")

HOME = JointConfig(np.array([0.0, -0.5, 0.0, -2.0, 0.0, 1.6, 0.8]))


def panda() -> ArmModel:
    return ArmModel.panda()


def random_configs(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return [model.random_config(rng) for _ in range(n)]


# -- forward kinematics --------------------------------------------------------

def test_single_link_chain():
    frames = chain_fk(np.array([[0.0, 0.7, 0.0]]), np.zeros(1), np.zeros(1))
    np.testing.assert_allclose(frames[-1][:3, 3], [0.0, 0.0, 0.7], atol=1e-15)


def test_fk_matches_homogeneous_chain_oracle():
    model = panda()

    def oracle(q):
        mats = []
        for i in range(7):
            a, d, alpha, off = model.dh_parameters[i]
            th = off + q[i]
            ct, st, ca, sa = np.cos(th), np.sin(th), np.cos(alpha), np.sin(alpha)
            mats.append(np.array([
                [ct, -st, 0, a],
                [st * ca, ct * ca, -sa, -d * sa],
                [st * sa, ct * sa, ca, d * ca],
                [0, 0, 0, 1],
            ]))
        return reduce(np.matmul, mats, model.base_pose.to_matrix())

    for q in random_configs(model, 100, seed=1):
        T = oracle(q.angles)
        pose = fk(model, q)
        np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-10)
        np.testing.assert_allclose(pose.rotation_matrix(), T[:3, :3], atol=1e-10)


def test_fk_rejects_out_of_limit_joints():
    model = panda()
    with pytest.raises(ValueError):
        fk(model, JointConfig(np.zeros(7)))  # joint 4 limit range excludes 0


def test_jacobian_matches_central_differences():
    model = panda()
    h = 1e-6
    for q in random_configs(model, 100, seed=2):
        J = jacobian(model, q)
        J_fd = np.zeros_like(J)
        for i in range(7):
            dq = np.zeros(7)
            dq[i] = h
            plus = fk(model, JointConfig(q.angles + dq), check_limits=False)
            minus = fk(model, JointConfig(q.angles - dq), check_limits=False)
            J_fd[:3, i] = (plus.position - minus.position) / (2 * h)
            q_rel = quat_multiply(plus.orientation, quat_conjugate(minus.orientation))
            J_fd[3:, i] = quat_to_rotvec(q_rel) / (2 * h)
        assert np.linalg.norm(J - J_fd) / max(np.linalg.norm(J), 1.0) < 1e-6


def test_fk_lipschitz_smoothness():
    model = panda()
    L = np.sqrt(7) * np.sum(np.abs(model.dh_parameters[:, 0]) + np.abs(model.dh_parameters[:, 1]))
    rng = np.random.default_rng(3)
    for q in random_configs(model, 50, seed=4):
        delta = rng.normal(scale=3e-4, size=7)
        delta *= min(1.0, 1e-3 / np.linalg.norm(delta))
        a = fk(model, q, check_limits=False)
        b = fk(model, JointConfig(q.angles + delta), check_limits=False)
        assert np.linalg.norm(b.position - a.position) <= L * np.linalg.norm(delta)


def test_dh_file_round_trip(tmp_path):
    from insertsim.arm import load_dh_file
    model = panda()
    path = tmp_path / "dh.txt"
    rows = np.hstack([model.dh_parameters, model.joint_limits])
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in rows))
    dh, limits = load_dh_file(path)
    np.testing.assert_array_equal(dh, model.dh_parameters)
    np.testing.assert_array_equal(limits, model.joint_limits)


# -- inverse kinematics ---------------------------------------------------------

def test_ik_fixed_point():
    model = panda()
    for q in random_configs(model, 10, seed=5):
        target = fk(model, q)
        out = ik(model, target, bias_config=q, start=q)
        np.testing.assert_allclose(out.angles, q.angles, atol=1e-8)


def test_ik_round_trip_100_targets():
    model = panda()
    rng = np.random.default_rng(6)
    ok = 0
    for q in random_configs(model, 100, seed=7):
        target = fk(model, q)
        start = JointConfig(model.clamp(q.angles + rng.normal(scale=0.15, size=7)))
        sol = ik(model, target, bias_config=q, start=start)
        reached = fk(model, sol, check_limits=False)
        assert np.linalg.norm(reached.position - target.position) < 1e-6
        assert reached.rotation_to(target) < 1e-5
        ok += 1
    assert ok == 100


def test_ik_null_space_bias_selects_solutions():
    model = panda()
    target = fk(model, HOME)
    # find a second config on the self-motion manifold of the same target
    pull = JointConfig(model.clamp(HOME.angles + np.array([0.5, 0.2, -0.6, 0.1, 0.5, -0.2, 0.3])))
    other = ik(model, target, bias_config=pull, start=pull,
               settings=IkSettings(settle_iterations=200))
    assert other.distance_to(HOME) > 0.2  # genuinely different solution

    sol_a = ik(model, target, bias_config=HOME, start=HOME)
    sol_b = ik(model, target, bias_config=other, start=other)
    assert sol_a.distance_to(HOME) < sol_a.distance_to(other)
    assert sol_b.distance_to(other) < sol_b.distance_to(HOME)


def test_ik_bias_never_worse_than_unbiased():
    model = panda()
    rng = np.random.default_rng(8)
    for q in random_configs(model, 10, seed=9):
        target = fk(model, q)
        start = JointConfig(model.clamp(q.angles + rng.normal(scale=0.1, size=7)))
        biased = ik(model, target, bias_config=q, start=start,
                    settings=IkSettings(settle_iterations=50))
        unbiased = ik(model, target, bias_config=start, start=start)
        assert biased.distance_to(q) <= unbiased.distance_to(q) + 1e-9


def test_ik_unreachable_target():
    model = panda()
    far = Pose(np.array([2.5, 0.0, 0.3]), np.array([1.0, 0, 0, 0]))
    with pytest.raises((UnreachableTargetError, LimitViolationError)):
        ik(model, far, bias_config=HOME, start=HOME)


def test_ik_judges_the_last_evaluated_pose(monkeypatch):
    """Every fk call but the last is followed by a step; the last one is judged."""
    calls = {"fk": 0, "jacobian": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ik_module, "fk", counting("fk", fk))
    monkeypatch.setattr(ik_module, "jacobian", counting("jacobian", jacobian))
    model = panda()
    target = fk(model, HOME)

    ik(model, target, bias_config=HOME, start=HOME)
    assert calls == {"fk": 1, "jacobian": 0}  # already on target: judged as found

    for settings in (IkSettings(), IkSettings(settle_iterations=20)):
        calls.update(fk=0, jacobian=0)
        start = JointConfig(HOME.angles + 0.05)
        sol = ik(model, target, bias_config=HOME, start=start, settings=settings)
        assert calls["jacobian"] > 0
        assert calls["fk"] == calls["jacobian"] + 1
        assert fk(model, sol, check_limits=False).translation_to(target) < settings.pos_tol

    calls.update(fk=0, jacobian=0)
    far = Pose(np.array([2.5, 0.0, 0.3]), np.array([1.0, 0, 0, 0]))
    with pytest.raises((UnreachableTargetError, LimitViolationError)):
        ik(model, far, bias_config=HOME, start=HOME, settings=IkSettings(max_iterations=20))
    assert calls == {"fk": 21, "jacobian": 20}


# -- proprioception error model -------------------------------------------------

def test_zero_error_reported_equals_actual():
    model = panda()
    reported, actual = execute_motion(model, ProprioceptionError.zero(), HOME)
    np.testing.assert_array_equal(reported.position, actual.position)
    np.testing.assert_array_equal(reported.orientation, actual.orientation)


def test_constant_bias_perfect_repeatability():
    model = panda()
    err = ProprioceptionError(np.full(7, 8e-4), repeat_noise_std=0.0, seed=1)
    _, a1 = execute_motion(model, err, HOME)
    _, a2 = execute_motion(model, err, HOME)
    np.testing.assert_array_equal(a1.position, a2.position)
    r, _ = execute_motion(model, err, HOME)
    assert np.linalg.norm(a1.position - r.position) > 1e-4  # accuracy off


def test_error_model_calibration_band():
    model = panda()
    err = ProprioceptionError.draw(seed=3)
    tips = []
    reported = None
    for _ in range(100):
        reported, actual = execute_motion(model, err, HOME)
        tips.append(actual.position)
    tips = np.array(tips)
    spread = np.linalg.norm(tips - tips.mean(axis=0), axis=1)
    assert np.sqrt(np.mean(spread**2)) <= 1e-4  # repeatability within 0.1 mm
    offset = np.linalg.norm(tips.mean(axis=0) - reported.position)
    assert 0.5e-3 <= offset <= 3e-3  # accuracy in the collaborative-arm band


def test_execute_motion_reproducible_bit_exact():
    model = panda()
    a = ProprioceptionError.draw(seed=11)
    b = ProprioceptionError.draw(seed=11)
    for _ in range(5):
        _, pa = execute_motion(model, a, HOME)
        _, pb = execute_motion(model, b, HOME)
        np.testing.assert_array_equal(pa.position, pb.position)


def test_bias_shifts_mean_not_spread():
    model = panda()
    def spread_of(bias_scale, seed=21):
        err = ProprioceptionError(np.full(7, bias_scale), repeat_noise_std=5e-5, seed=seed)
        tips = np.array([execute_motion(model, err, HOME)[1].position for _ in range(80)])
        return tips.std(axis=0).sum(), tips.mean(axis=0)

    s0, m0 = spread_of(0.0)
    s1, m1 = spread_of(2e-3)
    assert abs(s1 - s0) / s0 < 0.25
    assert np.linalg.norm(m1 - m0) > 5e-4


def test_arm_instance_tracks_state():
    model = panda()
    inst = ArmInstance(model, ProprioceptionError.zero(), HOME)
    np.testing.assert_array_equal(inst.reported.position, inst.actual.position)
    q2 = JointConfig(HOME.angles + 0.01)
    inst.move_to(q2)
    assert inst.commanded is q2
