import importlib
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from insertsim.arm import (
    ArmInstance,
    ArmModel,
    JointConfig,
    LimitViolationError,
    ProprioceptionError,
    UnreachableTargetError,
    execute_motion,
    fk,
    ik,
    jacobian,
)
from insertsim.arm.model import DOF
from insertsim.geom import Pose, quat_to_rotvec, quat_multiply, quat_conjugate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "trialbench"))
import workloads  # noqa: E402

# the modules, not the functions of the same names that insertsim.arm exports
ik_module = importlib.import_module("insertsim.arm.ik")
model_module = importlib.import_module("insertsim.arm.model")

HOME = JointConfig(np.array([0.0, -0.5, 0.0, -2.0, 0.0, 1.6, 0.8]))


def panda() -> ArmModel:
    return ArmModel.panda()


def random_configs(model, n, seed=0):
    """Configurations drawn uniformly 0.1 rad inside the joint limits."""
    rng = np.random.default_rng(seed)
    lo, hi = model.joint_limits[:, 0] + 0.1, model.joint_limits[:, 1] - 0.1
    return [JointConfig(rng.uniform(lo, hi)) for _ in range(n)]


def distance(a: JointConfig, b: JointConfig) -> float:
    return float(np.linalg.norm(a.angles - b.angles))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def configs_to_the_limits(model, seed=0):
    """1000 draws over the full joint ranges, 250 with every joint at one of
    its limits and 250 with each joint at a limit or drawn between them."""
    rng = np.random.default_rng(seed)
    lo, hi = model.joint_limits.T
    uniform = rng.uniform(lo, hi, size=(1250, DOF))
    at_limit = np.where(rng.random((500, DOF)) < 0.5, lo, hi)
    mixed = np.where(rng.random((250, DOF)) < 0.5, at_limit[250:], uniform[1000:])
    return [JointConfig(q) for q in np.vstack([uniform[:1000], at_limit[:250], mixed])]


# -- forward kinematics --------------------------------------------------------

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
        return reduce(np.matmul, mats)

    for q in random_configs(model, 100, seed=1):
        T = oracle(q.angles)
        pose = fk(model, q)
        np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-10)
        np.testing.assert_allclose(pose.rotation_matrix(), T[:3, :3], atol=1e-10)


def test_jacobian_matches_central_differences():
    model = panda()
    h = 1e-6
    for q in random_configs(model, 100, seed=2):
        J = jacobian(model, q)
        J_fd = np.zeros_like(J)
        for i in range(7):
            dq = np.zeros(7)
            dq[i] = h
            plus = fk(model, JointConfig(q.angles + dq))
            minus = fk(model, JointConfig(q.angles - dq))
            J_fd[:3, i] = (plus.position - minus.position) / (2 * h)
            q_rel = quat_multiply(plus.orientation, quat_conjugate(minus.orientation))
            J_fd[3:, i] = quat_to_rotvec(q_rel) / (2 * h)
        assert np.linalg.norm(J - J_fd) / max(np.linalg.norm(J), 1.0) < 1e-6


def reference_frames(model, q):
    """The per-row loop _chain replaced: one 4 x 4 np.array per link, built
    from numpy scalars, chained with `@`."""
    T = np.eye(4)
    frames = [T]
    for (a, d, alpha, offset), qi in zip(model.dh_parameters, q.angles):
        theta = offset + qi
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = np.cos(alpha), np.sin(alpha)
        T = T @ np.array(
            [
                [ct, -st, 0.0, a],
                [st * ca, ct * ca, -sa, -d * sa],
                [st * sa, ct * sa, ca, d * ca],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        frames.append(T)
    return frames


def test_frames_match_the_per_row_reference_bit_for_bit():
    model = panda()
    for q in configs_to_the_limits(model):
        frames = model_module._held_chain(model, q)[0]
        assert frames.shape == (DOF + 1, 4, 4)
        assert same_bits(frames, np.stack(reference_frames(model, q)))


def test_vector_cos_and_sin_match_the_scalar_calls_bit_for_bit():
    """_chain takes the cosines and sines of all joints in one call each;
    the per-row loop took them one numpy scalar at a time."""
    model = panda()
    offset, alpha = model.dh_parameters[:, 3], model.dh_parameters[:, 2]
    for angles in [alpha] + [offset + q.angles for q in configs_to_the_limits(model)]:
        angles = np.ascontiguousarray(angles)
        assert same_bits(np.cos(angles), [np.cos(t) for t in angles])
        assert same_bits(np.sin(angles), [np.sin(t) for t in angles])


def reference_jacobian(model, q):
    """One column per joint, each with its own np.cross."""
    frames = reference_frames(model, q)
    p_ee = frames[-1][:3, 3]
    J = np.zeros((6, 7))
    for i in range(7):
        z = frames[i + 1][:3, 2]
        p = frames[i + 1][:3, 3]
        J[:3, i] = np.cross(z, p_ee - p)
        J[3:, i] = z
    return J


def test_jacobian_matches_the_per_column_reference_bit_for_bit():
    model = panda()
    for q in configs_to_the_limits(model, seed=10):
        assert same_bits(jacobian(model, q), reference_jacobian(model, q))


def open_loop_insertions(monkeypatch, seed, trials):
    """(final pose, joint path) of execute_insertion in `open_loop` benchmark trials."""
    runs = []
    execute = workloads.insertion.execute_insertion

    def recording(*args, **kwargs):
        runs.append(execute(*args, **kwargs))
        return runs[-1]

    with monkeypatch.context() as m:
        m.setattr(workloads.insertion, "execute_insertion", recording)
        bench = workloads.Bench(workloads.WORKLOADS["open_loop"], seed)
        for trial in trials:
            bench.run_trial(trial)
    return runs


def test_open_loop_insertions_match_the_reference_kernels_bit_for_bit(monkeypatch):
    """Whole open-loop insertions, run once on the production kernels and once
    on the per-row chain and per-column jacobian, end on the same bits."""
    production = open_loop_insertions(monkeypatch, 901, (0, 1))
    calls = {"chain": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(model_module, "_chain", counted(
        "chain", lambda model, angles: np.stack(reference_frames(model, JointConfig(angles)))))
    monkeypatch.setattr(ik_module, "jacobian", counted("jacobian", reference_jacobian))
    reference = open_loop_insertions(monkeypatch, 901, (0, 1))
    assert calls["chain"] > calls["jacobian"] > 0  # the reference kernels ran
    assert len(production) == len(reference) == 2
    for (final, path), (ref_final, ref_path) in zip(production, reference):
        assert same_bits(final.position, ref_final.position)
        assert same_bits(final.orientation, ref_final.orientation)
        assert len(path) == len(ref_path) == workloads.HORIZON - 1
        assert same_bits([q.angles for q in path], [q.angles for q in ref_path])


def test_open_loop_trials_chain_no_configuration_twice(monkeypatch):
    """Within one trial, each (model, joint angles) pair is chained once: fk,
    jacobian, the reported pose and the next solve's start read the chain
    their configuration holds."""
    chained = []
    chain = model_module._chain

    def recording(model, angles):
        chained.append((model, angles.tobytes()))
        return chain(model, angles)

    monkeypatch.setattr(model_module, "_chain", recording)
    bench = workloads.Bench(workloads.WORKLOADS["open_loop"], 901)
    for trial in range(10):
        chained.clear()
        bench.run_trial(trial)
        keys = [(id(model), angles) for model, angles in chained]
        assert len(chained) > 0
        assert len(set(keys)) == len(keys), f"trial {trial} chains a configuration twice"


def test_a_held_chain_is_the_chain_of_its_own_model():
    dh = np.array(model_module.PANDA_DH)
    dh[3, 1] += 1e-3  # one DH row perturbed
    panda_model, other = panda(), ArmModel(dh, model_module.PANDA_LIMITS)
    for q in random_configs(panda_model, 20, seed=11):
        for model in (panda_model, other, panda_model, other):
            pose = fk(model, q)
            fresh = fk(model, JointConfig(q.angles))
            assert same_bits(pose.position, fresh.position)
            assert same_bits(pose.orientation, fresh.orientation)
            assert same_bits(jacobian(model, q), jacobian(model, JointConfig(q.angles)))
        assert not same_bits(fk(other, q).position, fk(panda_model, q).position)


def test_held_frames_are_read_only():
    model = panda()
    frames, pose = model_module._held_chain(model, HOME)
    assert model_module._held_chain(model, HOME)[0] is frames
    assert fk(model, HOME) is pose
    with pytest.raises(ValueError):
        frames[-1, 0, 3] = 0.0
    with pytest.raises(ValueError):
        model._link_template[0, 0, 3] = 1.0


def test_mutating_a_source_array_leaves_fk_unchanged():
    angles = HOME.angles.copy()
    dh = np.array(model_module.PANDA_DH)
    model = ArmModel(dh, model_module.PANDA_LIMITS)
    q = JointConfig(angles)
    angles += 0.1
    dh[:, 1] += 0.1
    expected = fk(panda(), JointConfig(HOME.angles))
    for _ in range(2):  # chained, then held
        pose = fk(model, q)
        assert same_bits(pose.position, expected.position)
        assert same_bits(pose.orientation, expected.orientation)


@pytest.mark.parametrize("angles", [np.zeros(6), np.zeros(8), np.zeros((1, 7)), 0.0],
                         ids=["six", "eight", "row", "scalar"])
def test_a_joint_config_holds_seven_angles(angles):
    with pytest.raises(ValueError, match=r"expected 7 joint angles"):
        JointConfig(angles)


NAN_AT_2 = JointConfig(np.where(np.arange(7) == 2, np.nan, HOME.angles))
NAN_JOINT_ENTRY_POINTS = {
    "check_limits": lambda model: model.check_limits(NAN_AT_2),
    "ik_start": lambda model: ik(model, fk(model, HOME), bias_config=HOME, start=NAN_AT_2),
    "execute_motion": lambda model: execute_motion(model, ProprioceptionError(np.zeros(7), 0), NAN_AT_2),
}


@pytest.mark.parametrize("entry", sorted(NAN_JOINT_ENTRY_POINTS))
def test_a_nan_joint_is_named_as_outside_its_limits(entry):
    with pytest.raises(ValueError, match=r"joints \[2\] outside limits"):
        NAN_JOINT_ENTRY_POINTS[entry](panda())


def test_fk_lipschitz_smoothness():
    model = panda()
    L = np.sqrt(7) * np.sum(np.abs(model.dh_parameters[:, 0]) + np.abs(model.dh_parameters[:, 1]))
    rng = np.random.default_rng(3)
    for q in random_configs(model, 50, seed=4):
        delta = rng.normal(scale=3e-4, size=7)
        delta *= min(1.0, 1e-3 / np.linalg.norm(delta))
        a = fk(model, q)
        b = fk(model, JointConfig(q.angles + delta))
        assert np.linalg.norm(b.position - a.position) <= L * np.linalg.norm(delta)


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
        reached = fk(model, sol)
        assert np.linalg.norm(reached.position - target.position) < 1e-6
        assert reached.rotation_to(target) < 1e-5
        ok += 1
    assert ok == 100


def test_ik_null_space_bias_selects_solutions():
    model = panda()
    target = fk(model, HOME)
    # find a second config on the self-motion manifold of the same target
    pull = JointConfig(model.clamp(HOME.angles + np.array([0.5, 0.2, -0.6, 0.1, 0.5, -0.2, 0.3])))
    other = ik(model, target, bias_config=pull, start=pull)
    assert distance(other, HOME) > 0.2  # genuinely different solution

    sol_a = ik(model, target, bias_config=HOME, start=HOME)
    sol_b = ik(model, target, bias_config=other, start=other)
    assert distance(sol_a, HOME) < distance(sol_a, other)
    assert distance(sol_b, other) < distance(sol_b, HOME)


def test_ik_bias_never_worse_than_unbiased():
    model = panda()
    rng = np.random.default_rng(8)
    for q in random_configs(model, 10, seed=9):
        target = fk(model, q)
        start = JointConfig(model.clamp(q.angles + rng.normal(scale=0.1, size=7)))
        biased = ik(model, target, bias_config=q, start=start)
        unbiased = ik(model, target, bias_config=start, start=start)
        assert distance(biased, q) <= distance(unbiased, q) + 1e-9


def reference_step(J, err, q, bias):
    """`ik`'s step as it was formed before one SVD gave both terms: the damped
    step through an inverse, the null-space pull through I - pinv(J) J."""
    J_dls = J.T @ np.linalg.inv(J @ J.T + ik_module.DAMPING ** 2 * np.eye(6))
    null_proj = np.eye(DOF) - np.linalg.pinv(J) @ J
    return J_dls @ err + null_proj @ (ik_module.NULL_GAIN * (bias - q))


def reference_iterates(model, target, bias, start):
    """The joint angles of every iterate an IK loop on `reference_step` judges."""
    iterates = [start.angles]
    for _ in range(ik_module.MAX_ITERATIONS):
        q = iterates[-1]
        err = ik_module._pose_error(target, fk(model, JointConfig(q)))
        if np.linalg.norm(err[:3]) < ik_module.POS_TOL and np.linalg.norm(err[3:]) < ik_module.ROT_TOL:
            break
        dq = reference_step(ik_module.jacobian(model, JointConfig(q)), err, q, bias)
        iterates.append(model.clamp(q + np.clip(dq, -ik_module.MAX_STEP, ik_module.MAX_STEP)))
    return iterates


@pytest.mark.parametrize("zeroed, bound", [((), 1e-12), ((0, 1), 1e-8)],
                         ids=["full_rank", "two_zero_columns"])
def test_ik_iterates_match_the_inverse_and_pseudoinverse_reference(monkeypatch, zeroed, bound):
    """One SVD per step walks the iterates of the inverse + pinv step, as many
    of them and within `bound` rad, on the round-trip targets. With the first
    two Jacobian columns zeroed the sixth singular value is tiny but not zero,
    so pinv's rank cutoff decides a 2-D null space; 20 iterations keep the
    unconverging walk short."""
    mask = np.ones(DOF)
    mask[list(zeroed)] = 0.0
    monkeypatch.setattr(ik_module, "jacobian", lambda model, q: jacobian(model, q) * mask)
    if zeroed:
        monkeypatch.setattr(ik_module, "MAX_ITERATIONS", 20)
    judged = []
    monkeypatch.setattr(ik_module, "fk", lambda model, q: (judged.append(q.angles), fk(model, q))[1])
    model = panda()
    rng = np.random.default_rng(6)
    for q in random_configs(model, 20, seed=7):
        target = fk(model, q)
        start = JointConfig(model.clamp(q.angles + rng.normal(scale=0.15, size=7)))
        judged.clear()
        try:
            ik(model, target, bias_config=q, start=start)
        except (UnreachableTargetError, LimitViolationError):
            assert zeroed  # only the rank-deficient walk may fail to converge
        reference = reference_iterates(model, target, q.angles, start)
        assert len(judged) == len(reference)
        assert np.max(np.abs(np.array(judged) - np.array(reference))) <= bound


def test_ik_unreachable_target():
    model = panda()
    far = Pose(np.array([2.5, 0.0, 0.3]), np.array([1.0, 0, 0, 0]))
    with pytest.raises((UnreachableTargetError, LimitViolationError)):
        ik(model, far, bias_config=HOME, start=HOME)


BAD_BIASES = {
    "nan": NAN_AT_2.angles,
    "inf": np.where(np.arange(7) == 5, np.inf, HOME.angles),
}


@pytest.mark.parametrize("case", sorted(BAD_BIASES))
def test_ik_rejects_a_bias_config_without_7_finite_angles(case):
    model = panda()
    with pytest.raises(ValueError, match="bias_config"):
        ik(model, fk(model, HOME), bias_config=JointConfig(BAD_BIASES[case]),
           start=JointConfig(HOME.angles + 0.05))


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

    assert ik(model, target, bias_config=HOME, start=HOME) is HOME
    assert calls == {"fk": 1, "jacobian": 0}  # already on target: judged as found

    calls.update(fk=0, jacobian=0)
    sol = ik(model, target, bias_config=HOME, start=JointConfig(HOME.angles + 0.05))
    assert calls["jacobian"] > 0
    assert calls["fk"] == calls["jacobian"] + 1
    assert fk(model, sol).translation_to(target) < ik_module.POS_TOL

    calls.update(fk=0, jacobian=0)
    far = Pose(np.array([2.5, 0.0, 0.3]), np.array([1.0, 0, 0, 0]))
    with pytest.raises((UnreachableTargetError, LimitViolationError)):
        ik(model, far, bias_config=HOME, start=HOME)
    assert calls == {"fk": ik_module.MAX_ITERATIONS + 1, "jacobian": ik_module.MAX_ITERATIONS}


# -- proprioception error model -------------------------------------------------

def test_zero_error_reported_equals_actual(noise_free_arm):
    model = panda()
    reported, actual = execute_motion(model, ProprioceptionError(np.zeros(7), 0), HOME)
    np.testing.assert_array_equal(reported.position, actual.position)
    np.testing.assert_array_equal(reported.orientation, actual.orientation)


def test_constant_bias_perfect_repeatability(noise_free_arm):
    model = panda()
    err = ProprioceptionError(np.full(7, 8e-4), seed=1)
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


def test_a_nan_amplitude_leaves_the_noise_state_untouched():
    """NaN is refused before anything is drawn, so the arm keeps in step with
    a twin that never saw it; inf (a full redraw) stays legal."""
    poked, twin = ProprioceptionError.draw(seed=12), ProprioceptionError.draw(seed=12)
    for err in (poked, twin):
        err.next_noise(np.inf)
    with pytest.raises(ValueError, match="motion_amplitude"):
        poked.next_noise(np.nan)
    for _ in range(3):
        noise = poked.next_noise(0.01)
        assert np.all(np.isfinite(noise))
        assert same_bits(noise, twin.next_noise(0.01))


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
        err = ProprioceptionError(np.full(7, bias_scale), seed=seed)
        tips = np.array([execute_motion(model, err, HOME)[1].position for _ in range(80)])
        return tips.std(axis=0).sum(), tips.mean(axis=0)

    s0, m0 = spread_of(0.0)
    s1, m1 = spread_of(2e-3)
    assert abs(s1 - s0) / s0 < 0.25
    assert np.linalg.norm(m1 - m0) > 5e-4


def test_arm_instance_tracks_state(noise_free_arm):
    model = panda()
    inst = ArmInstance(model, ProprioceptionError(np.zeros(7), 0), HOME)
    np.testing.assert_array_equal(inst.reported.position, inst.actual.position)
    q2 = JointConfig(HOME.angles + 0.01)
    inst.move_to(q2)
    assert inst.commanded is q2
