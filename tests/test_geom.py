import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insertsim.geom import (
    PointCloud,
    Pose,
    pose_compose,
    quat_distance,
    quat_from_axis_angle,
    quat_to_matrix,
    transform_cloud,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng):
    return Pose(rng.normal(scale=0.5, size=3), random_quat(rng))


unit_quats = st.builds(
    lambda seed: random_quat(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**31),
)


# -- quat_distance -----------------------------------------------------------

def test_quat_distance_identity_is_zero():
    assert quat_distance(IDENTITY_Q, IDENTITY_Q) == 0.0


def test_quat_distance_antipodal_rotation():
    q180z = np.array([0.0, 0.0, 0.0, 1.0])
    assert quat_distance(IDENTITY_Q, q180z) == pytest.approx(np.pi, abs=1e-12)


def test_quat_distance_quarter_turn_matches_matrix_oracle():
    # Oracle: relative rotation angle from the trace of R1^T R2.
    q90x = np.array([np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0, 0.0])
    r_rel = quat_to_matrix(IDENTITY_Q).T @ quat_to_matrix(q90x)
    oracle = np.arccos(np.clip((np.trace(r_rel) - 1.0) / 2.0, -1.0, 1.0))
    assert oracle == pytest.approx(np.pi / 2, abs=1e-12)
    assert quat_distance(IDENTITY_Q, q90x) == pytest.approx(oracle, abs=1e-12)


def test_quat_distance_matches_matrix_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        q1, q2 = random_quat(rng), random_quat(rng)
        r_rel = quat_to_matrix(q1).T @ quat_to_matrix(q2)
        oracle = np.arccos(np.clip((np.trace(r_rel) - 1.0) / 2.0, -1.0, 1.0))
        assert quat_distance(q1, q2) == pytest.approx(oracle, abs=1e-7)


def test_quat_distance_rejects_non_unit():
    with pytest.raises(ValueError):
        quat_distance(np.array([2.0, 0.0, 0.0, 0.0]), IDENTITY_Q)
    with pytest.raises(ValueError):
        quat_distance(IDENTITY_Q, np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(unit_quats, unit_quats)
def test_quat_distance_symmetry_and_self(q1, q2):
    # self-distance is arccos-limited: |dot| can sit one ulp below 1
    assert quat_distance(q1, q1) < 1e-7
    assert quat_distance(q1, q2) == pytest.approx(quat_distance(q2, q1), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(unit_quats)
def test_quat_distance_double_cover(q):
    assert quat_distance(q, -q) < 1e-7


# -- pose composition --------------------------------------------------------

def test_compose_identity():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    out = pose_compose(Pose.identity(), p)
    np.testing.assert_allclose(out.position, p.position, atol=1e-15)
    np.testing.assert_allclose(out.orientation, p.orientation, atol=1e-15)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_pose(rng)
        out = pose_compose(p, p.inverse())
        np.testing.assert_allclose(out.position, np.zeros(3), atol=1e-12)
        assert quat_distance(out.orientation, IDENTITY_Q) < 1e-12


def test_compose_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        oracle = a.to_matrix() @ b.to_matrix()
        got = pose_compose(a, b).to_matrix()
        np.testing.assert_allclose(got, oracle, atol=1e-10)


def test_compose_associative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = pose_compose(pose_compose(a, b), c)
        right = pose_compose(a, pose_compose(b, c))
        np.testing.assert_allclose(left.position, right.position, atol=1e-12)
        assert min(
            np.max(np.abs(left.orientation - right.orientation)),
            np.max(np.abs(left.orientation + right.orientation)),
        ) < 1e-12


def test_orientation_stays_unit_after_many_compositions():
    rng = np.random.default_rng(8)
    p = Pose.identity()
    for _ in range(200):
        p = pose_compose(p, random_pose(rng))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-9


# -- transform_cloud ---------------------------------------------------------

def test_transform_cloud_identity():
    cloud = PointCloud(np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]]))
    out = transform_cloud(cloud, Pose.identity())
    np.testing.assert_array_equal(out.points, cloud.points)


def test_transform_cloud_pure_translation():
    cloud = PointCloud(np.zeros((1, 3)))
    out = transform_cloud(cloud, Pose(np.array([1.0, 0.0, 0.0]), IDENTITY_Q))
    np.testing.assert_allclose(out.points, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_transform_cloud_quarter_turn_about_z():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    pose = Pose.from_axis_angle(np.zeros(3), [0, 0, 1], np.pi / 2)
    out = transform_cloud(cloud, pose)
    np.testing.assert_allclose(out.points, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_transform_cloud_round_trip():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.normal(size=(200, 3)), _unit_rows(rng.normal(size=(200, 3))))
    for _ in range(10):
        pose = random_pose(rng)
        back = transform_cloud(transform_cloud(cloud, pose), pose.inverse())
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-10)
        np.testing.assert_allclose(back.normals, cloud.normals, atol=1e-10)


def test_transform_cloud_rotates_normals():
    cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    pose = Pose.from_axis_angle(np.array([5.0, 0.0, 0.0]), [1, 0, 0], np.pi / 2)
    out = transform_cloud(cloud, pose)
    np.testing.assert_allclose(out.normals, [[0.0, -1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(out.points, [[5.0, 0.0, 0.0]], atol=1e-12)


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# -- point cloud validation --------------------------------------------------

def test_cloud_rejects_nan():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))


def test_cloud_rejects_non_unit_normals():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))


def test_cloud_rejects_mismatched_normals():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), np.array([[0.0, 0.0, 1.0]]))
