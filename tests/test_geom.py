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
    quat_from_matrix,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    transform_cloud,
    vector_norm,
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


def homogeneous(p: Pose) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = p.rotation_matrix()
    T[:3, 3] = p.position
    return T


def test_compose_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        oracle = homogeneous(a) @ homogeneous(b)
        np.testing.assert_allclose(homogeneous(pose_compose(a, b)), oracle, atol=1e-10)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_quaternion_rejected(bad):
    q = np.array([1.0, bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        quat_normalize(q)
    with pytest.raises(ValueError, match="non-finite"):
        Pose(np.zeros(3), q)
    with pytest.raises(ValueError, match="near-zero"):
        quat_normalize(np.zeros(4))


# -- bit-for-bit references ----------------------------------------------------
#
# The scalar helpers compute on Python floats; these are the numpy-scalar
# forms they replaced, kept to show that every bit stayed the same.

def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    n = float(np.linalg.norm(q))
    if not 1e-12 <= n < np.inf:
        raise ValueError("cannot normalize a near-zero or non-finite quaternion")
    return q / n


def reference_quat_from_matrix(R):
    """The numpy-scalar quat_from_matrix, and which of its branches ran."""
    R = np.asarray(R, dtype=np.float64)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        branch, s = "trace", np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        branch, s = "x", np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        branch, s = "y", np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s])
    else:
        branch, s = "z", np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    q = reference_quat_normalize(q)
    return (-q if q[0] < 0.0 else q), branch


def reference_quat_multiply(q1, q2):
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def reference_quat_to_matrix(q):
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def reference_quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(axis))
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


def rodrigues(axis, angle):
    """Rotation matrix about a unit axis, built without the helpers under test."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def branch_matrices(rng, n):
    """Rotations that reach each branch of quat_from_matrix: small turns
    (positive trace) and turns near pi about axes near x, y and z."""
    mats = []
    for _ in range(n):
        for axis, angle in [(rng.normal(size=3), rng.uniform(0.0, 1.5))] + [
                (np.eye(3)[i] + rng.normal(scale=0.2, size=3), np.pi - rng.uniform(0.0, 0.4))
                for i in range(3)]:
            mats.append(rodrigues(axis / np.linalg.norm(axis), angle))
    return mats


def test_quat_from_matrix_matches_the_numpy_scalar_reference_bit_for_bit():
    branches = dict.fromkeys(("trace", "x", "y", "z"), 0)
    for R in branch_matrices(np.random.default_rng(12), 500):
        expected, branch = reference_quat_from_matrix(R)
        branches[branch] += 1
        assert same_bits(quat_from_matrix(R), expected)
    assert min(branches.values()) >= 400, branches


def test_quat_multiply_and_to_matrix_match_the_numpy_scalar_references_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        q1, q2 = random_quat(rng), rng.normal(size=4)  # one unit, one not
        assert same_bits(quat_multiply(q1, q2), reference_quat_multiply(q1, q2))
        assert same_bits(quat_to_matrix(q1), reference_quat_to_matrix(q1))
        assert same_bits(quat_to_matrix(q2), reference_quat_to_matrix(q2))


def test_vector_norm_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        m = rng.normal(size=(4, 3))
        # a strided column sums in another order under a bare dot product
        for v in (m[0], m[:, 0], m[::-1, 1], m.ravel()[:4]):
            assert same_bits(vector_norm(v), np.linalg.norm(v))


def test_quat_from_axis_angle_keeps_its_bits_on_finite_input():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        axis, angle = rng.normal(size=3) * 10.0 ** rng.integers(-6, 6), rng.uniform(-10.0, 10.0)
        assert same_bits(quat_from_axis_angle(axis, angle), reference_quat_from_axis_angle(axis, angle))


BAD_AXIS_ANGLES = {
    "nan_axis": ([np.nan, 0.0, 0.0], 0.1, "axis"),
    "inf_axis": ([0.0, np.inf, 0.0], 0.1, "axis"),
    "inf_angle": ([0.0, 0.0, 1.0], np.inf, "angle"),
    "nan_angle": ([0.0, 0.0, 1.0], np.nan, "angle"),
}


@pytest.mark.parametrize("case", sorted(BAD_AXIS_ANGLES))
def test_quat_from_axis_angle_rejects_non_finite_input(case):
    axis, angle, name = BAD_AXIS_ANGLES[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        quat_from_axis_angle(axis, angle)


def error_of(fn, *args):
    with np.errstate(all="ignore"), pytest.raises(ValueError) as e:
        fn(*args)
    return str(e.value)


def poked(i, j, value):
    R = np.eye(3)
    R[i, j] = value
    return R


@pytest.mark.parametrize("q", [
    [np.nan, 0.0, 0.0, 1.0], [1.0, np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0],
    [1e200, 1e200, 0.0, 0.0], [0.0, 0.0, 0.0, 1e-13],
])
def test_quat_normalize_raises_the_reference_error(q):
    assert error_of(quat_normalize, q) == error_of(reference_quat_normalize, q)


BAD_MATRICES = {
    "nan_off_diagonal": poked(1, 2, np.nan),
    "nan_diagonal": poked(0, 0, np.nan),
    "inf_diagonal": poked(0, 0, np.inf),
    "minus_inf_diagonal": poked(1, 1, -np.inf),
    "minus_inf_off_diagonal": poked(0, 1, -np.inf),
    "inf_off_diagonal": poked(2, 0, np.inf),
    "all_nan": np.full((3, 3), np.nan),
    "minus_inf_trace": np.diag([-np.inf] * 3),
}


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
def test_quat_from_matrix_raises_the_reference_error(case):
    R = BAD_MATRICES[case]
    assert error_of(quat_from_matrix, R) == error_of(lambda m: reference_quat_from_matrix(m)[0], R)


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
