import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpgo import se3
from oracle import pose_difference


def rand_pose(rng):
    xi = np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(-5.0, 5.0, 3)])
    return se3.exp(xi)


def assert_poses_close(a, b, tol=1e-9):
    rot, trans = pose_difference(a, b)
    assert rot < tol and trans < tol


twists = st.lists(
    st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False), min_size=6, max_size=6
).map(np.array)


class TestTransformPoint:
    def test_identity(self):
        p = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(se3.transform_points(se3.identity(), p), p)

    def test_z_rotation_axis_symmetry(self):
        T = se3.exp([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            se3.transform_points(T, [[1.0, 0.0, 0.0]]), [[0.0, 1.0, 0.0]], atol=1e-12
        )

    def test_hand_evaluated_rotation_plus_translation(self):
        # 180 deg about x maps (0,1,0) to (0,-1,0); translation (1,1,1) gives (1,0,1)
        T = se3.Pose(np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(
            se3.transform_points(T, [[0.0, 1.0, 0.0]]), [[1.0, 0.0, 1.0]], atol=1e-12
        )


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        P = rand_pose(rng)
        assert_poses_close(se3.compose(se3.identity(), P), P)
        assert_poses_close(se3.compose(P, se3.identity()), P)

    def test_inverse_law(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            P = rand_pose(rng)
            assert_poses_close(se3.compose(P, se3.inverse(P)), se3.identity())

    def test_two_quarter_turns_make_half_turn(self):
        # quaternion product of two 90-deg z-rotations is (0, 0, 0, 1)
        Tz90 = se3.exp([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
        T = se3.compose(Tz90, Tz90)
        np.testing.assert_allclose(T.quat, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    @given(twists, twists, twists)
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        A, B, C = se3.exp(a), se3.exp(b), se3.exp(c)
        assert_poses_close(se3.compose(se3.compose(A, B), C), se3.compose(A, se3.compose(B, C)))

    @given(twists, twists)
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_chained_transform(self, a, b):
        A, B = se3.exp(a), se3.exp(b)
        p = np.array([[0.7, -1.3, 2.1]])
        np.testing.assert_allclose(
            se3.transform_points(se3.compose(A, B), p),
            se3.transform_points(A, se3.transform_points(B, p)),
            atol=1e-9,
        )


class TestExpLog:
    def test_exp_zero_is_identity(self):
        T = se3.exp(np.zeros(6))
        np.testing.assert_array_equal(T.quat, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(T.trans, [0.0, 0.0, 0.0])

    def test_exp_axis_angle(self):
        T = se3.exp([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
        half = math.pi / 4
        np.testing.assert_allclose(T.quat, [math.cos(half), 0.0, 0.0, math.sin(half)], atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            xi = np.concatenate([rng.uniform(-2.0, 2.0, 3), rng.uniform(-10.0, 10.0, 3)])
            if np.linalg.norm(xi[:3]) >= math.pi - 1e-3:
                continue
            np.testing.assert_allclose(se3.log_arrays(*se3.exp_arrays(xi))[0], xi, atol=1e-9)

    def test_round_trip_small_angles(self):
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1e-6, 1e-9):
            xi = np.concatenate([scale * rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            np.testing.assert_allclose(se3.log_arrays(*se3.exp_arrays(xi))[0], xi, atol=1e-12)

    def test_log_flags_near_pi(self):
        xi = np.array([math.pi - 1e-8, 0.0, 0.0, 0.0, 0.0, 0.0])
        _, flagged = se3.log_arrays(*se3.exp_arrays(xi))
        assert flagged

    def test_log_not_flagged_away_from_pi(self):
        xi = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 0.0])
        _, flagged = se3.log_arrays(*se3.exp_arrays(xi))
        assert not flagged


class TestRetract:
    def test_zero_retract_is_exact(self):
        rng = np.random.default_rng(4)
        T = rand_pose(rng)
        T2 = se3.retract(T, np.zeros(6))
        np.testing.assert_array_equal(T.quat, T2.quat)
        np.testing.assert_array_equal(T.trans, T2.trans)

    def test_matches_left_composition(self):
        rng = np.random.default_rng(5)
        T = rand_pose(rng)
        d = rng.uniform(-0.5, 0.5, 6)
        assert_poses_close(se3.retract(T, d), se3.compose(se3.exp(d), T))


class TestQuaternionInvariants:
    def test_unit_norm_after_operations(self):
        rng = np.random.default_rng(6)
        T = rand_pose(rng)
        for _ in range(100):
            T = se3.compose(T, rand_pose(rng))
            assert abs(np.linalg.norm(T.quat) - 1.0) < 1e-9

    def test_hemisphere_normalization(self):
        q = np.array([-0.5, 0.5, 0.5, 0.5])
        P = se3.Pose(q, np.zeros(3))
        assert P.quat[0] >= 0.0
        np.testing.assert_allclose(P.quat, [0.5, -0.5, -0.5, -0.5])

    def test_matrix_quat_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            T = rand_pose(rng)
            R = T.rotation_matrix()
            np.testing.assert_allclose(se3.matrix_to_quat(R), T.quat, atol=1e-9)

    def test_batched_matrix_to_quat_is_bit_identical(self):
        """A stack of matrices gives, row for row, the bits that each matrix
        gives alone, and those of Shepperd's scalar branches, on each of the
        four branches and at w = 0."""
        rng = np.random.default_rng(8)
        angles = {0: 0.4, 1: 3.0, 2: 3.0, 3: 3.0}  # branch 0 needs tr > 0, the others a large angle
        mats = []
        for branch, angle in angles.items():
            for _ in range(5):
                axis = rng.normal(size=3) * 0.2
                axis[max(branch - 1, 0)] = 1.0
                mats.append(se3.exp(np.r_[angle * axis / np.linalg.norm(axis), 0, 0, 0]).rotation_matrix())
        mats += [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]  # w = 0
        mats += [rand_pose(rng).rotation_matrix() for _ in range(20)]
        mats = np.array(mats)
        branches = [_shepperd_branch(R) for R in mats]
        assert set(branches) == {0, 1, 2, 3}
        batch = se3.matrix_to_quat(mats)
        single = np.array([se3.matrix_to_quat(R) for R in mats])
        scalar = np.array([_shepperd_scalar(R) for R in mats])
        assert batch.tobytes() == single.tobytes() == scalar.tobytes()
        np.testing.assert_array_equal(batch[20:23], [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert se3.matrix_to_quat(mats[:0]).shape == (0, 4)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            se3.Pose(np.zeros(4), np.zeros(3))


def _shepperd_branch(R) -> int:
    if R[0, 0] + R[1, 1] + R[2, 2] > 0.0:
        return 0
    if R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        return 1
    return 2 if R[1, 1] >= R[2, 2] else 3


def _shepperd_scalar(R) -> np.ndarray:
    """One rotation matrix's quaternion by Shepperd's branches, one matrix
    entry at a time, as a canonical pose holds it."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
    return se3.Pose(np.array(q), np.zeros(3)).quat
