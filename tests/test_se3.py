import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpgo import se3
from oracle import canonical_quat, pose_difference


def rand_pose(rng):
    xi = np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(-5.0, 5.0, 3)])
    return se3.Pose(*se3.exp_arrays(xi))


def composed(a, b):
    """a o b by compose_arrays, as a pose."""
    return se3.Pose(*se3.compose_arrays(a.quat, a.trans, b.quat, b.trans))


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
        T = se3.Pose(*se3.exp_arrays([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0]))
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
        assert_poses_close(composed(se3.identity(), P), P)
        assert_poses_close(composed(P, se3.identity()), P)

    def test_inverse_law(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            P = rand_pose(rng)
            assert_poses_close(composed(P, se3.Pose(*se3.inverse_arrays(P.quat, P.trans))), se3.identity())

    def test_two_quarter_turns_make_half_turn(self):
        # quaternion product of two 90-deg z-rotations is (0, 0, 0, 1)
        Tz90 = se3.Pose(*se3.exp_arrays([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0]))
        T = composed(Tz90, Tz90)
        np.testing.assert_allclose(T.quat, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    @given(twists, twists, twists)
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        A, B, C = se3.Pose(*se3.exp_arrays(a)), se3.Pose(*se3.exp_arrays(b)), se3.Pose(*se3.exp_arrays(c))
        assert_poses_close(composed(composed(A, B), C), composed(A, composed(B, C)))

    @given(twists, twists)
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_chained_transform(self, a, b):
        A, B = se3.Pose(*se3.exp_arrays(a)), se3.Pose(*se3.exp_arrays(b))
        p = np.array([[0.7, -1.3, 2.1]])
        np.testing.assert_allclose(
            se3.transform_points(composed(A, B), p),
            se3.transform_points(A, se3.transform_points(B, p)),
            atol=1e-9,
        )


class TestExpLog:
    def test_exp_zero_is_identity(self):
        T = se3.Pose(*se3.exp_arrays(np.zeros(6)))
        np.testing.assert_array_equal(T.quat, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(T.trans, [0.0, 0.0, 0.0])

    def test_exp_axis_angle(self):
        T = se3.Pose(*se3.exp_arrays([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0]))
        half = math.pi / 4
        np.testing.assert_allclose(T.quat, [math.cos(half), 0.0, 0.0, math.sin(half)], atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            xi = np.concatenate([rng.uniform(-2.0, 2.0, 3), rng.uniform(-10.0, 10.0, 3)])
            if np.linalg.norm(xi[:3]) >= math.pi - 1e-3:
                continue
            np.testing.assert_allclose(se3.log_arrays(*se3.exp_arrays(xi)), xi, atol=1e-9)

    def test_round_trip_small_angles(self):
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1e-6, 1e-9):
            xi = np.concatenate([scale * rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            np.testing.assert_allclose(se3.log_arrays(*se3.exp_arrays(xi)), xi, atol=1e-12)

    def test_cross_gives_the_bits_of_np_cross(self):
        """se3.cross, the component formula exp_arrays, log_arrays and the
        solver's gradient take in place of np.cross, gives np.cross's bits on
        a stack and on one vector, across magnitudes and with inf and NaN."""
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 200, 3)) * 10.0 ** rng.integers(-150, 150, size=(2, 200, 1))
        a[:3, 0], b[3:6, 1] = [np.inf, -np.inf, np.nan], [np.nan, np.inf, 0.0]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for x, y in ((a, b), (a[7], b[7]), (a[0], b[0])):
                assert se3.cross(x, y).tobytes() == np.cross(x, y).tobytes()


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
        assert_poses_close(se3.retract(T, d), composed(se3.Pose(*se3.exp_arrays(d)), T))


@st.composite
def near_unit_quats(draw):
    """Quaternions with w of either sign: unit ones scaled by 1 + d, with d
    up to 3e-12 or a few ulps from +-1e-12, where the norm test's rounding
    picks the branch, or of any norm from 0.01 to 100."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    if np.linalg.norm(q) < 1e-3:
        q = np.array([0.0, 0.0, 0.0, 1.0])
    q = q / np.linalg.norm(q)
    scale = draw(st.sampled_from(["near", "threshold", "any"]))
    if scale == "near":
        return q * (1.0 + draw(st.floats(-3e-12, 3e-12)))
    if scale == "threshold":
        return q * (1.0 + draw(st.sampled_from([-1e-12, 1e-12])) + draw(st.integers(-4, 4)) * 2.0**-52)
    return q * draw(st.floats(0.01, 100.0))


class TestQuaternionInvariants:
    def test_unit_norm_after_operations(self):
        rng = np.random.default_rng(6)
        T = rand_pose(rng)
        for _ in range(100):
            T = composed(T, rand_pose(rng))
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
            R = se3.quat_to_matrix(T.quat)
            np.testing.assert_allclose(se3.matrix_to_quat(R), T.quat, atol=1e-9)

    def test_batched_matrix_to_quat_is_bit_identical(self):
        """A stack of matrices gives, row for row, the bits that each matrix
        gives alone, and those of Shepperd's scalar branches, on each of the
        four branches and at w = 0; and gives each matrix's bits alone where
        the quaternion's norm is within ulps of the renormalization
        threshold."""
        rng = np.random.default_rng(8)
        angles = {0: 0.4, 1: 3.0, 2: 3.0, 3: 3.0}  # branch 0 needs tr > 0, the others a large angle
        mats = []
        for branch, angle in angles.items():
            for _ in range(5):
                axis = rng.normal(size=3) * 0.2
                axis[max(branch - 1, 0)] = 1.0
                quat = se3.exp_arrays(np.r_[angle * axis / np.linalg.norm(axis), 0, 0, 0])[0]
                mats.append(se3.quat_to_matrix(quat))
        mats += [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]  # w = 0
        mats += [se3.quat_to_matrix(rand_pose(rng).quat) for _ in range(20)]
        mats = np.array(mats)
        branches = [_shepperd_branch(R) for R in mats]
        assert set(branches) == {0, 1, 2, 3}
        batch = se3.matrix_to_quat(mats)
        single = np.array([se3.matrix_to_quat(R) for R in mats])
        scalar = np.array([_shepperd_scalar(R) for R in mats])
        assert batch.tobytes() == single.tobytes() == scalar.tobytes()
        np.testing.assert_array_equal(batch[20:23], [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert se3.matrix_to_quat(mats[:0]).shape == (0, 4)

        # rotations scaled by 1 +- 2e-12 and a few ulps: their quaternions'
        # norms sit at the 1e-12 threshold, where the norm's rounding decides
        # whether a row is renormalized
        rng = np.random.default_rng(11)
        u = rng.normal(size=(3000, 4))
        u /= np.linalg.norm(u, axis=1)[:, None]
        scales = 1.0 + np.array([-2e-12, 2e-12])[:, None] + np.arange(-8, 9) * 2.0**-52
        near = (se3.quat_to_matrix(u)[:, None, None] * scales[None, :, :, None, None]).reshape(-1, 3, 3)
        single = np.array([se3.matrix_to_quat(R) for R in near])
        assert se3.matrix_to_quat(near).tobytes() == single.tobytes()

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            se3.Pose(np.zeros(4), np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(near_unit_quats(), min_size=1, max_size=8))
    def test_unstack_makes_each_quaternion_as_one_at_a_time(self, quats):
        """A batch gives, row for row, the bits of one quaternion made
        canonical alone, by the oracle and by `Pose`, with w < 0, far from
        unit norm, and within a few 1e-12 of it, where the norm test picks
        the branch."""
        quats = np.array(quats)
        poses = se3.unstack(quats, np.zeros((len(quats), 3)))
        expected = np.array([canonical_quat(q) for q in quats])
        assert np.array([p.quat for p in poses]).tobytes() == expected.tobytes()
        assert np.array([se3.Pose(q, np.zeros(3)).quat for q in quats]).tobytes() == expected.tobytes()

    def test_unstack_at_the_norm_threshold(self):
        """Unit quaternions scaled to a few ulps from 1 +- 1e-12: about one in
        a hundred is kept or renormalized according to how the norm is
        rounded, so the batch and `Pose` must round it as `q @ q` does."""
        rng = np.random.default_rng(9)
        u = rng.uniform(-1.0, 1.0, (2000, 4))
        u /= np.linalg.norm(u, axis=1)[:, None]
        scales = 1.0 + np.array([-1e-12, 1e-12])[:, None] + np.arange(-4, 5) * 2.0**-52
        quats = (u[:, None, None, :] * scales[None, :, :, None]).reshape(-1, 4)
        poses = se3.unstack(quats, np.zeros((len(quats), 3)))
        expected = np.array([canonical_quat(q) for q in quats])
        assert np.array([p.quat for p in poses]).tobytes() == expected.tobytes()
        assert np.array([se3.Pose(q, np.zeros(3)).quat for q in quats]).tobytes() == expected.tobytes()


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
