import math
import weakref

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from robustpgo import em, se3, solver
from robustpgo.model import (
    Hyperparams,
    LoopClosureConstraint,
    MatchTable,
    OdometryConstraint,
    PosteriorState,
    ProblemGraph,
)
from robustpgo.solver import KERNEL_CAUCHY, KERNEL_SQUARED, Problem, build_problem, solve

from robustpgo.synth import ScenarioConfig, generate
from oracle import (
    EntryPattern,
    ResidualBlock,
    block6_cross,
    block_cost,
    finite_difference_gradient,
    hessian_blocks,
    pose_difference,
    residual_and_jacobian,
    solve_poses,
)
from test_model import chain_poses


# test ids by each kernel's rho: ln(1 + s/sigma^2) and s
KERNEL_IDS = ["cauchy-log", "squared"]


def random_block(rng, kernel):
    return ResidualBlock(
        0,
        1,
        rng.uniform(-3, 3, 3),
        rng.uniform(-3, 3, 3),
        float(rng.uniform(0.05, 1.0)),
        kernel,
        sigma=float(rng.uniform(0.2, 1.0)),
    )


def random_problem(rng, kernel):
    """Several constraints of a few random matches each over three poses,
    two of them on the same pair, with random per-constraint weights."""
    pairs = [(0, 1), (0, 1), (1, 2), (0, 2)]
    constraints = [
        LoopClosureConstraint(i, j, rng.uniform(-2, 2, (k, 3)), rng.uniform(-2, 2, (k, 3)))
        for (i, j), k in zip(pairs, (1, 3, 4, 2))
    ]
    weights = rng.uniform(0.1, 1.0, len(pairs))
    return Problem(MatchTable.from_constraints(constraints), weights, kernel, sigma=0.5)


def stepped_objective(problem, poses):
    """The objective LM evaluates, as a function of one twist step of every pose."""

    quats, trans = se3.stack(poses)

    def objective(delta):
        q, t = solver._retract_all(quats, trans, delta, gauge=-1)  # no pose held fixed
        return problem.objective(solver._evaluate(problem, q, t))

    return objective


def lm_terms(problem, poses):
    """The objective, gradient and H blocks LM forms at the given poses, from
    one evaluation of them."""
    state = solver._evaluate(problem, *se3.stack(poses))
    return (problem.objective(state), *solver._assemble(problem, state))


def random_pose_pair(rng):
    return [
        se3.exp(np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-2, 2, 3)]))
        for _ in range(2)
    ]


def per_match_blocks(problem):
    """The problem spelled out as one independent ResidualBlock per match."""
    t = problem.table
    return [
        ResidualBlock(
            int(t.pairs[c, 0]), int(t.pairs[c, 1]), t.p[m], t.q[m],
            float(problem.weights[c]), problem.kernel, problem.sigma,
        )
        for m, c in enumerate(t.seg)
    ]


def dense_hessian(blocks, pairs, num_poses):
    """H as a dense (6N, 6N) array, each of _assemble's blocks added at its pose pair."""
    i, j = pairs[:, 0], pairs[:, 1]
    H = np.zeros((num_poses, 6, num_poses, 6))
    for a, b, block in zip(np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]), blocks):
        H[a, :, b, :] += block
    return H.reshape(6 * num_poses, 6 * num_poses)


def kept_pattern(problem, num_poses):
    """The pattern a solve of the problem over num_poses poses factors in."""
    kept = problem.weights * problem.table.sizes >= solver.SUBGRAPH_POSTERIOR
    return solver._kept_pattern(problem.table, num_poses, kept)


def every_pair_pattern(pairs, num_poses=12):
    """The pattern of the pairs over num_poses poses, ordered by all of them."""
    return solver._Pattern(pairs, num_poses, np.ones(len(pairs), dtype=bool))


def natural(system, pattern):
    """A factored system, in the pattern's order, back in free-dof order."""
    return system[np.ix_(pattern.pos, pattern.pos)]


def pair_weights(problem, pair):
    """Per-match weights of the matches that couple the given pose pair."""
    t = problem.table
    on_pair = (t.pairs[t.seg] == pair).all(axis=1)
    return problem.weights[t.seg][on_pair]


def noisy_chain_graph(rng, n=20, k=8, noise=0.05):
    poses = chain_poses(rng, n)
    constraints = []
    for i in range(n - 1):
        mid = 0.5 * (poses[i].trans + poses[i + 1].trans)
        world = mid + rng.uniform(-4.0, 4.0, (k, 3))
        p = se3.transform_points(se3.inverse(poses[i]), world)
        q = se3.transform_points(se3.inverse(poses[i + 1]), world) + rng.normal(
            scale=noise, size=(k, 3)
        )
        constraints.append(OdometryConstraint(i, p, q))
    return ProblemGraph(n, constraints, []), poses


class TestBuildProblem:
    def test_odometry_weights(self):
        rng = np.random.default_rng(0)
        poses = chain_poses(rng, 2)
        graph = ProblemGraph(
            2, [OdometryConstraint(0, np.zeros((4, 3)), np.zeros((4, 3)))], []
        )
        for mode, kernel in (("cauchy", KERNEL_CAUCHY), ("gaussian", KERNEL_SQUARED)):
            problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams(mode=mode))
            assert len(problem) == 4
            assert problem.kernel == kernel
            assert all(w == 0.25 for w in pair_weights(problem, (0, 1)))

    def test_zero_posterior_disables_loop(self):
        graph = ProblemGraph(
            4,
            [OdometryConstraint(i, np.zeros((3, 3)), np.zeros((3, 3))) for i in range(3)],
            [LoopClosureConstraint(0, 3, np.zeros((5, 3)), np.zeros((5, 3)))],
        )
        problem = build_problem(graph, PosteriorState(1.0, np.array([0.0])), Hyperparams())
        loop_weights = pair_weights(problem, (0, 3))
        assert len(loop_weights) == 5 and all(w == 0.0 for w in loop_weights)

    def test_loop_weight_arithmetic(self):
        graph = ProblemGraph(
            4,
            [OdometryConstraint(i, np.zeros((3, 3)), np.zeros((3, 3))) for i in range(3)],
            [LoopClosureConstraint(0, 2, np.zeros((200, 3)), np.zeros((200, 3)))],
        )
        problem = build_problem(graph, PosteriorState(1.0, np.array([0.8])), Hyperparams())
        loop_weights = pair_weights(problem, (0, 2))
        assert len(loop_weights) == 200
        assert all(w == pytest.approx(0.004, rel=1e-12) for w in loop_weights)

    def test_posterior_count_mismatch(self):
        graph = ProblemGraph(
            4,
            [OdometryConstraint(i, np.zeros((3, 3)), np.zeros((3, 3))) for i in range(3)],
            [LoopClosureConstraint(0, 2, np.zeros((5, 3)), np.zeros((5, 3)))],
        )
        with pytest.raises(ValueError):
            build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())


class TestGradients:
    def test_zero_residual_zero_gradient(self):
        poses = [se3.identity(), se3.identity()]
        b = ResidualBlock(0, 1, np.ones(3), np.ones(3), 1.0, KERNEL_CAUCHY, sigma=0.5)
        cost, gi, gj = residual_and_jacobian(b, poses)
        assert cost == 0.0
        np.testing.assert_array_equal(gi, np.zeros(6))
        np.testing.assert_array_equal(gj, np.zeros(6))

    def test_squared_kernel_hand_gradient(self):
        """Identity poses, p - q = (1,0,0): cost 1, translation gradients +-2."""
        poses = [se3.identity(), se3.identity()]
        b = ResidualBlock(0, 1, np.array([1.0, 0, 0]), np.zeros(3), 1.0, KERNEL_SQUARED)
        cost, gi, gj = residual_and_jacobian(b, poses)
        assert cost == pytest.approx(1.0)
        np.testing.assert_allclose(gi[3:], [2.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(gj[3:], [-2.0, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED], ids=KERNEL_IDS)
    def test_finite_difference_sweep(self, kernel):
        """Analytic gradient vs central differences on 1000 random blocks."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            poses = random_pose_pair(rng)
            b = random_block(rng, kernel)
            _, gi, gj = residual_and_jacobian(b, poses)
            fi, fj = finite_difference_gradient(b, poses)
            analytic = np.concatenate([gi, gj])
            numeric = np.concatenate([fi, fj])
            scale = max(np.abs(analytic).max(), 1e-8)
            worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
        assert worst < 1e-5

    def test_group_assembly_matches_per_block_sum(self):
        """The flat objective and gradient must equal the sums of single-block
        costs and gradients."""
        rng = np.random.default_rng(7)
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(3)]
        for kernel in (KERNEL_CAUCHY, KERNEL_SQUARED):
            problem = random_problem(rng, kernel)
            blocks = per_match_blocks(problem)
            total, grad, _ = lm_terms(problem, poses)
            expected_total = sum(block_cost(b, poses[b.i], poses[b.j]) for b in blocks)
            expected_grad = np.zeros(18)
            for b in blocks:
                _, gi, gj = residual_and_jacobian(b, poses)
                expected_grad[6 * b.i : 6 * b.i + 6] += gi
                expected_grad[6 * b.j : 6 * b.j + 6] += gj
            assert total == pytest.approx(expected_total, rel=1e-12)
            np.testing.assert_allclose(grad, expected_grad, atol=1e-12)

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED], ids=KERNEL_IDS)
    def test_assembled_gradient_and_hessian_match_finite_differences(self, kernel):
        """The gradient and H that LM uses, against finite differences of the
        objective it minimizes under its own retraction: central differences
        for the gradient, and second differences for H at a zero-residual
        problem. With every residual zero, the terms Gauss-Newton drops vanish
        for either kernel, so H is the exact Hessian there."""
        rng = np.random.default_rng(8)
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(3)]
        problem = random_problem(rng, kernel)
        objective = stepped_objective(problem, poses)
        _, grad, _ = lm_terms(problem, poses)
        h = 1e-6
        numeric = np.array(
            [(objective(h * u) - objective(-h * u)) / (2 * h) for u in np.eye(18)]
        )
        assert np.abs(numeric - grad).max() <= 1e-6 * np.abs(grad).max()

        # exact correspondences: every residual is zero at these poses
        t = problem.table
        quats, trans = se3.stack(poses)
        rots = se3.quat_to_matrix(quats)
        world = rng.uniform(-3, 3, (len(t), 3))
        i, j = t.pairs[t.seg, 0], t.pairs[t.seg, 1]
        p = np.einsum("mba,mb->ma", rots[i], world - trans[i])
        q = np.einsum("mba,mb->ma", rots[j], world - trans[j])
        exact = Problem(MatchTable(t.pairs, t.sizes, p, q), problem.weights, kernel, 0.5)
        total, grad, blocks = lm_terms(exact, poses)
        assert total < 1e-25 and np.abs(grad).max() < 1e-12
        exact_objective = stepped_objective(exact, poses)
        h = 1e-5
        basis = h * np.eye(18)
        numeric = np.array(
            [
                [
                    (
                        exact_objective(a + b)
                        - exact_objective(a - b)
                        - exact_objective(b - a)
                        + exact_objective(-a - b)
                    )
                    / (4 * h * h)
                    for b in basis
                ]
                for a in basis
            ]
        )
        assembled = dense_hessian(blocks, t.pairs, 3)
        assert np.abs(assembled - assembled.T).max() <= 1e-14 * np.abs(assembled).max()
        assert np.abs(numeric - assembled).max() <= 1e-6 * np.abs(assembled).max()

    def test_curvature_hessian_matches_finite_differences_at_nonzero_residual(self):
        """With the residual-curvature term, H is the exact Hessian of the
        squared-kernel objective under LM's retraction, residuals or not;
        the Gauss-Newton H misses it by far at these residuals."""
        rng = np.random.default_rng(8)
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(3)]
        problem = random_problem(rng, KERNEL_SQUARED)
        objective = stepped_objective(problem, poses)
        state = solver._evaluate(problem, *se3.stack(poses))
        assert np.sqrt(problem.table.frame_residuals(state.rots, state.trans)[1]).min() > 0.1
        h = 1e-4
        basis = h * np.eye(18)
        numeric = np.array(
            [
                [
                    (objective(a + b) - objective(a - b) - objective(b - a) + objective(-a - b))
                    / (4 * h * h)
                    for b in basis
                ]
                for a in basis
            ]
        )
        _, blocks = solver._assemble(problem, state, curvature=True)
        assembled = dense_hessian(blocks, problem.table.pairs, 3)
        gauss_newton = dense_hessian(solver._assemble(problem, state)[1], problem.table.pairs, 3)
        np.testing.assert_array_equal(assembled, assembled.T)
        assert np.abs(numeric - assembled).max() <= 1e-6 * np.abs(assembled).max()
        assert np.abs(numeric - gauss_newton).max() > 0.1 * np.abs(assembled).max()

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED], ids=KERNEL_IDS)
    def test_assembly_far_from_the_origin_matches_per_match_oracle(self, kernel):
        """About 1 km from the world origin, where the t_i terms of the world
        moments that _assemble rebuilds from local ones dominate, its gradient
        and H, with and without the curvature term, equal the per-match sums
        of the world-frame oracle (rel 1e-12 of the largest entry)."""
        rng = np.random.default_rng(9)
        offset = np.array([700.0, -650.0, 300.0])
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(3)]
        poses = [se3.Pose(p.quat, p.trans + offset) for p in poses]
        problem = random_problem(rng, kernel)
        state = solver._evaluate(problem, *se3.stack(poses))
        blocks = per_match_blocks(problem)
        expected_grad = np.zeros(18)
        for b in blocks:
            _, gi, gj = residual_and_jacobian(b, poses)
            expected_grad[6 * b.i : 6 * b.i + 6] += gi
            expected_grad[6 * b.j : 6 * b.j + 6] += gj
        for curvature in (False, True):
            grad, assembled = solver._assemble(problem, state, curvature)
            expected = np.zeros((3, 6, 3, 6))
            for b in blocks:
                h_ii, h_jj, h_ij = hessian_blocks(b, poses, curvature)
                expected[b.i, :, b.i] += h_ii
                expected[b.j, :, b.j] += h_jj
                expected[b.i, :, b.j] += h_ij
                expected[b.j, :, b.i] += h_ij.T
            expected = expected.reshape(18, 18)
            assert np.abs(grad - expected_grad).max() <= 1e-12 * np.abs(expected_grad).max()
            hessian = dense_hessian(assembled, problem.table.pairs, 3)
            assert np.abs(hessian - expected).max() <= 1e-12 * np.abs(expected).max()


class TestBlock6:
    def test_index_built_skew_blocks_match_np_cross(self):
        """_block6 places [v]x by index; every entry it fills equals the
        np.cross form's (tests/oracle.py) bit for bit, and the entries that
        are zero by construction are zero in both."""
        rng = np.random.default_rng(31)
        gram, upper, lower, corner = (rng.normal(size=(50,) + shape) for shape in ((3, 3), (3,), (3,), ()))
        out, expected = solver._block6(gram, upper, lower, corner), block6_cross(gram, upper, lower, corner)
        entries = solver._BLOCK_ENTRIES
        flat, flat_expected = out.reshape(50, 36), expected.reshape(50, 36)
        assert flat[:, entries].tobytes() == flat_expected[:, entries].tobytes()
        np.testing.assert_array_equal(out, expected)
        assert not np.delete(flat, entries, axis=1).any()


class TestEvaluate:
    def test_errors_do_not_depend_on_the_world_origin(self):
        """Shifting every pose by (2^20, 0, 0) leaves the errors and the
        objective bit-identical: with translations on a 2^-10 grid, the
        differences t_j - t_i of the relative poses are exact either way."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=4))
        from robustpgo.model import initialize_poses

        problem = build_problem(graph, PosteriorState(1.0, np.full(len(graph.loops), 0.5)), Hyperparams())
        quats, trans = initialize_poses(graph)
        trans = np.round(trans * 1024.0) / 1024.0
        state = solver._evaluate(problem, quats, trans)
        shifted = solver._evaluate(problem, quats, trans + [2.0**20, 0.0, 0.0])
        assert problem.objective(state) > 0.0 and state.errors.min() > 0.0
        np.testing.assert_array_equal(shifted.errors, state.errors)
        assert problem.objective(shifted) == problem.objective(state)


def moment_path_problem(rng, offset=0.0):
    """A squared-kernel problem over four poses about `offset` from the world
    origin: constraints of 1 and 2 matches, a collinear one, two of 5 and 7
    matches with 5 cm noise and an outlier loop of 6 unrelated matches. Its
    poses are returned too."""
    twists = np.hstack([rng.uniform(-1, 1, (4, 3)), rng.uniform(-3, 3, (4, 3)) + offset])
    poses = [se3.exp(twist) for twist in twists]
    constraints = []
    for (i, j), k, shape in (
        ((0, 1), 1, "noisy"), ((0, 1), 2, "noisy"), ((1, 2), 6, "collinear"),
        ((0, 2), 5, "noisy"), ((2, 3), 7, "noisy"), ((0, 3), 6, "outlier"),
    ):
        world = poses[i].trans + rng.uniform(-2, 2, (k, 3))
        if shape == "collinear":
            world = poses[i].trans + np.outer(rng.uniform(-2, 2, k), rng.normal(size=3))
        p = se3.transform_points(se3.inverse(poses[i]), world)
        q = se3.transform_points(se3.inverse(poses[j]), world) + rng.normal(scale=0.05, size=(k, 3))
        if shape == "outlier":
            q = rng.uniform(-2, 2, (k, 3))
        constraints.append(LoopClosureConstraint(i, j, p, q))
    weights = rng.uniform(0.1, 1.0, len(constraints))
    return Problem(MatchTable.from_constraints(constraints), weights, KERNEL_SQUARED), poses


def turned(rng, poses, angle):
    """The poses, each but pose 0 left-retracted by a rotation of the given
    angle about a random axis and a random shift: each constraint on pose 0
    turns by that angle."""
    axes = rng.normal(size=(len(poses), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    twists = np.hstack([angle * axes, rng.uniform(-0.5, 0.5, (len(poses), 3))])
    twists[0] = 0.0
    return [se3.retract(pose, twist) for pose, twist in zip(poses, twists)]


ANGLES = [1e-7, 1e-3, 0.3, 1.0, 2.0, math.pi - 1e-6, math.pi]


class TestMomentPath:
    """Under the squared kernel an LM trial is evaluated from its start
    state's anchor and the table's moments, with no pass over the matches."""

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_anchored_sums_match_the_per_match_sums(self, offset):
        """At states turned up to pi from the anchor, also 1 km from the world
        origin, each constraint's anchored sum of |e_i|^2 equals
        frame_residuals + segment_sum (rel 1e-12), for constraints of 1 and 2
        matches, collinear ones and an outlier loop."""
        rng = np.random.default_rng(60)
        problem, poses = moment_path_problem(rng, offset)
        table = problem.table
        anchor = solver._evaluate(problem, *se3.stack(poses))
        exact = table.segment_sum(table.frame_residuals(anchor.rots, anchor.trans)[1])
        assert anchor.sums.tobytes() == exact.tobytes()
        for angle in ANGLES:
            quats, trans = se3.stack(turned(rng, poses, angle))
            state = solver._evaluate(problem, quats, trans, anchor.anchor)
            expected = table.segment_sum(table.frame_residuals(state.rots, state.trans)[1])
            assert state.finite and (np.abs(state.sums - expected) <= 1e-12 * expected).all()
            objective = problem.objective(solver._evaluate(problem, quats, trans))
            assert problem.objective(state) == pytest.approx(objective, rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_gradient_and_hessian_at_anchored_states_match_the_per_match_oracle(self, offset):
        """The gradient and H, with and without the curvature term, assembled
        at states turned up to pi from the anchor equal the per-match sums of
        the world-frame oracle (rel 1e-12 of the largest entry)."""
        rng = np.random.default_rng(61)
        problem, poses = moment_path_problem(rng, offset)
        anchor = solver._evaluate(problem, *se3.stack(poses)).anchor
        blocks = per_match_blocks(problem)
        for angle in [0.0, *ANGLES]:
            at = turned(rng, poses, angle) if angle else poses
            state = solver._evaluate(problem, *se3.stack(at), anchor)
            expected_grad = np.zeros(24)
            for b in blocks:
                _, gi, gj = residual_and_jacobian(b, at)
                expected_grad[6 * b.i : 6 * b.i + 6] += gi
                expected_grad[6 * b.j : 6 * b.j + 6] += gj
            for curvature in (False, True):
                grad, assembled = solver._assemble(problem, state, curvature)
                expected = np.zeros((4, 6, 4, 6))
                for b in blocks:
                    h_ii, h_jj, h_ij = hessian_blocks(b, at, curvature)
                    expected[b.i, :, b.i] += h_ii
                    expected[b.j, :, b.j] += h_jj
                    expected[b.i, :, b.j] += h_ij
                    expected[b.j, :, b.i] += h_ij.T
                expected = expected.reshape(24, 24)
                assert np.abs(grad - expected_grad).max() <= 1e-12 * np.abs(expected_grad).max()
                hessian = dense_hessian(assembled, problem.table.pairs, 4)
                assert np.abs(hessian - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("size", [1e154, 1e200, 1e308])
    def test_huge_coordinates_keep_a_finite_objective_finite(self, size):
        """Matches whose coordinates square past the float range, at exact
        correspondences: wherever the per-match objective is finite (at the
        anchor, a shift away, and for 1e154 a small turn away), so are the
        anchored sums, from moments of points scaled before they are formed,
        and they agree; where it is not, neither are they."""
        rng = np.random.default_rng(62)
        world = size * rng.uniform(-0.9, 0.9, (5, 3))
        constraints = [LoopClosureConstraint(0, 1, world, world), OdometryConstraint(0, world[:3], world[:3])]
        problem = Problem(MatchTable.from_constraints(constraints), np.ones(2), KERNEL_SQUARED)
        table = problem.table
        for name in ("pp", "qq", "pq"):
            assert np.isfinite(getattr(table.moments, name)).all()
        poses = [se3.identity(), se3.identity()]
        anchor = solver._evaluate(problem, *se3.stack(poses))
        assert anchor.finite and problem.objective(anchor) == 0.0
        finite = []
        for twist in (np.zeros(6), np.array([0, 0, 0, 1e-3, 0, 0]), np.array([1e-3, 0, 0, 0, 0, 0])):
            quats, trans = se3.stack([poses[0], se3.retract(poses[1], twist)])
            state = solver._evaluate(problem, quats, trans, anchor.anchor)
            expected = table.segment_sum(table.frame_residuals(state.rots, state.trans)[1])
            finite.append(bool(np.isfinite(expected).all()))
            assert state.finite == finite[-1]
            if finite[-1]:
                np.testing.assert_allclose(state.sums, expected, rtol=1e-9)
        assert finite == [True, True, size == 1e154]

    @pytest.mark.parametrize("value", [np.nan, 1e154, 1e200, 1e308])
    def test_nonfinite_residual_names_the_match_under_either_kernel(self, value):
        """A match whose residual is not finite at the start poses fails the
        solve with the error that names its constraint and match, the same
        under either kernel."""
        rng = np.random.default_rng(63)
        p, q = rng.uniform(-1, 1, (2, 4, 3))
        p[2] = [value, -value, value]
        constraints = [OdometryConstraint(0, q, q), LoopClosureConstraint(0, 2, p, q)]
        constraints.append(OdometryConstraint(1, q, q))
        poses = [se3.identity()] * 3
        messages = set()
        for kernel in (KERNEL_CAUCHY, KERNEL_SQUARED):
            problem = Problem(MatchTable.from_constraints(constraints), np.ones(3), kernel)
            with pytest.raises(solver.SolverError) as exc:
                solve_poses(problem, poses)
            messages.add(str(exc.value))
        assert messages == {"non-finite residual in constraint 1 (i=0, j=2, match 2)"}


class TestKernel:
    def test_cauchy_kernel_past_the_float_range(self):
        """ln(1 + s / sigma^2) where s / sigma^2 overflows is ln(s) - 2 ln(sigma)."""
        s = np.array([1e308, 1e300, 4.0])
        expected = [
            math.log(1e308) - 2.0 * math.log(0.5),
            math.log1p(4e300),
            math.log1p(16.0),
        ]
        rho = solver._rho(s, KERNEL_CAUCHY, 0.5)
        np.testing.assert_allclose(rho, expected, rtol=1e-15)
        assert rho[0] == pytest.approx(710.583, abs=1e-3)


def gauge_swapped(pairs, gauge):
    """The pairs with poses 0 and gauge swapped, so that the couplings of
    pose gauge sit at pose 0, the pattern's gauge, and the permutation
    (its own inverse) that maps a pose to the one it swapped with."""
    perm = np.arange(4)
    perm[[0, gauge]] = perm[[gauge, 0]]
    return perm[pairs], perm


def assert_entry_level_systems(pairs, num_poses, kept, blocks, damping):
    """The pattern's full and subgraph systems store the indptr, indices and
    data of the entry-level construction's, bit for bit, in the same order."""
    pattern, entries = solver._Pattern(pairs, num_poses, kept), EntryPattern(pairs, num_poses, kept)
    np.testing.assert_array_equal(pattern.pos, entries.pos)
    for subgraph in (False, True):
        system, expected = pattern.matrix(blocks, damping, subgraph), entries.matrix(blocks, damping, subgraph)
        np.testing.assert_array_equal(system.indptr, expected.indptr)
        np.testing.assert_array_equal(system.indices, expected.indices)
        assert system.data.tobytes() == expected.data.tobytes()


class TestPattern:
    @pytest.mark.parametrize("gauge", [0, 2, 3])
    def test_refilled_system_matches_dense(self, gauge):
        """H[6:, 6:] + damping I, with the couplings of pose 0, 2 or 3 at
        the gauge, pose 0: the gauge is coupled to every pose, to some, or
        to none, when pose 3 sits there, which is coupled to no other."""
        rng = np.random.default_rng(40 + gauge)
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(4)]
        problem = random_problem(rng, KERNEL_CAUCHY)
        pairs, perm = gauge_swapped(problem.table.pairs, gauge)
        _, grad, blocks = lm_terms(problem, poses)
        grad = grad.reshape(4, 6)[perm].ravel()  # in the swapped poses' order
        expected = dense_hessian(blocks, pairs, 4)[6:, 6:] + 0.3 * np.eye(18)

        pattern = every_pair_pattern(pairs, 4)
        np.testing.assert_array_equal(natural(pattern.matrix(blocks, 0.3).toarray(), pattern), expected)
        taken = pattern.take(grad)
        np.testing.assert_array_equal(taken[pattern.pos], grad[6:])
        back = pattern.put(taken)
        np.testing.assert_array_equal(back[6:], grad[6:])
        assert not back[:6].any()

    @pytest.mark.parametrize("gauge", [0, 2, 3])
    def test_diagonal_owns_its_memory(self, gauge):
        """The diagonal slots are an array of their own, not a view that keeps
        np.unique's whole inverse alive: slot d holds entry (d, d) of the
        system, as the matrix stores it."""
        problem = random_problem(np.random.default_rng(45 + gauge), KERNEL_CAUCHY)
        pairs, _ = gauge_swapped(problem.table.pairs, gauge)
        pattern = every_pair_pattern(pairs, 4)
        for structure in (pattern.full, pattern.subgraph):
            assert structure.diagonal.base is None
            columns = np.searchsorted(structure.indptr, structure.diagonal, side="right") - 1
            np.testing.assert_array_equal(columns, np.arange(18))
            np.testing.assert_array_equal(structure.indices[structure.diagonal], np.arange(18))

    @pytest.mark.parametrize("seed", range(6))
    def test_block_structures_match_the_entry_level_construction(self, seed):
        """The full and subgraph systems built by pose blocks store the
        indptr, indices and filled data of the entry-level construction
        (tests/oracle.py), bit for bit, on random pair sets over 10 poses:
        an odometry chain over poses 0-7, random loops, some at the gauge,
        pose 0, and some left out of the subgraph, pose 8 coupled only by a
        left-out loop, and pose 9 coupled to nothing."""
        rng = np.random.default_rng(70 + seed)
        chain = np.stack([np.arange(7), np.arange(1, 8)], axis=1)
        i = rng.integers(0, 6, 10)
        j = np.minimum(i + rng.integers(2, 8, 10), 7)
        loops = np.concatenate([np.stack([i, j], axis=1), [[0, 5], [0, 7], [3, 8]]])
        pairs = np.concatenate([chain, loops])
        kept = np.concatenate([np.ones(len(chain), dtype=bool), rng.random(len(loops)) < 0.5])
        kept[-3], kept[-1] = True, False  # a kept loop at the gauge, and pose 8's left out
        assert_entry_level_systems(pairs, 10, kept, rng.normal(size=(4 * len(pairs), 6, 6)), 0.3)

    def test_block_structures_match_the_entry_level_construction_on_a_scene(self):
        """The same on a circle-100 scene, with its H blocks at ground truth
        and the subgraph of the loops its oracle labels keep."""
        graph = generate(ScenarioConfig(num_fragments=100, seed=0))
        posteriors = np.array([float(graph.oracle_labels[c.pair]) for c in graph.loops])
        problem = build_problem(graph, PosteriorState(1.0, posteriors), Hyperparams())
        kept = problem.weights * problem.table.sizes >= solver.SUBGRAPH_POSTERIOR
        assert 0 < kept.sum() < len(kept)
        _, _, blocks = lm_terms(problem, graph.ground_truth)
        assert_entry_level_systems(problem.table.pairs, 100, kept, blocks, solver.DAMPING_INIT)

    @pytest.mark.parametrize("gauge", [0, 2, 3])
    def test_pose_order_keeps_each_pose_whole(self, gauge):
        """A permutation of the free dofs that moves each pose's six dofs
        together, in order, with the couplings of pose 0, 2 or 3 at the
        gauge, pose 0; pose 3 is coupled to no other."""
        problem = random_problem(np.random.default_rng(50 + gauge), KERNEL_CAUCHY)
        pos = solver._pose_order(gauge_swapped(problem.table.pairs, gauge)[0], 4)
        np.testing.assert_array_equal(np.sort(pos), np.arange(18))
        blocks = pos.reshape(3, 6)
        assert (blocks[:, 0] % 6 == 0).all()
        np.testing.assert_array_equal(blocks - blocks[:, :1], np.tile(np.arange(6), (3, 1)))

    def test_pose_order_fills_no_more_than_scalar_minimum_degree(self):
        """On a circle-100 scene's weighted subgraph, the factor in the
        pose-level order has no more nonzeros than SuperLU's own minimum-degree
        order of the same system in free-dof order."""
        graph = generate(ScenarioConfig(num_fragments=100, seed=0))
        posteriors = np.array([float(graph.oracle_labels[c.pair]) for c in graph.loops])
        problem = build_problem(graph, PosteriorState(1.0, posteriors), Hyperparams())
        pattern = kept_pattern(problem, 100)
        assert 0 < pattern.kept.sum() < len(pattern.kept)
        _, _, blocks = lm_terms(problem, graph.ground_truth)
        subgraph = pattern.matrix(blocks, solver.DAMPING_INIT, subgraph=True)
        pose_ordered = solver._factor(subgraph)
        system = natural(subgraph.toarray(), pattern)
        scalar = splu(
            csc_matrix(system), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        assert pose_ordered.nnz <= scalar.nnz


class TestPatternReuse:
    """One pattern per kept set: solves of the same table object, pose
    count and kept mask share the last pattern built for that table."""

    def test_em_matches_a_fresh_pattern_per_solve(self, monkeypatch):
        """circle-400 seed 0 keeps one loop fewer after its first M-step, so
        its run builds two patterns for three M-steps, and gives the poses,
        posteriors and per-M-step counts of a pattern built for every solve."""
        graph = generate(ScenarioConfig(num_fragments=400, seed=0))
        kept_sets = []
        real = solver._Pattern

        class Pattern(real):
            def __init__(self, pairs, num_poses, kept):
                kept_sets.append(int(kept.sum()))
                super().__init__(pairs, num_poses, kept)

        monkeypatch.setattr(solver, "_Pattern", Pattern)
        shared = em.run_em(graph, Hyperparams())
        assert len(shared[2]) == 3 and len(kept_sets) == 2 and kept_sets[0] == kept_sets[1] + 1
        kept_sets.clear()

        def fresh_pattern(table, num_poses, kept):
            return Pattern(table.pairs, num_poses, kept)

        monkeypatch.setattr(solver, "_kept_pattern", fresh_pattern)
        fresh = em.run_em(graph, Hyperparams())
        assert len(kept_sets) == 3
        for a, b in zip(se3.stack(shared[0]), se3.stack(fresh[0])):
            assert a.tobytes() == b.tobytes()
        assert shared[1].posteriors.tobytes() == fresh[1].posteriors.tobytes()

        def counts(trace):
            return [(it.factorizations, it.pcg_iterations) for it in trace.iterations]

        assert counts(shared[2]) == counts(fresh[2])

    def test_another_key_builds_a_new_pattern(self):
        """Another kept mask, table object or pose count does not get the
        last pattern; each table keeps its own, which goes when its table
        does."""
        problem, _ = two_loop_problem()

        def pattern(table, weights, num_poses=12):
            return kept_pattern(Problem(table, weights, problem.kernel), num_poses)

        table, weights = problem.table, problem.weights.copy()
        first = pattern(table, weights)
        assert pattern(table, weights) is first
        weights[-1] = 0.0  # the 1e-9 loop was left out of the subgraph already: the same kept set
        assert pattern(table, weights) is first
        weights[-1] = 1.0  # kept now
        kept_all = pattern(table, weights)
        assert kept_all is not first and kept_all.kept.all()
        again = pattern(table, problem.weights)
        assert again is not first  # the table held the other mask
        copy = MatchTable(*(getattr(table, name).copy() for name in ("pairs", "sizes", "p", "q")))
        on_copy = pattern(copy, problem.weights)
        assert on_copy is not again and pattern(table, problem.weights) is again
        assert pattern(copy, problem.weights) is on_copy
        assert pattern(table, problem.weights, num_poses=13) is not pattern(table, problem.weights)
        last = weakref.ref(pattern(table, problem.weights))
        del problem, table, first, kept_all, again
        assert last() is None and solver._patterns[copy] is on_copy


class TestRetractAll:
    def random_state(self, rng, n):
        poses = [
            se3.exp(np.concatenate([rng.uniform(-3.0, 3.0, 3), rng.uniform(-5.0, 5.0, 3)]))
            for _ in range(n)
        ]
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate(
            [
                rng.uniform(0.0, 1e-4, 10),  # the small-angle series of exp
                math.pi - rng.uniform(0.0, 1e-6, 10),  # near pi
                rng.uniform(0.0, 2.0 * math.pi, n - 20),  # past pi, exp flips hemisphere
            ]
        )
        delta = np.hstack([axes * angles[:, None], rng.uniform(-2.0, 2.0, (n, 3))])
        return poses, delta

    def test_matches_per_pose_retract(self):
        rng = np.random.default_rng(30)
        poses, delta = self.random_state(rng, 60)
        # the composed quaternion leaves the w >= 0 hemisphere for some poses
        raw = se3.quat_mul(se3.exp_arrays(delta)[0], se3.stack(poses)[0])
        assert (raw[:, 0] < 0.0).any() and (raw[:, 0] > 0.0).any()

        quats, trans = solver._retract_all(*se3.stack(poses), delta.reshape(-1), gauge=-1)
        expected = [se3.retract(p, d) for p, d in zip(poses, delta)]
        np.testing.assert_allclose(quats, [e.quat for e in expected], rtol=0, atol=1e-14)
        np.testing.assert_allclose(trans, [e.trans for e in expected], rtol=1e-14, atol=1e-14)
        assert (quats[:, 0] >= 0.0).all()

    def test_gauge_pose_comes_back_unchanged(self):
        rng = np.random.default_rng(31)
        poses, delta = self.random_state(rng, 30)
        quats, trans = se3.stack(poses)
        out_q, out_t = solver._retract_all(quats, trans, delta.reshape(-1), gauge=7)
        assert out_q[7].tobytes() == quats[7].tobytes()
        assert out_t[7].tobytes() == trans[7].tobytes()
        moved = np.arange(30) != 7
        assert (np.abs(out_t[moved] - trans[moved]).max(axis=1) > 0).all()


def exact_pair_problem(rng, kernel=KERNEL_CAUCHY, k=20):
    """Two fragments with exact correspondences; optimum is the true pair."""
    truth = se3.exp(np.concatenate([rng.uniform(-0.6, 0.6, 3), rng.uniform(-3, 3, 3)]))
    world = rng.uniform(-4, 4, (k, 3))
    p = world
    q = se3.transform_points(se3.inverse(truth), world)
    table = MatchTable.from_constraints([OdometryConstraint(0, p, q)])
    return Problem(table, np.array([1.0 / k]), kernel, sigma=0.5), truth


def two_loop_problem():
    """A 12-pose noisy chain with an exact loop (0, 6) at posterior 1 and a
    random-match loop (2, 9) at posterior 1e-9, and a start near the truth."""
    rng = np.random.default_rng(24)
    graph, truth = noisy_chain_graph(rng, n=12)
    world = rng.uniform(-4.0, 4.0, (10, 3))
    exact = LoopClosureConstraint(
        0, 6, se3.transform_points(se3.inverse(truth[0]), world),
        se3.transform_points(se3.inverse(truth[6]), world),
    )
    outlier = LoopClosureConstraint(2, 9, rng.uniform(-3, 3, (10, 3)), rng.uniform(-3, 3, (10, 3)))
    graph = ProblemGraph(12, graph.odometry, [exact, outlier])
    problem = build_problem(graph, PosteriorState(1.0, np.array([1.0, 1e-9])), Hyperparams())
    start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
    return problem, start


def factor_spy(monkeypatch):
    """Record, as dense arrays, the systems solver.splu factors."""
    factored = []
    real_splu = solver.splu

    def spy(system, **options):
        factored.append(system.toarray())
        return real_splu(system, **options)

    monkeypatch.setattr(solver, "splu", spy)
    return factored


def taken_step(start, out):
    """The twists of every pose but the gauge from start to out, as one vector."""
    step = se3.compose_arrays(*se3.stack(out), *se3.inverse_arrays(*se3.stack(start)))
    return se3.log_arrays(*step)[0][1:].reshape(-1)


class TestSolve:
    def test_stationary_point_takes_no_steps(self):
        rng = np.random.default_rng(10)
        problem, truth = exact_pair_problem(rng)
        poses = [se3.identity(), truth]
        out, report = solve_poses(problem, poses)
        assert report.iterations == 0
        assert report.termination == "gradient"
        for a, b in zip(out, poses):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_recovers_perturbed_pose(self):
        rng = np.random.default_rng(11)
        problem, truth = exact_pair_problem(rng)
        start = [se3.identity(), se3.retract(truth, np.array([0.05, -0.1, 0.08, 0.5, -0.3, 0.2]))]
        out, report = solve_poses(problem, start)
        rot, trans = pose_difference(out[1], truth)
        assert rot < 1e-8 and trans < 1e-8
        assert report.objective_end <= report.objective_start

    def test_objective_matches_first_order_oracle(self):
        """A slow Barzilai-Borwein descent on identical blocks must reach the
        same converged objective (within 1e-6 relative)."""
        rng = np.random.default_rng(12)
        graph, _ = noisy_chain_graph(rng)
        from robustpgo.model import initialize_poses

        init = se3.unstack(*initialize_poses(graph))
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        _, report = solve_poses(problem, init)

        table = problem.table
        i, j = table.pairs[table.seg, 0], table.pairs[table.seg, 1]
        w = problem.weights[table.seg]

        def cost_and_grad(quats, trans):
            at = se3.unstack(quats, trans)
            yi, yj = np.empty((len(table), 3)), np.empty((len(table), 3))
            for (a, b), lo, hi in zip(table.pairs, table.offsets[:-1], table.offsets[1:]):
                yi[lo:hi] = se3.transform_points(at[a], table.p[lo:hi])
                yj[lo:hi] = se3.transform_points(at[b], table.q[lo:hi])
            e = yi - yj
            s = np.einsum("ma,ma->m", e, e)
            total = float(w @ solver._rho(s, problem.kernel, problem.sigma))
            alpha = 2.0 * w * solver._drho(s, problem.kernel, problem.sigma)
            ae = alpha[:, None] * e
            grad = np.zeros((len(quats), 6))
            np.add.at(grad, i, np.hstack([np.cross(yi, ae), ae]))
            np.add.at(grad, j, -np.hstack([np.cross(yj, ae), ae]))
            grad[0] = 0.0  # gauge
            return total, grad.reshape(-1)

        def cost_only(quats, trans):
            return problem.objective(solver._evaluate(problem, quats, trans))

        poses = se3.stack(init)
        f, g = cost_and_grad(*poses)
        step = 1e-4
        prev_g = prev_delta = None
        best_recent = f
        for it in range(20000):
            if np.abs(g).max() < 1e-10:
                break
            if it % 500 == 499:  # stop once progress plateaus at float precision
                if best_recent - f <= 1e-13 * max(f, 1e-300):
                    break
                best_recent = f
            if prev_g is not None:
                dg = g - prev_g
                denom = float(prev_delta @ dg)
                if denom > 0:
                    step = float(prev_delta @ prev_delta) / denom
            step = min(max(step, 1e-12), 1e2)
            while True:
                delta = -step * g
                trial = solver._retract_all(*poses, delta, gauge=0)
                f_new = cost_only(*trial)
                if f_new <= f - 1e-4 * step * float(g @ g) or step < 1e-14:
                    break
                step *= 0.5
            prev_delta, prev_g = delta, g
            poses = trial
            f, g = cost_and_grad(*poses)
        assert abs(f - report.objective_end) / max(report.objective_end, 1e-300) < 1e-6

    def test_gauge_invariance(self):
        """Left-composing all inputs with a rigid transform transforms the output."""
        rng = np.random.default_rng(13)
        graph, _ = noisy_chain_graph(rng, n=8)
        from robustpgo.model import initialize_poses

        init = se3.unstack(*initialize_poses(graph))
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        out_a, _ = solve_poses(problem, init)

        G = se3.exp(np.array([0.3, -0.2, 0.9, 5.0, -2.0, 1.0]))
        init_b = [se3.compose(G, p) for p in init]
        out_b, _ = solve_poses(problem, init_b)
        for a, b in zip(out_a, out_b):
            rot, trans = pose_difference(se3.compose(G, a), b)
            assert rot < 1e-6 and trans < 1e-6

    def test_zero_posteriors_reproduce_odometry_solution_exactly(self):
        rng = np.random.default_rng(14)
        graph, _ = noisy_chain_graph(rng, n=6)
        loop = LoopClosureConstraint(0, 4, rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (5, 3)))
        with_loop = ProblemGraph(6, graph.odometry, [loop])
        from robustpgo.model import initialize_poses

        init = se3.unstack(*initialize_poses(graph))
        params = Hyperparams()
        problem_odo = build_problem(graph, PosteriorState(1.0, np.zeros(0)), params)
        problem_off = build_problem(with_loop, PosteriorState(1.0, np.array([0.0])), params)
        out_a, _ = solve_poses(problem_odo, init)
        out_b, _ = solve_poses(problem_off, init)
        for a, b in zip(out_a, out_b):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_nonfinite_residual_names_block(self):
        poses = [se3.identity(), se3.identity(), se3.identity()]
        bad = LoopClosureConstraint(1, 2, np.array([[np.nan, 0, 0]]), np.zeros((1, 3)))
        problem = Problem(MatchTable.from_constraints([bad]), np.ones(1), KERNEL_SQUARED)
        with pytest.raises(solver.SolverError, match=r"i=1, j=2"):
            solve_poses(problem, poses)

    def test_stalled_when_no_strict_decrease_possible(self, monkeypatch):
        """At the global minimum with GRADIENT_TOL 0, damping escalates until the
        solver gives up and returns its best-so-far."""
        rng = np.random.default_rng(15)
        problem, truth = exact_pair_problem(rng)
        poses = [se3.identity(), truth]
        monkeypatch.setattr(solver, "GRADIENT_TOL", 0.0)
        out, report = solve_poses(problem, poses)
        assert report.termination == "stalled"
        assert report.objective_end <= report.objective_start

    def test_empty_problem_is_a_noop(self):
        poses = [se3.identity(), se3.identity()]
        empty = Problem(MatchTable.from_constraints([]), np.zeros(0), KERNEL_SQUARED)
        out, report = solve_poses(empty, poses)
        assert report.iterations == 0 and report.objective_end == 0.0

    def test_spd_step_matches_dense_solve(self, monkeypatch):
        """One LM step, factored as SPD, against np.linalg.solve on the dense
        damped system that the step solves."""
        rng = np.random.default_rng(17)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        factored = []
        real_splu = solver.splu

        def spy(system, **options):
            factored.append((system.toarray(), options))
            return real_splu(system, **options)

        monkeypatch.setattr(solver, "splu", spy)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        out, report = solve_poses(problem, start)
        assert report.iterations == 1 and report.factorizations == len(factored) == 1
        system, options = factored[0]
        assert options["options"] == {"SymmetricMode": True} and options["permc_spec"] == "NATURAL"

        _, grad, blocks = lm_terms(problem, start)
        H = dense_hessian(blocks, problem.table.pairs, 12)
        dense = H[6:, 6:] + solver.DAMPING_INIT * np.eye(66)
        np.testing.assert_array_equal(natural(system, every_pair_pattern(problem.table.pairs)), dense)
        expected = np.linalg.solve(dense, -grad[6:])
        step = se3.compose_arrays(*se3.stack(out), *se3.inverse_arrays(*se3.stack(start)))
        taken = se3.log_arrays(*step)[0][1:].reshape(-1)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_reused_order_step_matches_dense_solve(self, monkeypatch):
        """The second LM step factors the system in the same pose-level
        order as the first, and still solves the dense damped system of its
        own start."""
        rng = np.random.default_rng(18)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        first, _ = solve_poses(problem, start)
        factored = []
        real_splu = solver.splu

        def spy(system, **options):
            factored.append((system.toarray(), options["permc_spec"]))
            return real_splu(system, **options)

        monkeypatch.setattr(solver, "splu", spy)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 2)
        out, report = solve_poses(problem, start)
        assert report.iterations == 2 and report.factorizations == len(factored) == 2
        assert [spec for _, spec in factored] == ["NATURAL", "NATURAL"]

        _, grad, blocks = lm_terms(problem, first)
        dense = dense_hessian(blocks, problem.table.pairs, 12)[6:, 6:]
        dense += 0.5 * solver.DAMPING_INIT * np.eye(66)  # halved after the first accepted step
        pattern = every_pair_pattern(problem.table.pairs)
        np.testing.assert_array_equal(natural(factored[1][0], pattern), dense)
        expected = np.linalg.solve(dense, -grad[6:])
        step = se3.compose_arrays(*se3.stack(out), *se3.inverse_arrays(*se3.stack(first)))
        taken = se3.log_arrays(*step)[0][1:].reshape(-1)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_factors_the_weighted_subgraph_and_takes_the_full_step(self, monkeypatch):
        """The factored system leaves out the loop at posterior 1e-9, and PCG
        still returns the step of the full damped system."""
        problem, start = two_loop_problem()
        factored = factor_spy(monkeypatch)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        out, report = solve_poses(problem, start)
        assert report.iterations == report.factorizations == len(factored) == 1
        assert report.fallbacks == 0 and report.pcg_iterations >= 1

        _, grad, blocks = lm_terms(problem, start)
        pairs, damping = problem.table.pairs, solver.DAMPING_INIT * np.eye(66)
        kept = np.arange(len(pairs)) != len(pairs) - 1  # all but the 1e-9 loop
        subgraph = dense_hessian(blocks.reshape(4, -1, 6, 6)[:, kept].reshape(-1, 6, 6), pairs[kept], 12)
        system = natural(factored[0], every_pair_pattern(pairs[kept]))
        np.testing.assert_array_equal(system, subgraph[6:, 6:] + damping)
        full = dense_hessian(blocks, pairs, 12)[6:, 6:] + damping
        assert not system[6:12, 48:54].any() and full[6:12, 48:54].any()  # poses 2 and 9
        expected = np.linalg.solve(full, -grad[6:])
        taken = taken_step(start, out)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_factored_subgraph_stores_only_the_weighted_pairs_entries(self, monkeypatch):
        """The factored subgraph stores exactly the entries of a pattern over
        the weighted pairs alone, in the same order, and none in the blocks
        that couple poses 2 and 9, which only the 1e-9 loop fills: SuperLU's
        fill follows the stored entries, zero or not."""
        problem, start = two_loop_problem()
        stored = []
        real_splu = solver.splu

        def spy(system, **options):
            stored.append(system.copy())
            return real_splu(system, **options)

        monkeypatch.setattr(solver, "splu", spy)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        solve_poses(problem, start)
        assert len(stored) == 1
        system, pairs = stored[0], problem.table.pairs
        alone = every_pair_pattern(pairs[:-1])
        np.testing.assert_array_equal(system.indptr, alone.full.indptr)
        np.testing.assert_array_equal(system.indices, alone.full.indices)
        pose = np.empty(66, dtype=int)
        pose[alone.pos] = np.arange(66) // 6 + 1  # the pose of each position; the gauge is pose 0
        rows = pose[system.indices]
        cols = pose[np.repeat(np.arange(66), np.diff(system.indptr))]
        assert not ((rows == 2) & (cols == 9)).any() and not ((rows == 9) & (cols == 2)).any()
        pattern = kept_pattern(problem, 12)
        assert len(pattern.full.indices) > system.nnz

    def test_pcg_miss_falls_back_to_the_full_factor(self, monkeypatch):
        """With no PCG iteration allowed, the trial factors the full damped
        system after the subgraph's and takes its step."""
        problem, start = two_loop_problem()
        monkeypatch.setattr(solver, "PCG_MAX_ITERS", 0)
        factored = factor_spy(monkeypatch)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        out, report = solve_poses(problem, start)
        assert report.iterations == report.factorizations == 1
        assert report.fallbacks == 1 and report.pcg_iterations == 0 and len(factored) == 2

        _, grad, blocks = lm_terms(problem, start)
        full = dense_hessian(blocks, problem.table.pairs, 12)[6:, 6:] + solver.DAMPING_INIT * np.eye(66)
        # the fallback factors the full system in the one pattern's order, the subgraph's
        np.testing.assert_array_equal(natural(factored[1], kept_pattern(problem, 12)), full)
        expected = np.linalg.solve(full, -grad[6:])
        taken = taken_step(start, out)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_negative_curvature_in_pcg_falls_back(self, monkeypatch):
        """A curvature-phase system that the left-out loop makes indefinite:
        the subgraph is positive definite, yet PCG's first direction has
        p^T A p < 0. The trial takes the full system's step, not the CG
        iterate."""
        rng = np.random.default_rng(23)
        graph, truth = noisy_chain_graph(rng, n=12)
        far = LoopClosureConstraint(2, 9, rng.uniform(-1e6, 1e6, (10, 3)), rng.uniform(-1e6, 1e6, (10, 3)))
        graph = ProblemGraph(12, graph.odometry, [far])
        problem = build_problem(graph, PosteriorState(1.0, np.array([1e-9])), Hyperparams(mode="gaussian"))
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.002, size=6)) for p in truth[1:]]
        grad, blocks = solver._assemble(problem, solver._evaluate(problem, *se3.stack(start)), curvature=True)
        pairs, damping = problem.table.pairs, 1e-4
        full = dense_hessian(blocks, pairs, 12)[6:, 6:] + damping * np.eye(66)
        subgraph = dense_hessian(blocks.reshape(4, -1, 6, 6)[:, :-1].reshape(-1, 6, 6), pairs[:-1], 12)
        subgraph = subgraph[6:, 6:] + damping * np.eye(66)
        first = np.linalg.solve(subgraph, -grad[6:])
        assert np.linalg.eigvalsh(subgraph).min() > 0 and first @ full @ first < 0

        factored = factor_spy(monkeypatch)
        pattern = kept_pattern(problem, 12)
        step, iterations, fell_back = solver._step(pattern, blocks, grad, damping)
        assert fell_back and iterations == 1 and len(factored) == 2
        np.testing.assert_array_equal(natural(factored[1], pattern), full)
        expected = np.linalg.solve(full, -grad[6:])
        assert not step[:6].any()
        assert np.abs(step[6:] - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_no_pattern_is_built_while_a_factor_is_alive(self, monkeypatch):
        """A solve builds one pattern, which lives for the rest of the solve,
        before its first factorization, even when every trial falls back (no
        PCG iteration allowed). Built while a factor, and with it SuperLU's
        workspace, held the top of the heap, it would keep that memory
        resident after the solve. Each trial factors its subgraph and each
        fallback the full system, and nothing else is factored."""
        problem, start = two_loop_problem()
        monkeypatch.setattr(solver, "PCG_MAX_ITERS", 0)
        alive = [0]
        real_splu = solver.splu

        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve
                alive[0] += 1

            def __del__(self):
                alive[0] -= 1

        calls = []

        def spy(system, **options):
            calls.append(system.shape)
            return Factor(real_splu(system, **options))

        monkeypatch.setattr(solver, "splu", spy)
        alive_at_build = []

        class Pattern(solver._Pattern):
            def __init__(self, *args):
                alive_at_build.append(alive[0])
                super().__init__(*args)

        monkeypatch.setattr(solver, "_Pattern", Pattern)
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 2)
        _, report = solve_poses(problem, start)
        assert report.factorizations >= 1 and report.fallbacks == report.factorizations
        assert len(calls) == report.factorizations + report.fallbacks
        assert alive_at_build == [0] and alive[0] == 0

    def test_evaluates_each_pose_state_once(self, monkeypatch):
        """The start and every trial are evaluated once; the gradient, H and
        the reported errors of an accepted trial read its evaluation."""
        rng = np.random.default_rng(19)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        calls = []
        real = MatchTable.frame_residuals

        def spy(table, rots, trans):
            calls.append(len(table))
            return real(table, rots, trans)

        monkeypatch.setattr(MatchTable, "frame_residuals", spy)
        _, report = solve_poses(problem, start)
        assert report.iterations >= 2 and report.termination != "gradient"
        assert len(calls) == report.factorizations + 1

    def test_a_handed_state_is_weighed_not_evaluated_again(self, monkeypatch):
        """Given a PoseState evaluated for the problem's table, kernel and
        sigma, a solve evaluates only its trials, and returns the PoseState
        it ends at, with the poses and report of a solve of the same poses
        evaluated afresh. A state evaluated for another sigma is refused
        unevaluated."""
        rng = np.random.default_rng(19)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        expected_poses, expected = solve_poses(problem, start)
        calls = []
        real = MatchTable.frame_residuals

        def spy(table, rots, trans):
            calls.append(len(table))
            return real(table, rots, trans)

        monkeypatch.setattr(MatchTable, "frame_residuals", spy)
        state = em.evaluate_poses(graph.table, *se3.stack(start), problem.kernel, problem.sigma)
        calls.clear()
        out, report = solve(problem, state)
        assert isinstance(out, solver.PoseState) and out.fits(problem)
        assert report.iterations >= 2 and len(calls) == report.factorizations
        for a, b in zip((out.quats, out.trans), se3.stack(expected_poses)):
            assert a.tobytes() == b.tobytes()
        assert {k: np.asarray(v).tobytes() for k, v in vars(report).items()} == {
            k: np.asarray(v).tobytes() for k, v in vars(expected).items()
        }
        other = em.evaluate_poses(graph.table, *se3.stack(start), problem.kernel, 2.0 * problem.sigma)
        calls.clear()
        with pytest.raises(ValueError, match="another table, kernel or sigma"):
            solve(problem, other)
        assert not calls

    def test_assembles_once_per_pass_and_reports_the_last_gradient(self, monkeypatch):
        """Each pass of LM assembles once, the cap's included, and no pass
        follows the last: a solve that ends "objective" and one the cap stops
        each assemble once more than they accept steps, and report the
        gradient norm of a fresh assembly at the poses they return."""
        rng = np.random.default_rng(19)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        real = solver._assemble
        for max_iterations, termination in ((solver.MAX_INNER_ITERS, "objective"), (2, "max_iterations")):
            calls = []

            def spy(*args, **kwargs):
                calls.append(args[1])
                return real(*args, **kwargs)

            monkeypatch.setattr(solver, "MAX_INNER_ITERS", max_iterations)
            monkeypatch.setattr(solver, "_assemble", spy)
            out, report = solve_poses(problem, start)
            monkeypatch.setattr(solver, "_assemble", real)
            assert report.termination == termination and report.iterations >= 2
            assert len(calls) == report.iterations + 1
            grad = solver._assemble(problem, solver._evaluate(problem, *se3.stack(out)))[0]
            assert report.gradient_norm == np.abs(grad[6:]).max()  # the gauge is pose 0

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_reported_errors_are_the_constraint_errors_of_the_returned_poses(self, mode):
        from robustpgo import em

        rng = np.random.default_rng(20)
        graph, truth = noisy_chain_graph(rng, n=10)
        loop = LoopClosureConstraint(0, 6, rng.uniform(-2, 2, (7, 3)), rng.uniform(-2, 2, (7, 3)))
        graph = ProblemGraph(10, graph.odometry, [loop])
        params = Hyperparams(mode=mode, sigma=0.3)
        problem = build_problem(graph, PosteriorState(1.0, np.array([0.6])), params)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        out, report = solve_poses(problem, start)
        assert report.iterations >= 1
        expected = em.evaluate_poses(graph.table, *se3.stack(out), problem.kernel, params.sigma).errors
        assert report.errors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_restart_from_converged_poses_stops_at_once(self, monkeypatch, mode):
        """A solve restarted where another converged finds no trial that moves
        the objective beyond OBJECTIVE_TOL, so it takes no step and returns
        its input poses bit for bit, restart after restart; GRADIENT_TOL 0
        leaves only that test to stop it."""
        rng = np.random.default_rng(21)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams(mode=mode))
        poses, report = solve_poses(problem, start)
        assert report.termination in ("objective", "gradient")
        monkeypatch.setattr(solver, "GRADIENT_TOL", 0.0)
        for _ in range(3):
            out, again = solve_poses(problem, poses)
            assert again.iterations == 0 and again.factorizations <= 2
            assert again.termination in ("objective", "stalled")
            assert again.objective_end == report.objective_end
            for a, b in zip(out, poses):
                assert a.quat.tobytes() == b.quat.tobytes() and a.trans.tobytes() == b.trans.tobytes()
            poses, report = out, again

    def test_curvature_phase_takes_fewer_factorizations(self, monkeypatch):
        """A noisy chain with three outlier loops, cauchy kernel: the hybrid
        solve ends no higher than pure Gauss-Newton from the same start, with
        fewer factorizations."""
        rng = np.random.default_rng(22)
        n = 20
        graph, truth = noisy_chain_graph(rng, n=n, noise=0.3)
        loops = []
        for _ in range(3):
            i = int(rng.integers(0, n - 5))
            j = i + int(rng.integers(3, 5))
            loops.append(
                LoopClosureConstraint(i, j, rng.uniform(-3, 3, (10, 3)), rng.uniform(-3, 3, (10, 3)))
            )
        graph = ProblemGraph(n, graph.odometry, loops)
        problem = build_problem(graph, PosteriorState(1.0, np.full(3, 0.5)), Hyperparams())
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        _, hybrid = solve_poses(problem, start)
        monkeypatch.setattr(solver, "CURVATURE_SWITCH", 0.0)
        _, gauss_newton = solve_poses(problem, start)
        assert gauss_newton.curvature_steps == 0 < hybrid.curvature_steps
        assert hybrid.termination == gauss_newton.termination == "objective"
        assert hybrid.factorizations < gauss_newton.factorizations
        assert hybrid.objective_end <= gauss_newton.objective_end * (1 + 1e-9)

    def test_report_objective_invariant(self):
        rng = np.random.default_rng(16)
        graph, _ = noisy_chain_graph(rng, n=10)
        from robustpgo.model import initialize_poses

        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        _, report = solve_poses(problem, se3.unstack(*initialize_poses(graph)))
        assert report.objective_end <= report.objective_start + 1e-12
