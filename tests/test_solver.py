import math

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from robustpgo import se3, solver
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
    ResidualBlock,
    block_cost,
    finite_difference_gradient,
    hessian_blocks,
    residual_and_jacobian,
)
from test_model import chain_poses


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
        return solver._evaluate(problem, q, t)[2]

    return objective


def lm_terms(problem, poses):
    """The objective, gradient and H blocks LM forms at the given poses, from
    one evaluation of them."""
    residuals, _, objective = solver._evaluate(problem, *se3.stack(poses))
    return (objective, *solver._assemble(problem, residuals, len(poses)))


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

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED])
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

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED])
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
        exact = Problem(MatchTable(t.pairs, t.sizes, t.seg, p, q), problem.weights, kernel, 0.5)
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
        pattern = solver._Pattern(t.pairs, 3, gauge=-1)
        assembled = natural(pattern.matrix(blocks, 0.0).toarray(), pattern)
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
        residuals = solver._evaluate(problem, *se3.stack(poses))[0]
        assert np.sqrt(residuals[3]).min() > 0.1
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
        pattern = solver._Pattern(problem.table.pairs, 3, gauge=-1)
        _, blocks = solver._assemble(problem, residuals, 3, curvature=True)
        assembled = natural(pattern.matrix(blocks, 0.0).toarray(), pattern)
        gauss_newton = pattern.matrix(solver._assemble(problem, residuals, 3)[1], 0.0).toarray()
        gauss_newton = natural(gauss_newton, pattern)
        np.testing.assert_array_equal(assembled, assembled.T)
        assert np.abs(numeric - assembled).max() <= 1e-6 * np.abs(assembled).max()
        assert np.abs(numeric - gauss_newton).max() > 0.1 * np.abs(assembled).max()

    @pytest.mark.parametrize("kernel", [KERNEL_CAUCHY, KERNEL_SQUARED])
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
        residuals = solver._evaluate(problem, *se3.stack(poses))[0]
        blocks = per_match_blocks(problem)
        expected_grad = np.zeros(18)
        for b in blocks:
            _, gi, gj = residual_and_jacobian(b, poses)
            expected_grad[6 * b.i : 6 * b.i + 6] += gi
            expected_grad[6 * b.j : 6 * b.j + 6] += gj
        for curvature in (False, True):
            grad, assembled = solver._assemble(problem, residuals, 3, curvature)
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


class TestEvaluate:
    def test_errors_do_not_depend_on_the_world_origin(self):
        """Shifting every pose by (2^20, 0, 0) leaves the errors and the
        objective bit-identical: with translations on a 2^-10 grid, the
        differences t_j - t_i of the relative poses are exact either way."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=4))
        from robustpgo.model import initialize_poses

        problem = build_problem(graph, PosteriorState(1.0, np.full(len(graph.loops), 0.5)), Hyperparams())
        quats, trans = se3.stack(initialize_poses(graph))
        trans = np.round(trans * 1024.0) / 1024.0
        _, errors, objective = solver._evaluate(problem, quats, trans)
        _, shifted_errors, shifted_objective = solver._evaluate(problem, quats, trans + [2.0**20, 0.0, 0.0])
        assert objective > 0.0 and errors.min() > 0.0
        np.testing.assert_array_equal(shifted_errors, errors)
        assert shifted_objective == objective


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


class TestPattern:
    @pytest.mark.parametrize("gauge", [0, 2, 3])
    def test_refilled_system_matches_dense(self, gauge):
        """H[free][:, free] + damping I, for a gauge that is first, in the
        middle or last; pose 3 is coupled to no other, so only the damping
        fills its diagonal."""
        rng = np.random.default_rng(40 + gauge)
        poses = [se3.exp(rng.uniform(-1, 1, 6)) for _ in range(4)]
        problem = random_problem(rng, KERNEL_CAUCHY)
        pairs = problem.table.pairs
        _, grad, blocks = lm_terms(problem, poses)
        free = np.arange(24) // 6 != gauge
        expected = dense_hessian(blocks, pairs, 4)[free][:, free] + 0.3 * np.eye(18)

        pattern = solver._Pattern(pairs, 4, gauge)
        np.testing.assert_array_equal(natural(pattern.matrix(blocks, 0.3).toarray(), pattern), expected)
        taken = pattern.take(grad)
        np.testing.assert_array_equal(taken[pattern.pos], grad[free])
        back = pattern.put(taken)
        np.testing.assert_array_equal(back[free], grad[free])
        assert not back[~free].any()

    @pytest.mark.parametrize("gauge", [0, 2, 3])
    def test_pose_order_keeps_each_pose_whole(self, gauge):
        """A permutation of the free dofs that moves each pose's six dofs
        together, in order, for a gauge that is first, in the middle or
        last; pose 3 is coupled to no other."""
        problem = random_problem(np.random.default_rng(50 + gauge), KERNEL_CAUCHY)
        pos = solver._pose_order(problem.table.pairs, 4, gauge)
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
        pattern = solver._Stepper(problem, 100, gauge=0).pattern
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
        out, report = solve(problem, poses, gauge=0)
        assert report.iterations == 0
        assert report.termination == "gradient"
        for a, b in zip(out, poses):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_recovers_perturbed_pose(self):
        rng = np.random.default_rng(11)
        problem, truth = exact_pair_problem(rng)
        start = [se3.identity(), se3.retract(truth, np.array([0.05, -0.1, 0.08, 0.5, -0.3, 0.2]))]
        out, report = solve(problem, start, gauge=0)
        rot, trans = se3.pose_difference(out[1], truth)
        assert rot < 1e-8 and trans < 1e-8
        assert report.objective_end <= report.objective_start

    def test_objective_matches_first_order_oracle(self):
        """A slow Barzilai-Borwein descent on identical blocks must reach the
        same converged objective (within 1e-6 relative)."""
        rng = np.random.default_rng(12)
        graph, _ = noisy_chain_graph(rng)
        from robustpgo.model import initialize_poses

        init = initialize_poses(graph)
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        _, report = solve(problem, init, gauge=0)

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
            return solver._evaluate(problem, quats, trans)[2]

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

        init = initialize_poses(graph)
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        out_a, _ = solve(problem, init, gauge=0)

        G = se3.exp(np.array([0.3, -0.2, 0.9, 5.0, -2.0, 1.0]))
        init_b = [se3.compose(G, p) for p in init]
        out_b, _ = solve(problem, init_b, gauge=0)
        for a, b in zip(out_a, out_b):
            rot, trans = se3.pose_difference(se3.compose(G, a), b)
            assert rot < 1e-6 and trans < 1e-6

    def test_zero_posteriors_reproduce_odometry_solution_exactly(self):
        rng = np.random.default_rng(14)
        graph, _ = noisy_chain_graph(rng, n=6)
        loop = LoopClosureConstraint(0, 4, rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (5, 3)))
        with_loop = ProblemGraph(6, graph.odometry, [loop])
        from robustpgo.model import initialize_poses

        init = initialize_poses(graph)
        params = Hyperparams()
        problem_odo = build_problem(graph, PosteriorState(1.0, np.zeros(0)), params)
        problem_off = build_problem(with_loop, PosteriorState(1.0, np.array([0.0])), params)
        out_a, _ = solve(problem_odo, init, gauge=0)
        out_b, _ = solve(problem_off, init, gauge=0)
        for a, b in zip(out_a, out_b):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_nonfinite_residual_names_block(self):
        poses = [se3.identity(), se3.identity(), se3.identity()]
        bad = LoopClosureConstraint(1, 2, np.array([[np.nan, 0, 0]]), np.zeros((1, 3)))
        problem = Problem(MatchTable.from_constraints([bad]), np.ones(1), KERNEL_SQUARED)
        with pytest.raises(solver.SolverError, match=r"i=1, j=2"):
            solve(problem, poses, gauge=0)

    def test_stalled_when_no_strict_decrease_possible(self):
        """At the global minimum with gradient_tol 0, damping escalates until the
        solver gives up and returns its best-so-far."""
        rng = np.random.default_rng(15)
        problem, truth = exact_pair_problem(rng)
        poses = [se3.identity(), truth]
        out, report = solve(problem, poses, gauge=0, gradient_tol=0.0)
        assert report.termination == "stalled"
        assert report.objective_end <= report.objective_start

    def test_empty_problem_is_a_noop(self):
        poses = [se3.identity(), se3.identity()]
        empty = Problem(MatchTable.from_constraints([]), np.zeros(0), KERNEL_SQUARED)
        out, report = solve(empty, poses, gauge=0)
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
        out, report = solve(problem, start, gauge=0, max_iterations=1)
        assert report.iterations == 1 and report.factorizations == len(factored) == 1
        system, options = factored[0]
        assert options["options"] == {"SymmetricMode": True} and options["permc_spec"] == "NATURAL"

        _, grad, blocks = lm_terms(problem, start)
        H = dense_hessian(blocks, problem.table.pairs, 12)
        dense = H[6:, 6:] + solver.DAMPING_INIT * np.eye(66)
        np.testing.assert_array_equal(natural(system, solver._Pattern(problem.table.pairs, 12, 0)), dense)
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
        first, _ = solve(problem, start, gauge=0, max_iterations=1)
        factored = []
        real_splu = solver.splu

        def spy(system, **options):
            factored.append((system.toarray(), options["permc_spec"]))
            return real_splu(system, **options)

        monkeypatch.setattr(solver, "splu", spy)
        out, report = solve(problem, start, gauge=0, max_iterations=2)
        assert report.iterations == 2 and report.factorizations == len(factored) == 2
        assert [spec for _, spec in factored] == ["NATURAL", "NATURAL"]

        _, grad, blocks = lm_terms(problem, first)
        dense = dense_hessian(blocks, problem.table.pairs, 12)[6:, 6:]
        dense += 0.5 * solver.DAMPING_INIT * np.eye(66)  # halved after the first accepted step
        pattern = solver._Pattern(problem.table.pairs, 12, 0)
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
        out, report = solve(problem, start, gauge=0, max_iterations=1)
        assert report.iterations == report.factorizations == len(factored) == 1
        assert report.fallbacks == 0 and report.pcg_iterations >= 1

        _, grad, blocks = lm_terms(problem, start)
        pairs, damping = problem.table.pairs, solver.DAMPING_INIT * np.eye(66)
        kept = np.arange(len(pairs)) != len(pairs) - 1  # all but the 1e-9 loop
        subgraph = dense_hessian(blocks.reshape(4, -1, 6, 6)[:, kept].reshape(-1, 6, 6), pairs[kept], 12)
        system = natural(factored[0], solver._Pattern(pairs[kept], 12, 0))
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
        solve(problem, start, gauge=0, max_iterations=1)
        assert len(stored) == 1
        system, pairs = stored[0], problem.table.pairs
        alone = solver._Pattern(pairs[:-1], 12, 0)
        np.testing.assert_array_equal(system.indptr, alone.indptr)
        np.testing.assert_array_equal(system.indices, alone.indices)
        pose = np.empty(66, dtype=int)
        pose[alone.pos] = np.arange(66) // 6 + 1  # the pose of each position; the gauge is pose 0
        rows = pose[system.indices]
        cols = pose[np.repeat(np.arange(66), np.diff(system.indptr))]
        assert not ((rows == 2) & (cols == 9)).any() and not ((rows == 9) & (cols == 2)).any()
        full = solver._Stepper(problem, 12, 0).pattern
        assert len(full.indices) > system.nnz

    def test_pcg_miss_falls_back_to_the_full_factor(self, monkeypatch):
        """With no PCG iteration allowed, the trial factors the full damped
        system after the subgraph's and takes its step."""
        problem, start = two_loop_problem()
        monkeypatch.setattr(solver, "PCG_MAX_ITERS", 0)
        factored = factor_spy(monkeypatch)
        out, report = solve(problem, start, gauge=0, max_iterations=1)
        assert report.iterations == report.factorizations == 1
        assert report.fallbacks == 1 and report.pcg_iterations == 0 and len(factored) == 2

        _, grad, blocks = lm_terms(problem, start)
        full = dense_hessian(blocks, problem.table.pairs, 12)[6:, 6:] + solver.DAMPING_INIT * np.eye(66)
        # the fallback factors the full system in the one pattern's order, the subgraph's
        np.testing.assert_array_equal(natural(factored[1], solver._Stepper(problem, 12, 0).pattern), full)
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
        residuals = solver._evaluate(problem, *se3.stack(start))[0]
        grad, blocks = solver._assemble(problem, residuals, 12, curvature=True)
        pairs, damping = problem.table.pairs, 1e-4
        full = dense_hessian(blocks, pairs, 12)[6:, 6:] + damping * np.eye(66)
        subgraph = dense_hessian(blocks.reshape(4, -1, 6, 6)[:, :-1].reshape(-1, 6, 6), pairs[:-1], 12)
        subgraph = subgraph[6:, 6:] + damping * np.eye(66)
        first = np.linalg.solve(subgraph, -grad[6:])
        assert np.linalg.eigvalsh(subgraph).min() > 0 and first @ full @ first < 0

        factored = factor_spy(monkeypatch)
        stepper = solver._Stepper(problem, 12, gauge=0)
        step = stepper(blocks, grad, damping)
        assert stepper.fallbacks == 1 and stepper.pcg_iterations == 1 and len(factored) == 2
        np.testing.assert_array_equal(natural(factored[1], stepper.pattern), full)
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
        _, report = solve(problem, start, gauge=0, max_iterations=2)
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
        real = MatchTable.residuals

        def spy(table, rots, trans):
            calls.append(len(table))
            return real(table, rots, trans)

        monkeypatch.setattr(MatchTable, "residuals", spy)
        _, report = solve(problem, start, gauge=0)
        assert report.iterations >= 2 and report.termination != "gradient"
        assert len(calls) == report.factorizations + 1

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
                calls.append(args[2])
                return real(*args, **kwargs)

            monkeypatch.setattr(solver, "_assemble", spy)
            out, report = solve(problem, start, gauge=0, max_iterations=max_iterations)
            monkeypatch.setattr(solver, "_assemble", real)
            assert report.termination == termination and report.iterations >= 2
            assert len(calls) == report.iterations + 1
            residuals = solver._evaluate(problem, *se3.stack(out))[0]
            grad = solver._assemble(problem, residuals, len(out))[0]
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
        out, report = solve(problem, start, gauge=0)
        assert report.iterations >= 1
        expected = em.constraint_errors(graph.table, out, problem.kernel, params.sigma)
        assert report.errors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_restart_from_converged_poses_stops_at_once(self, mode):
        """A solve restarted where another converged finds no trial that moves
        the objective beyond objective_tol, so it takes no step and returns
        its input poses bit for bit, restart after restart; gradient_tol 0
        leaves only that test to stop it."""
        rng = np.random.default_rng(21)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams(mode=mode))
        poses, report = solve(problem, start, gauge=0)
        assert report.termination in ("objective", "gradient")
        for _ in range(3):
            out, again = solve(problem, poses, gauge=0, gradient_tol=0.0)
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
        _, hybrid = solve(problem, start, gauge=0)
        monkeypatch.setattr(solver, "CURVATURE_SWITCH", 0.0)
        _, gauss_newton = solve(problem, start, gauge=0)
        assert gauss_newton.curvature_steps == 0 < hybrid.curvature_steps
        assert hybrid.termination == gauss_newton.termination == "objective"
        assert hybrid.factorizations < gauss_newton.factorizations
        assert hybrid.objective_end <= gauss_newton.objective_end * (1 + 1e-9)

    def test_report_objective_invariant(self):
        rng = np.random.default_rng(16)
        graph, _ = noisy_chain_graph(rng, n=10)
        from robustpgo.model import initialize_poses

        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        _, report = solve(problem, initialize_poses(graph), gauge=0)
        assert report.objective_end <= report.objective_start + 1e-12
