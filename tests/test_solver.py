import math

import numpy as np
import pytest

from robustpgo import se3, solver
from robustpgo.model import (
    Hyperparams,
    LoopClosureConstraint,
    MatchTable,
    OdometryConstraint,
    PosteriorState,
    ProblemGraph,
)
from robustpgo.solver import (
    KERNEL_CAUCHY,
    KERNEL_SQUARED,
    Problem,
    ResidualBlock,
    block_cost,
    build_problem,
    finite_difference_gradient,
    residual_and_jacobian,
    solve,
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
        assembled = solver._Pattern(t.pairs, 3, gauge=-1).matrix(blocks, 0.0).toarray()
        assert np.abs(assembled - assembled.T).max() <= 1e-14 * np.abs(assembled).max()
        assert np.abs(numeric - assembled).max() <= 1e-6 * np.abs(assembled).max()


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
        np.testing.assert_array_equal(pattern.matrix(blocks, 0.3).toarray(), expected)
        np.testing.assert_array_equal(pattern.take(grad), grad[free])

        pos = rng.permutation(18)
        reordered = pattern.reordered(pos)
        system = reordered.matrix(blocks, 0.3).toarray()
        np.testing.assert_array_equal(system[np.ix_(pos, pos)], expected)
        taken = reordered.take(grad)
        np.testing.assert_array_equal(taken[pos], grad[free])
        back = reordered.put(taken)
        np.testing.assert_array_equal(back[free], grad[free])
        assert not back[~free].any()


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
        assert report.final_objective <= report.initial_objective

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
            yi, yj, e, s = table.residuals(se3.quat_to_matrix(quats), trans)
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
        assert abs(f - report.final_objective) / max(report.final_objective, 1e-300) < 1e-6

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
        assert report.final_objective <= report.initial_objective

    def test_empty_problem_is_a_noop(self):
        poses = [se3.identity(), se3.identity()]
        empty = Problem(MatchTable.from_constraints([]), np.zeros(0), KERNEL_SQUARED)
        out, report = solve(empty, poses, gauge=0)
        assert report.iterations == 0 and report.final_objective == 0.0

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
        assert options["options"] == {"SymmetricMode": True}

        _, grad, blocks = lm_terms(problem, start)
        H = dense_hessian(blocks, problem.table.pairs, 12)
        dense = H[6:, 6:] + solver.DAMPING_INIT * np.eye(66)
        np.testing.assert_array_equal(system, dense)
        expected = np.linalg.solve(dense, -grad[6:])
        step = se3.compose_arrays(*se3.stack(out), *se3.inverse_arrays(*se3.stack(start)))
        taken = se3.log_arrays(*step)[0][1:].reshape(-1)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_reused_order_step_matches_dense_solve(self, monkeypatch):
        """The second LM step factors the system in the minimum-degree order
        the first factorization chose, and still solves the dense damped
        system of its own start."""
        rng = np.random.default_rng(18)
        graph, truth = noisy_chain_graph(rng, n=12)
        start = [truth[0]] + [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in truth[1:]]
        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        first, _ = solve(problem, start, gauge=0, max_iterations=1)
        factored = []
        real_splu = solver.splu

        def spy(system, **options):
            lu = real_splu(system, **options)
            factored.append((system.toarray(), options["permc_spec"], lu.perm_c.copy()))
            return lu

        monkeypatch.setattr(solver, "splu", spy)
        out, report = solve(problem, start, gauge=0, max_iterations=2)
        assert report.iterations == 2 and report.factorizations == len(factored) == 2
        assert [spec for _, spec, _ in factored] == ["MMD_AT_PLUS_A", "NATURAL"]
        order = factored[0][2]

        _, grad, blocks = lm_terms(problem, first)
        dense = dense_hessian(blocks, problem.table.pairs, 12)[6:, 6:]
        dense += 0.5 * solver.DAMPING_INIT * np.eye(66)  # halved after the first accepted step
        np.testing.assert_array_equal(factored[1][0][np.ix_(order, order)], dense)
        expected = np.linalg.solve(dense, -grad[6:])
        step = se3.compose_arrays(*se3.stack(out), *se3.inverse_arrays(*se3.stack(first)))
        taken = se3.log_arrays(*step)[0][1:].reshape(-1)
        assert np.abs(taken - expected).max() <= 1e-10 * np.abs(expected).max()

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

    def test_report_objective_invariant(self):
        rng = np.random.default_rng(16)
        graph, _ = noisy_chain_graph(rng, n=10)
        from robustpgo.model import initialize_poses

        problem = build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        _, report = solve(problem, initialize_poses(graph), gauge=0)
        assert report.final_objective <= report.initial_objective + 1e-12
