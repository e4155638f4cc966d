import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from robustpgo import em, se3, solver
from robustpgo.model import (
    Hyperparams,
    LoopClosureConstraint,
    MatchTable,
    OdometryConstraint,
    PosteriorState,
    ProblemGraph,
    initialize_poses,
    validate,
)
from robustpgo.synth import ScenarioConfig, generate

from oracle import pose_difference, run_em_replaying, solve_poses, transform_point
from test_model import exact_odometry, chain_poses


def record_bytes(rec: em.EmIteration) -> dict:
    """An EM record's fields, with each array as its bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(rec).items()}


def identity_pair():
    return se3.identity(), se3.identity()


def constraint_arrays(residual_norms):
    """Match sets with prescribed residual norms under identity poses."""
    k = len(residual_norms)
    p = np.zeros((k, 3))
    p[:, 0] = residual_norms
    return p, np.zeros((k, 3))


def match_set_error(p, q, Ti, Tj, kernel, sigma=1.0):
    """Error functional of one match set between poses Ti and Tj."""
    table = MatchTable.from_constraints([OdometryConstraint(0, p, q)])
    return em.evaluate_poses(table, *se3.stack([Ti, Tj]), kernel, sigma).errors[0]


def error_cauchy(p, q, Ti, Tj, sigma):
    return match_set_error(p, q, Ti, Tj, solver.KERNEL_CAUCHY, sigma)


def error_gaussian(p, q, Ti, Tj):
    return match_set_error(p, q, Ti, Tj, solver.KERNEL_SQUARED)


class TestErrorCauchy:
    def test_aligned_matches_are_zero(self):
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([0.0, 0.0, 0.0])
        assert error_cauchy(p, q, Ti, Tj, 0.5) == 0.0

    def test_single_match_hand_value(self):
        # ln(1 + 1/0.25) = ln 5
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([1.0])
        assert error_cauchy(p, q, Ti, Tj, 0.5) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_mean_over_matches(self):
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([0.0, 1.0])
        assert error_cauchy(p, q, Ti, Tj, 0.5) == pytest.approx(math.log(5.0) / 2, abs=1e-12)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        Ti = se3.Pose(*se3.exp_arrays(rng.uniform(-1, 1, 6)))
        Tj = se3.Pose(*se3.exp_arrays(rng.uniform(-1, 1, 6)))
        p = rng.uniform(-3, 3, (17, 3))
        q = rng.uniform(-3, 3, (17, 3))
        sigma = 0.7
        expected = np.mean(
            [
                math.log(
                    1.0
                    + np.sum((transform_point(Ti, pi) - transform_point(Tj, qi)) ** 2)
                    / sigma**2
                )
                for pi, qi in zip(p, q)
            ]
        )
        assert error_cauchy(p, q, Ti, Tj, sigma) == pytest.approx(expected, rel=1e-12)


    def test_table_segments_match_single_constraint_errors(self):
        """Each row of a many-constraint table equals that constraint's error alone."""
        rng = np.random.default_rng(1)
        poses = [se3.Pose(*se3.exp_arrays(rng.uniform(-1, 1, 6))) for _ in range(4)]
        constraints = [
            LoopClosureConstraint(i, j, rng.uniform(-3, 3, (k, 3)), rng.uniform(-3, 3, (k, 3)))
            for (i, j), k in (((0, 2), 5), ((1, 3), 1), ((0, 3), 8))
        ]
        errors = em.evaluate_poses(
            MatchTable.from_constraints(constraints), *se3.stack(poses), solver.KERNEL_CAUCHY, 0.7
        ).errors
        for c, err in zip(constraints, errors):
            alone = error_cauchy(c.p, c.q, poses[c.i], poses[c.j], 0.7)
            assert err == pytest.approx(alone, rel=1e-12)


class TestErrorGaussian:
    def test_aligned_matches_are_zero(self):
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([0.0])
        assert error_gaussian(p, q, Ti, Tj) == 0.0

    def test_single_match_hand_square(self):
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([0.05])
        assert error_gaussian(p, q, Ti, Tj) == pytest.approx(0.0025, abs=1e-15)

    def test_mean_of_squares(self):
        # (0.03^2 + 0.04^2) / 2 = 0.00125
        Ti, Tj = identity_pair()
        p, q = constraint_arrays([0.03, 0.04])
        assert error_gaussian(p, q, Ti, Tj) == pytest.approx(0.00125, abs=1e-15)


def odometry_errors(graph, poses, sigma):
    errors = em.evaluate_poses(graph.table, *se3.stack(poses), solver.KERNEL_CAUCHY, sigma).errors
    return errors[: len(graph.odometry)]


class TestLearnThetaCauchy:
    def test_median_oracle(self):
        assert em.theta_from_errors([1.0, 5.0, 100.0], 0.9) == pytest.approx(45.0, abs=1e-12)

    def test_algebraic_solve(self):
        # theta/(theta + 5) = 0.9  =>  theta = 45
        assert em.theta_from_errors([5.0], 0.9) == pytest.approx(45.0, abs=1e-12)

    def test_zero_residual_floor(self):
        """All odometry residuals zero: error terms are exp(0) = 1, theta = 9."""
        rng = np.random.default_rng(1)
        poses = chain_poses(rng, 4)
        graph = ProblemGraph(4, exact_odometry(rng, poses), [])
        theta = em.learn_theta_cauchy(odometry_errors(graph, poses, 0.5), p_hat=0.9)
        assert theta == pytest.approx(9.0, abs=1e-9)

    def test_graph_with_prescribed_error_terms(self):
        """Residuals chosen so the odometry error terms are exactly {1, 5, 100}."""
        sigma = 0.5
        poses = [se3.identity()] * 4
        constraints = []
        for i, m in enumerate([1.0, 5.0, 100.0]):
            r = sigma * math.sqrt(math.sqrt(m) - 1.0)
            p, q = constraint_arrays([r, r, r])
            constraints.append(OdometryConstraint(i, p, q))
        graph = ProblemGraph(4, constraints, [])
        theta = em.learn_theta_cauchy(odometry_errors(graph, poses, sigma), p_hat=0.9)
        assert theta == pytest.approx(45.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        errors = list(rng.uniform(1.0, 50.0, 9))
        base = em.theta_from_errors(errors, 0.9)
        for _ in range(5):
            rng.shuffle(errors)
            assert em.theta_from_errors(errors, 0.9) == base

    def test_adding_median_error_is_neutral(self):
        errors = [1.0, 5.0, 100.0]
        med = em.lower_median(errors)
        assert em.theta_from_errors(errors + [med], 0.9) == em.theta_from_errors(errors, 0.9)

    def test_overflowing_theta_is_an_em_error(self):
        """theta is refused once it is not a positive finite float: from a
        median A of 354.9 on exp(2A) overflows, and below that p_hat / (1 - p_hat)
        times it may (at p_hat = 0.9 from A near 353.79 on, while 353.9 is
        finite at p_hat = 1/2); an infinite or NaN median is refused too."""
        assert math.isfinite(em.learn_theta_cauchy(np.array([353.9]), p_hat=0.5))
        for a, p_hat in [(355.0, 0.9), (np.inf, 0.9), (np.nan, 0.9), (353.9, 0.9), (340.0, 0.9999999999999999)]:
            with pytest.raises(em.EmError, match="too large"):
                em.learn_theta_cauchy(np.array([0.0, a, a]), p_hat)

    def test_lower_median_for_even_counts(self):
        assert em.lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0


class TestLearnThetaGaussian:
    def test_literal_calibration_default_settings(self):
        # epsilon = 0.05 m, p_hat = 0.9: theta = 0.9 * 0.0025 / 0.1 = 0.0225
        assert em.learn_theta_gaussian(0.05, 0.9, "literal") == pytest.approx(0.0225, abs=1e-15)

    def test_literal_symmetric_odds(self):
        eps = 0.37
        assert em.learn_theta_gaussian(eps, 0.5, "literal") == pytest.approx(eps**2, rel=1e-12)

    def test_literal_unit_epsilon(self):
        assert em.learn_theta_gaussian(1.0, 0.9, "literal") == pytest.approx(9.0, rel=1e-12)

    def test_rms_calibration_hits_p_hat_at_epsilon(self):
        """A loop whose mean squared residual is epsilon^2 gets posterior p_hat."""
        eps, p_hat = 0.05, 0.9
        theta = em.learn_theta_gaussian(eps, p_hat, "rms")
        assert theta == pytest.approx(9.0 * eps**4, rel=1e-12)
        post = em.posterior_gaussian(np.array([eps**2]), theta)
        assert post[0] == pytest.approx(p_hat, rel=1e-12)

    @pytest.mark.parametrize(
        "epsilon, p_hat, message",
        [
            (1e100, 0.9, "epsilon must be positive and finite, and epsilon^4 a positive finite float"),
            (1e-100, 0.9, "epsilon must be positive and finite, and epsilon^4 a positive finite float"),
            (1e77, 0.9999999999999999, "in gaussian mode p_hat * epsilon^4 / (1 - p_hat) must be a positive finite float"),
        ],
        ids=["term-overflows", "term-underflows", "constant-overflows"],
    )
    def test_constant_past_the_float_range_is_rejected(self, epsilon, p_hat, message):
        """epsilon^4 overflows or underflows to 0, or the constant overflows:
        the error Hyperparams gives, not an OverflowError, 0 or inf."""
        with pytest.raises(ValueError) as exc:
            em.learn_theta_gaussian(epsilon, p_hat)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            Hyperparams(mode="gaussian", epsilon=epsilon, p_hat=p_hat)
        assert str(exc.value) == message


def posterior_cases() -> dict:
    """Errors B of the E-step's byte-for-byte check, each with its thetas. At
    theta = 1 the sigmoid's argument is x = -2 log B, so B = exp(-x / 2) puts
    it where libm's exp(-x) overflows, or where the posterior is subnormal."""
    rng = np.random.default_rng(7)
    b = np.concatenate([[0.0, 0.0, np.inf, 5e-324, 1e308], 10.0 ** rng.uniform(-300, 300, 500)])
    b[rng.random(len(b)) < 0.1] = 0.0
    return {
        "random": (b, (0.0225, 9.0 * 0.05**4, 1e-300, 1e300)),
        "non-finite": (np.array([0.0, np.inf, np.nan]), (0.0225, 1e-300, 1e300)),  # x = +inf, -inf, NaN
        "exp-overflow": (np.exp(-0.5 * np.linspace(-745.2, -709.8, 1001)), (1.0,)),
        "subnormal": (np.exp(-0.5 * np.linspace(-709.78, -708.4, 1001)), (1.0,)),
        "0-d": (np.array(0.3), (0.0225,)),
        "2-d": (10.0 ** rng.uniform(-3, 3, (4, 5)), (0.0225,)),
        "empty": (np.zeros(0), (0.0225,)),
        "2-d-empty": (np.zeros((0, 3)), (0.0225,)),
    }


POSTERIOR_CASES = posterior_cases()


class TestEStep:
    def test_posterior_at_zero_error(self):
        post = em.posterior_cauchy(np.array([0.0]), 45.0)
        assert post[0] == pytest.approx(45.0 / 46.0, abs=1e-12)

    def test_posterior_vanishes_for_huge_error(self):
        post = em.posterior_cauchy(np.array([50.0]), 45.0)
        assert post[0] < 1e-12

    def test_overflow_guard(self):
        """A = 700 would overflow exp(2A); the log-space form stays in [0, 1]."""
        post = em.posterior_cauchy(np.array([700.0]), 45.0)
        assert np.isfinite(post[0]) and 0.0 <= post[0] <= 1.0

    @given(st.lists(st.floats(0.0, 500.0), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_error(self, values):
        a = np.sort(np.array(values))
        post = em.posterior_cauchy(a, 45.0)
        assert np.all(np.diff(post) <= 1e-15)

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_monotone_decreasing(self, values):
        b = np.sort(np.array(values))
        post = em.posterior_gaussian(b, 0.0225)
        assert np.all(np.diff(post) <= 1e-15)

    def test_e_step_over_graph(self):
        rng = np.random.default_rng(3)
        poses = chain_poses(rng, 5)
        loops = [LoopClosureConstraint(0, 3, np.zeros((4, 3)), np.zeros((4, 3)))]
        graph = ProblemGraph(5, exact_odometry(rng, poses), loops)
        # loop matches both at origin of each frame: residual is the frame offset
        state = em.e_step(em.loop_errors(graph, poses, Hyperparams()), 45.0, Hyperparams())
        assert state.posteriors.shape == (1,)
        assert 0.0 <= state.posteriors[0] <= 1.0

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            em.e_step(np.zeros(0), 0.0, Hyperparams())

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_rejects_nonfinite_theta(self, theta, mode):
        """An infinite theta would make every finite error's posterior 1."""
        with pytest.raises(ValueError, match="positive finite"):
            em.e_step(np.array([0.0, 1.0, np.inf]), theta, Hyperparams(mode=mode))

    def test_gaussian_posterior_at_zero_and_infinite_error(self):
        post = em.posterior_gaussian(np.array([0.0, np.inf]), 0.0225)
        assert post[0] == 1.0 and post[1] == 0.0

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    @pytest.mark.parametrize("case", list(POSTERIOR_CASES))
    def test_posteriors_have_the_bits_of_expit(self, case, mode):
        """Each posterior is scipy.special.expit of log theta - 2A, bit for bit
        and in the errors' shape. The cases are errors B: the cauchy posterior
        takes A = log B, and the gaussian one B itself, against the form that
        sets B == 0 to 1 and takes the sigmoid of log theta - 2 log B elsewhere."""
        b, thetas = POSTERIOR_CASES[case]
        for theta in thetas:
            if mode == "cauchy":
                with np.errstate(divide="ignore"):
                    a = np.log(b)
                got, expected = em.posterior_cauchy(a, theta), expit(math.log(theta) - 2.0 * a)
            else:
                got, expected = em.posterior_gaussian(b, theta), np.ones_like(b)
                rest = b != 0.0
                expected[rest] = expit(math.log(theta) - 2.0 * np.log(b[rest]))
            assert np.shape(got) == np.shape(b) and got.tobytes() == expected.tobytes()


class TestClassifyLoops:
    def test_basic_threshold(self):
        from robustpgo.model import PosteriorState

        state = PosteriorState(45.0, np.array([0.97, 0.02]))
        np.testing.assert_array_equal(em.classify_loops(state, 0.5), [True, False])

    def test_tie_goes_to_outlier(self):
        from robustpgo.model import PosteriorState

        state = PosteriorState(45.0, np.array([0.5]))
        assert not em.classify_loops(state, 0.5)[0]

    def test_threshold_semantics(self):
        from robustpgo.model import PosteriorState

        state = PosteriorState(45.0, np.array([0.6]))
        assert em.classify_loops(state, 0.3)[0]
        assert not em.classify_loops(state, 0.7)[0]


class TestRunEm:
    def test_zero_loops_reduces_to_odometry_solve(self):
        rng = np.random.default_rng(4)
        poses = chain_poses(rng, 6)
        graph = ProblemGraph(6, exact_odometry(rng, poses), [])
        out, state, trace = em.run_em(graph, Hyperparams())
        assert len(state.posteriors) == 0
        assert trace.converged and len(trace) == 1
        # must equal a direct odometry-only optimization
        from robustpgo.model import PosteriorState

        problem = solver.build_problem(graph, PosteriorState(1.0, np.zeros(0)), Hyperparams())
        direct, _ = solve_poses(problem, se3.unstack(*initialize_poses(graph)))
        for a, b in zip(out, direct):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_makes_pose_objects_only_at_its_return(self, monkeypatch):
        """run_em holds its poses as arrays from initialization on and makes
        one Pose per fragment, at its return. `unstack` makes its poses
        without `__post_init__`, so both are counted."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        made = []
        real_post_init, real_unstack = se3.Pose.__post_init__, se3.unstack

        def counted(pose):
            made.append(pose)
            real_post_init(pose)

        def counted_unstack(quats, trans):
            poses = real_unstack(quats, trans)
            made.extend(poses)
            return poses

        monkeypatch.setattr(se3.Pose, "__post_init__", counted)
        monkeypatch.setattr(se3, "unstack", counted_unstack)
        poses, _, trace = em.run_em(graph, Hyperparams())
        assert len(trace) >= 2
        assert len(made) == graph.num_fragments
        assert all(a is b for a, b in zip(made, poses))

    def test_circle_scene_separates_loops(self):
        """20-fragment circle, 10 true + 40 false loops: every true loop keeps
        posterior > 0.5 and at least 95% of the false ones fall below."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        oracle = np.array([graph.oracle_labels[c.pair] for c in graph.loops])
        assert oracle.sum() == 10 and len(oracle) == 50
        _, state, _ = em.run_em(graph, Hyperparams())
        assert np.all(state.posteriors[oracle] > 0.5)
        assert np.mean(state.posteriors[~oracle] < 0.5) >= 0.95

    def test_m_step_objective_never_increases(self):
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        _, _, trace = em.run_em(graph, Hyperparams())
        for rec in trace.iterations:
            assert rec.objective_end <= rec.objective_start + 1e-9

    def test_modes_agree_on_clean_data(self):
        """Zero noise, zero outliers: both mixture models keep every loop and
        land on the same poses."""
        cfg = ScenarioConfig(
            num_fragments=20,
            keyframe_stride=1,
            match_noise=0.0,
            outlier_match_fraction=0.0,
            outlier_loop_fraction=0.0,
            seed=6,
        )
        graph = generate(cfg)
        results = {}
        for mode in ("cauchy", "gaussian"):
            poses, state, _ = em.run_em(graph, Hyperparams(mode=mode))
            labels = em.classify_loops(state, 0.5)
            assert labels.all()
            results[mode] = poses
        for a, b in zip(results["cauchy"], results["gaussian"]):
            rot, trans = pose_difference(a, b)
            assert rot < 1e-7 and trans < 1e-7

    def test_reports_curvature_steps(self):
        """On a reference circle scene the M-steps reach the curvature phase."""
        _, _, trace = em.run_em(generate(ScenarioConfig(seed=0)), Hyperparams())
        steps = [rec.curvature_steps for rec in trace.iterations]
        assert sum(steps) > 0
        assert all(k <= len(rec.objective_path) for k, rec in zip(steps, trace.iterations))

    def test_reports_pcg_iterations_and_misses(self, monkeypatch):
        """Each M-step reports its PCG iterations and the trials rejected for
        want of a step: none on a reference circle scene, and every trial
        when PCG may take no iteration."""
        graph = generate(ScenarioConfig(seed=0))
        _, _, trace = em.run_em(graph, Hyperparams())
        assert all(rec.misses == 0 < rec.factorizations <= rec.pcg_iterations for rec in trace.iterations)
        monkeypatch.setattr(solver, "PCG_MAX_ITERS", 0)
        _, _, trace = em.run_em(graph, Hyperparams())
        assert all(rec.misses == rec.factorizations > 0 == rec.pcg_iterations for rec in trace.iterations)

    def test_trace_bounded_by_max_iters(self):
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=7))
        _, _, trace = em.run_em(graph, Hyperparams(max_em_iters=2))
        assert len(trace) <= 2

    def test_freeze_theta_ablation(self):
        """With refresh disabled, theta stays at its first learned value."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=7))
        _, _, frozen = em.run_em(graph, Hyperparams(refresh_theta=False))
        thetas = {rec.theta for rec in frozen.iterations}
        assert len(thetas) == 1
        _, _, live = em.run_em(graph, Hyperparams(refresh_theta=True))
        assert len({rec.theta for rec in live.iterations}) > 1

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_evaluates_each_pose_state_once(self, monkeypatch, mode):
        """One evaluation at the initial poses, then one per LM trial: each
        M-step weighs the state the last one evaluated, and theta, the E-step
        and the final posteriors read its errors. Under the cauchy kernel
        each evaluation is a pass over the matches. Under the squared kernel
        no trial is: the passes are the initial poses' and, for each M-step
        that accepts a step, its end poses', and the graph table's per-match
        sum operators are built once, for its moments."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        evaluations, passes, operators = [], [], []
        real_evaluate = solver._evaluate
        real_residuals, real_operator = MatchTable.frame_residuals, MatchTable.outer_operator

        def evaluate(*args):
            evaluations.append(len(args) > 3 and args[3] is not None)  # with an anchor
            return real_evaluate(*args)

        def residuals(table, rots, trans):
            passes.append(len(table))
            return real_residuals(table, rots, trans)

        def operator(table, weights, y):
            operators.append(table is graph.table)
            return real_operator(table, weights, y)

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        monkeypatch.setattr(MatchTable, "frame_residuals", residuals)
        monkeypatch.setattr(MatchTable, "outer_operator", operator)
        _, _, trace = em.run_em(graph, Hyperparams(mode=mode))
        assert len(trace) >= 2
        trials = sum(it.factorizations for it in trace.iterations)
        if mode == "cauchy":
            assert len(evaluations) == len(passes) == trials + 1 and not any(evaluations)
        else:
            stepped = sum(it.iterations > 0 for it in trace.iterations)
            assert len(evaluations) == trials + 1 + stepped and sum(evaluations) == trials
            assert len(passes) == 1 + stepped < trials
            assert sum(operators) == 2

    def test_hands_on_one_pose_state(self, monkeypatch):
        """Each M-step is handed the state the last one evaluated, and holds
        it only until its first accepted step: whenever LM assembles, the
        pose state it assembles from is the only one alive."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        states, alone = [], []
        real_evaluate, real_assemble = solver._evaluate, solver._assemble

        def evaluate(*args):
            state = real_evaluate(*args)
            states.append(weakref.ref(state))
            return state

        def assemble(problem, state, *args):
            live = [ref for ref in states if ref() is not None]
            alone.append(len(live) == 1 and live[0]() is state)
            return real_assemble(problem, state, *args)

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        monkeypatch.setattr(solver, "_assemble", assemble)
        _, _, trace = em.run_em(graph, Hyperparams())
        assert len(trace) >= 2 and all(rec.iterations > 0 for rec in trace.iterations[:-1])
        assert len(alone) == sum(rec.iterations + 1 for rec in trace.iterations) and all(alone)

    @pytest.mark.parametrize(
        "config, mode, replays",
        [
            (ScenarioConfig(seed=0), "cauchy", 1),
            (ScenarioConfig(seed=9), "cauchy", 1),
            (ScenarioConfig(seed=4), "cauchy", 0),
            (
                ScenarioConfig(
                    num_fragments=200, seed=4, match_noise=0.01,
                    outlier_match_fraction=0.0, outlier_loop_fraction=0.2,
                ),
                "gaussian",
                1,
            ),
        ],
    )
    def test_matches_the_replaying_oracle(self, config, mode, replays):
        """The poses, posteriors and theta of the EM loop that evaluates each
        M-step's start again and goes on past a zero-step M-step
        (tests/oracle.py), bit for bit. Its trace is the oracle's without the
        records that replay the one before them, and each of those follows
        a record that took no step."""
        graph = generate(config)
        params = Hyperparams(mode=mode)
        poses, state, trace = em.run_em(graph, params)
        expected_poses, expected_state, expected = run_em_replaying(graph, params)
        for a, b in zip(se3.stack(poses), se3.stack(expected_poses)):
            assert a.tobytes() == b.tobytes()
        assert state.posteriors.tobytes() == expected_state.posteriors.tobytes()
        assert state.theta == expected_state.theta
        records = [record_bytes(rec) for rec in expected.iterations]
        replayed = [k for k in range(1, len(records)) if records[k] == records[k - 1]]
        assert len(replayed) == replays
        assert all(expected.iterations[k - 1].iterations == 0 for k in replayed)
        kept = [rec for k, rec in enumerate(records) if k not in replayed]
        assert [record_bytes(rec) for rec in trace.iterations] == kept
        assert trace.converged == expected.converged

    def test_a_zero_step_m_step_is_a_fixed_point(self):
        """circle-400 seed 0 ends on an M-step that takes no step. A further
        solve from the returned poses, weighted by the returned posteriors,
        takes none either: it returns the poses bit for bit, at the last
        record's objective."""
        graph = generate(ScenarioConfig(num_fragments=400, seed=0))
        params = Hyperparams()
        poses, state, trace = em.run_em(graph, params)
        assert trace.converged and trace.iterations[-1].iterations == 0
        assert all(rec.iterations > 0 for rec in trace.iterations[:-1])
        out, report = solve_poses(solver.build_problem(graph, state, params), poses)
        assert report.iterations == 0
        assert report.objective_end == trace.iterations[-1].objective_end
        for a, b in zip(se3.stack(out), se3.stack(poses)):
            assert a.tobytes() == b.tobytes()

    def test_a_zero_step_m_step_reports_no_pose_update(self):
        """circle-100 seed 0 ends on an M-step that takes no step and returns
        its start poses: its max_pose_update is exactly 0.0, not the rounding
        of composing each pose with its own inverse, and each M-step before
        it, which took steps, reports a positive update."""
        _, _, trace = em.run_em(generate(ScenarioConfig(seed=0)), Hyperparams())
        assert trace.iterations[-1].iterations == 0 and trace.iterations[-1].max_pose_update == 0.0
        assert all(rec.iterations > 0 and rec.max_pose_update > 0.0 for rec in trace.iterations[:-1])

    def test_a_zero_step_m_step_converges_at_the_iteration_cap(self):
        """A run whose last allowed M-step takes no step has converged, though
        the M-step objective moved by more than em_tol."""
        graph = generate(ScenarioConfig(seed=0))
        _, _, trace = em.run_em(graph, Hyperparams(max_em_iters=3))
        assert len(trace) == 3 and trace.iterations[-1].iterations == 0
        ends = [rec.objective_end for rec in trace.iterations[-2:]]
        assert abs(ends[0] - ends[1]) > Hyperparams().em_tol * abs(ends[0])
        assert trace.converged

    def test_each_iteration_is_its_m_steps_report(self):
        """Each EM record carries its M-step's report: one accepted step per
        objective on its path, and errors at the poses the M-step returned,
        whose loop part is loop_errors at the final poses."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        params = Hyperparams()
        poses, _, trace = em.run_em(graph, params)
        assert len(trace) >= 2
        for rec in trace.iterations:
            assert rec.iterations == len(rec.objective_path)
            assert rec.gradient_norm >= 0.0
        last = trace.iterations[-1].errors[len(graph.odometry) :]
        assert last.tobytes() == em.loop_errors(graph, poses, params).tobytes()

    @pytest.mark.parametrize("mode", ["cauchy", "gaussian"])
    def test_loop_errors_are_the_loop_part_of_the_evaluation(self, mode):
        """loop_errors evaluates the loop rows alone, to the bits of the loop
        part of the whole table's evaluation; with no loop it is empty."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
        params = Hyperparams(mode=mode)
        poses = se3.unstack(*initialize_poses(graph))
        full = em.evaluate_poses(graph.table, *se3.stack(poses), mode, params.sigma).errors
        assert em.loop_errors(graph, poses, params).tobytes() == full[len(graph.odometry) :].tobytes()
        out = em.loop_errors(ProblemGraph(graph.num_fragments, graph.odometry, []), poses, params)
        assert out.shape == (0,) and out.dtype == float

    def test_empty_constraint_is_rejected_in_validates_words(self):
        """A loop with no matches has no error to weight: run_em,
        build_problem, loop_errors and initialize_poses name it as validate
        does, with no warning, rather than iterating on NaN objectives."""
        graph = generate(ScenarioConfig(num_fragments=20, seed=0, outlier_loop_fraction=0.5))
        poses = se3.unstack(*initialize_poses(graph))
        empty = LoopClosureConstraint(0, 10, np.zeros((0, 3)), np.zeros((0, 3)))
        graph = ProblemGraph(graph.num_fragments, graph.odometry, [*graph.loops, empty])
        (violation,) = [v for v in validate(graph) if v.kind == "empty_loop"]
        message = f"invalid graph: {violation}"
        assert message == "invalid graph: empty_loop(0, 10): constraint has no matches"
        params = Hyperparams()
        state = PosteriorState(1.0, np.ones(len(graph.loops)))
        for call in (
            lambda: em.run_em(graph, params),
            lambda: solver.build_problem(graph, state, params),
            lambda: em.loop_errors(graph, poses, params),
            lambda: initialize_poses(graph),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_all_inlier_error_tracks_noise_floor(self):
        """With no outliers the final trajectory error stays near the noise std."""
        from robustpgo.synth import evaluate

        cfg = ScenarioConfig(
            num_fragments=20,
            keyframe_stride=1,
            match_noise=0.01,
            outlier_match_fraction=0.0,
            outlier_loop_fraction=0.0,
            seed=8,
        )
        graph = generate(cfg)
        for mode in ("cauchy", "gaussian"):
            poses, state, _ = em.run_em(graph, Hyperparams(mode=mode))
            res = evaluate(poses, graph, em.classify_loops(state, 0.5))
            assert res.mean_translation_error <= 2 * cfg.match_noise
