import math
import time

import numpy as np
import pytest

from robustpgo import model, se3
from robustpgo.model import (
    AlignmentError,
    Hyperparams,
    LoopClosureConstraint,
    MatchTable,
    OdometryConstraint,
    ProblemGraph,
    fit_rigid_transform,
    initialize_poses,
    validate,
)
from robustpgo.synth import ScenarioConfig, generate
from oracle import pose_difference, robust_fit_full_refit, transform_point


def chain_poses(rng, n):
    poses = [se3.identity()]
    for _ in range(n - 1):
        step = np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-2.0, 2.0, 3)])
        poses.append(se3.compose(poses[-1], se3.exp(step)))
    return poses


def exact_odometry(rng, poses, k=10):
    """Matches that are exact correspondences under the given poses."""
    out = []
    for i in range(len(poses) - 1):
        mid = 0.5 * (poses[i].trans + poses[i + 1].trans)
        world = mid + rng.uniform(-3.0, 3.0, (k, 3))
        p = se3.transform_points(se3.inverse(poses[i]), world)
        q = se3.transform_points(se3.inverse(poses[i + 1]), world)
        out.append(OdometryConstraint(i, p, q))
    return out


def small_graph(rng, n=3, loops=()):
    poses = chain_poses(rng, n)
    return ProblemGraph(
        num_fragments=n,
        odometry=exact_odometry(rng, poses),
        loops=list(loops),
        ground_truth=poses,
    ), poses


def loop_of(i, j, k=5):
    return LoopClosureConstraint(i, j, np.zeros((k, 3)), np.ones((k, 3)))


class TestValidate:
    def test_well_formed_graph_passes(self):
        graph, _ = small_graph(np.random.default_rng(0))
        assert validate(graph) == []

    def test_missing_odometry(self):
        graph, _ = small_graph(np.random.default_rng(1))
        graph = ProblemGraph(graph.num_fragments, graph.odometry[:1], [])
        kinds = [(v.kind, v.where) for v in validate(graph)]
        assert ("missing_odometry", (1,)) in kinds

    def test_each_run_of_missing_odometry_is_reported_once(self):
        """A run of missing pairs names its first and last index, a single
        gap keeps its one-index form, in index order."""
        graph, _ = small_graph(np.random.default_rng(1), n=4)
        kept = [c for c in graph.odometry if c.i == 1]
        kinds = [(v.kind, v.where) for v in validate(ProblemGraph(9, kept, []))]
        assert kinds == [("missing_odometry", (0,)), ("missing_odometry", (2, 7))]

    def test_a_header_sized_gap_costs_one_violation(self):
        """Two billion fragments and no odometry: one violation, found in
        time that does not grow with the fragment count."""
        start = time.perf_counter()
        violations = validate(ProblemGraph(2_000_000_000, [], []))
        assert time.perf_counter() - start < 1.0
        assert [(v.kind, v.where) for v in violations] == [("missing_odometry", (0, 1_999_999_998))]

    def test_loop_too_short(self):
        graph, _ = small_graph(np.random.default_rng(2), n=4, loops=[loop_of(1, 2)])
        kinds = [(v.kind, v.where) for v in validate(graph)]
        assert ("loop_too_short", (1, 2)) in kinds

    def test_duplicate_loop(self):
        graph, _ = small_graph(np.random.default_rng(3), n=5, loops=[loop_of(0, 3), loop_of(0, 3)])
        kinds = [v.kind for v in validate(graph)]
        assert "duplicate_loop" in kinds

    def test_loop_index_out_of_range(self):
        graph, _ = small_graph(np.random.default_rng(4), n=4, loops=[loop_of(0, 9)])
        kinds = [v.kind for v in validate(graph)]
        assert "loop_index" in kinds

    def test_nonfinite_match_coordinates(self):
        rng = np.random.default_rng(5)
        graph, _ = small_graph(rng)
        graph.odometry[0].p[0, 0] = np.nan
        kinds = [v.kind for v in validate(graph)]
        assert "nonfinite_match" in kinds

    def test_loop_without_label(self):
        """Labels for some loops but not all: each unlabelled loop is a
        violation; a graph with no labels at all needs none."""
        loops = [loop_of(0, 3), loop_of(1, 4), loop_of(2, 5)]
        graph, _ = small_graph(np.random.default_rng(7), n=6, loops=loops)
        partial = ProblemGraph(6, graph.odometry, graph.loops, oracle_labels={(1, 4): True})
        kinds = [(v.kind, v.where) for v in validate(partial)]
        assert kinds == [("loop_without_label", (0, 3)), ("loop_without_label", (2, 5))]
        full = ProblemGraph(6, graph.odometry, graph.loops, oracle_labels={c.pair: False for c in loops})
        assert validate(full) == [] and validate(graph) == []

    def test_validate_is_idempotent_and_pure(self):
        graph, _ = small_graph(np.random.default_rng(6))
        before = [(c.i, c.p.copy(), c.q.copy()) for c in graph.odometry]
        assert validate(graph) == validate(graph)
        for (i, p, q), c in zip(before, graph.odometry):
            assert i == c.i
            np.testing.assert_array_equal(p, c.p)
            np.testing.assert_array_equal(q, c.q)


class TestMatchTable:
    def test_odometry_rows_first_then_loops(self):
        rng = np.random.default_rng(5)
        graph, _ = small_graph(rng, n=4, loops=[loop_of(1, 3, k=2), loop_of(0, 2, k=4)])
        table = MatchTable.from_graph(graph)
        assert table.pairs.tolist() == [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3]]
        assert table.sizes.tolist() == [10, 10, 10, 4, 2]
        assert len(table) == 36
        assert table.seg.tolist() == [0] * 10 + [1] * 10 + [2] * 10 + [3] * 4 + [4] * 2
        constraints = [*graph.odometry, *graph.loops]
        np.testing.assert_array_equal(table.p, np.concatenate([c.p for c in constraints]))
        np.testing.assert_array_equal(table.q, np.concatenate([c.q for c in constraints]))

    def test_subset_keeps_the_chosen_constraints_in_order(self):
        rng = np.random.default_rng(6)
        sizes = [3, 0, 5, 1, 4]
        constraints = [
            LoopClosureConstraint(c, c + 2, rng.normal(size=(k, 3)), rng.normal(size=(k, 3)))
            for c, k in enumerate(sizes)
        ]
        table = MatchTable.from_constraints(constraints)
        keep = np.array([True, True, False, True, True])
        sub = table.subset(keep)
        expected = MatchTable.from_constraints([c for c, kept in zip(constraints, keep) if kept])
        for name in ("pairs", "sizes", "seg", "p", "q"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(expected, name))
        assert table.subset(np.ones(5, dtype=bool)) is table
        assert len(table.subset(np.zeros(5, dtype=bool))) == 0

    def test_segment_sum_with_empty_constraints(self):
        """Empty constraints sum to zero wherever they sit, and row shapes carry through."""
        sizes = [0, 2, 0, 3, 0]
        constraints = [
            LoopClosureConstraint(0, 2, np.ones((k, 3)), np.zeros((k, 3))) for k in sizes
        ]
        table = MatchTable.from_constraints(constraints)
        values = np.arange(5.0)
        np.testing.assert_array_equal(table.segment_sum(values), [0.0, 1.0, 0.0, 9.0, 0.0])
        rows = np.arange(45.0).reshape(5, 3, 3)
        expected = np.zeros((5, 3, 3))
        expected[1], expected[3] = rows[:2].sum(axis=0), rows[2:].sum(axis=0)
        np.testing.assert_array_equal(table.segment_sum(rows), expected)

    @pytest.mark.parametrize("sizes", [[3, 0, 5, 1, 0, 4], [0, 2], [0, 0], []])
    def test_segment_sum_matches_bincount_bit_for_bit(self, sizes):
        rng = np.random.default_rng(len(sizes))
        constraints = [
            LoopClosureConstraint(0, 2, rng.normal(size=(k, 3)), rng.normal(size=(k, 3))) for k in sizes
        ]
        table = MatchTable.from_constraints(constraints)
        m, c = len(table), len(sizes)
        weights = rng.uniform(0.1, 2.0, m)

        def oracle(values):
            flat = values.reshape(m, int(np.prod(values.shape[1:])))
            cols = [np.bincount(table.seg, weights=col, minlength=c) for col in flat.T]
            return np.stack(cols, axis=-1).reshape((c,) + values.shape[1:])

        for values in (rng.normal(size=m), rng.normal(size=(m, 5)), rng.normal(size=(m, 3, 3))):
            np.testing.assert_array_equal(table.segment_sum(values), oracle(values))
            scaled = weights.reshape((m,) + (1,) * (values.ndim - 1)) * values
            np.testing.assert_array_equal(table.segment_sum(values, weights), oracle(scaled))

    @pytest.mark.parametrize("sizes", [[3, 0, 5, 1, 0, 4], [0, 0], []])
    def test_outer_sum_matches_per_match_outer_products(self, sizes):
        """The weighted moments equal segment sums of (M, 3, K) outer products."""
        rng = np.random.default_rng(7 + len(sizes))
        constraints = [
            LoopClosureConstraint(0, 2, rng.normal(size=(k, 3)), rng.normal(size=(k, 3))) for k in sizes
        ]
        table = MatchTable.from_constraints(constraints)
        m = len(table)
        alpha, y, x = rng.uniform(0.1, 2.0, m), rng.normal(size=(m, 3)), rng.normal(size=(m, 7))
        expected = table.segment_sum((alpha[:, None] * y)[:, :, None] * x[:, None, :])
        np.testing.assert_array_equal(table.outer_operator(alpha, y)(x), expected)
        assert table.outer_operator(alpha, y)(x).shape == (len(sizes), 3, 7)

    def test_outer_operator_serves_each_column_block(self):
        """One operator per weighted point set, applied to several column
        blocks in turn and to a vector, gives each block's per-match oracle
        sums, with zeros for the empty constraints."""
        rng = np.random.default_rng(12)
        constraints = [
            LoopClosureConstraint(0, 2, rng.normal(size=(k, 3)), rng.normal(size=(k, 3)))
            for k in (0, 4, 2, 0, 5, 0)
        ]
        table = MatchTable.from_constraints(constraints)
        m = len(table)
        alpha, y = rng.uniform(0.1, 2.0, m), rng.normal(size=(m, 3))
        moments = table.outer_operator(alpha, y)
        for x in (table.p, table.q, rng.normal(size=(m, 1)), rng.normal(size=(m, 5))):
            expected = table.segment_sum((alpha[:, None] * y)[:, :, None] * x[:, None, :])
            np.testing.assert_array_equal(moments(x), expected)
        vector = rng.normal(size=m)
        np.testing.assert_array_equal(moments(vector), table.segment_sum(alpha[:, None] * y * vector[:, None]))
        assert not moments(np.ones(m))[[0, 3, 5]].any()

    def test_graph_builds_its_table_once(self):
        graph, _ = small_graph(np.random.default_rng(8), n=4, loops=[loop_of(0, 2)])
        assert graph.table is graph.table
        fresh = MatchTable.from_graph(graph)
        for name in ("pairs", "sizes", "seg", "p", "q"):
            np.testing.assert_array_equal(getattr(graph.table, name), getattr(fresh, name))

    def test_empty_table(self):
        table = MatchTable.from_constraints([])
        assert len(table) == 0 and table.pairs.shape == (0, 2)
        assert table.segment_sum(np.zeros((0, 3))).shape == (0, 3)

    def test_residuals_match_pose_transforms(self):
        rng = np.random.default_rng(6)
        poses = chain_poses(rng, 3)
        graph, _ = small_graph(rng, n=3, loops=[loop_of(0, 2)])
        table = MatchTable.from_graph(graph)
        rots = np.stack([p.rotation_matrix() for p in poses])
        trans = np.stack([p.trans for p in poses])
        ei, s = table.frame_residuals(rots, trans)
        for m, (i, j) in enumerate(table.pairs[table.seg]):
            world = transform_point(poses[i], table.p[m]) - transform_point(poses[j], table.q[m])
            np.testing.assert_allclose(ei[m], rots[i].T @ world, atol=1e-12)
        np.testing.assert_allclose(s, np.sum(ei * ei, axis=1), rtol=1e-14)


class TestHyperparams:
    def test_defaults_are_valid(self):
        params = Hyperparams()
        assert params.sigma == 0.5 and params.p_hat == 0.9 and params.epsilon == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0), dict(p_hat=1.0), dict(p_hat=0.0), dict(epsilon=0.0), dict(mode="foo"),
            dict(epsilon=1e-170, gaussian_calibration="literal"),  # epsilon^2 underflows to 0
            # gaussian mode's theta = p_hat * epsilon^k / (1 - p_hat) underflows to 0 / overflows
            dict(mode="gaussian", gaussian_calibration="literal", epsilon=1e-3, p_hat=1e-320),
            dict(mode="gaussian", p_hat=0.9999999999999999, epsilon=1e77),
            dict(em_tol=math.nan), dict(em_tol=-1.0), dict(em_tol=math.inf),
            dict(inlier_threshold=math.nan), dict(inlier_threshold=2.0), dict(inlier_threshold=-0.5),
            # run_em's cap test len(trace) == max_em_iters never stops EM at these
            dict(max_em_iters=0), dict(max_em_iters=2.5), dict(max_em_iters=math.inf),
            dict(max_em_iters=math.nan), dict(max_em_iters="3"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)


class TestRigidFit:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(10)
        truth = se3.exp(np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-5, 5, 3)]))
        source = rng.uniform(-4, 4, (30, 3))
        target = se3.transform_points(truth, source)
        fit = fit_rigid_transform(source, target)
        rot, trans = pose_difference(fit, truth)
        assert rot < 1e-9 and trans < 1e-9

    def test_robust_fit_survives_outliers(self):
        """200 matches, 30% outliers displaced by >= 5 sigma, noiseless inliers."""
        rng = np.random.default_rng(11)
        sigma = 0.5
        truth = se3.exp(np.array([0.2, -0.1, 0.4, 1.0, -2.0, 0.5]))
        source = rng.uniform(-5, 5, (200, 3))
        target = se3.transform_points(truth, source)
        n_out = 60
        bump = rng.normal(size=(n_out, 3))
        bump /= np.linalg.norm(bump, axis=1, keepdims=True)
        target[:n_out] += bump * (5 * sigma + rng.uniform(0, 5, (n_out, 1)))
        fit = se3.unstack(*initialize_poses(ProblemGraph(2, [OdometryConstraint(0, target, source)], [])))[1]
        rot, trans = pose_difference(fit, truth)
        assert rot < 1e-3 and trans < 1e-3

    def test_too_few_matches_raises(self):
        with pytest.raises(AlignmentError, match="odometry constraint 0->1"):
            graph = ProblemGraph(
                2, [OdometryConstraint(0, np.zeros((2, 3)), np.zeros((2, 3)))], []
            )
            initialize_poses(graph)

    def test_collinear_matches_raise(self):
        pts = np.outer(np.arange(5.0), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(AlignmentError, match="degenerate"):
            initialize_poses(ProblemGraph(2, [OdometryConstraint(0, pts, pts)], []))


class TestInitializePoses:
    def test_exact_matches_recover_ground_truth(self):
        rng = np.random.default_rng(20)
        graph, poses = small_graph(rng, n=8)
        recovered = se3.unstack(*initialize_poses(graph))
        for est, gt in zip(recovered, poses):
            rot, trans = pose_difference(est, gt)
            assert rot < 1e-6 and trans < 1e-6

    def test_anchor_is_identity(self):
        graph, _ = small_graph(np.random.default_rng(21), n=5)
        quats, trans = initialize_poses(graph)
        np.testing.assert_array_equal(quats[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(trans[0], [0.0, 0.0, 0.0])

    def test_explicit_initial_poses_verbatim(self):
        rng = np.random.default_rng(22)
        graph, _ = small_graph(rng, n=4)
        explicit = chain_poses(rng, 4)
        graph = ProblemGraph(4, graph.odometry, [], initial_poses=explicit)
        quats, trans = initialize_poses(graph)
        assert quats.shape == (4, 4) and trans.shape == (4, 3)
        for q, t, b in zip(quats, trans, explicit):
            np.testing.assert_array_equal(q, b.quat)
            np.testing.assert_array_equal(t, b.trans)

    def test_broken_chain_reports_missing_constraint(self):
        rng = np.random.default_rng(24)
        graph, _ = small_graph(rng, n=4)
        broken = ProblemGraph(4, [graph.odometry[0], graph.odometry[2]], [])
        with pytest.raises(AlignmentError, match="no odometry constraint between 1 and 2"):
            initialize_poses(broken)

    def test_matches_per_constraint_trimmed_fits(self):
        """The batched fit against a loop over the constraints of the closed-form
        SVD fit with trimming, one constraint at a time."""

        def fit(source, target):
            cs, ct = source.mean(axis=0), target.mean(axis=0)
            U, _, Vt = np.linalg.svd((source - cs).T @ (target - ct))
            d = np.sign(np.linalg.det(Vt.T @ U.T))
            R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
            return se3.from_matrix(R, ct - R @ cs)

        def trimmed_fit(source, target):
            active = np.ones(len(source), dtype=bool)
            for _ in range(4):
                pose = fit(source[active], target[active])
                resid = np.linalg.norm(se3.transform_points(pose, source) - target, axis=1)
                active = resid <= max(3.0 * float(np.median(resid[active])), 1e-9)
            return fit(source[active], target[active])

        rng = np.random.default_rng(25)
        poses = chain_poses(rng, 9)
        constraints = []
        for i, k in enumerate([40, 7, 120, 3, 33, 64, 10, 51]):  # odd and even counts
            world = poses[i].trans + rng.uniform(-5.0, 5.0, (k, 3))
            p = se3.transform_points(se3.inverse(poses[i]), world)
            q = se3.transform_points(se3.inverse(poses[i + 1]), world) + rng.normal(scale=0.02, size=(k, 3))
            which = rng.choice(k, k // 4, replace=False)
            q[which] += rng.uniform(-4.0, 4.0, (len(which), 3))
            constraints.append(OdometryConstraint(i, p, q))
        recovered = se3.unstack(*initialize_poses(ProblemGraph(9, constraints, [])))
        expected = [se3.identity()]
        for c in constraints:
            expected.append(se3.compose(expected[-1], trimmed_fit(c.q, c.p)))
        for est, ref in zip(recovered, expected):
            np.testing.assert_allclose(est.quat, ref.quat, rtol=0, atol=1e-12)
            np.testing.assert_allclose(est.trans, ref.trans, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("also_short", [False, True])
    def test_lowest_failing_constraint_is_named(self, also_short):
        """Constraint 3's matches lie on one line, off every axis; with
        also_short, constraint 6 has too few matches as well."""
        rng = np.random.default_rng(26)
        graph, _ = small_graph(rng, n=9)
        odometry = list(graph.odometry)
        # the centered points' scatter alone puts their second singular value
        # near 2e-7, far above the 1e-9 test; their SVD puts it near 1e-15
        spread = np.random.default_rng(0).uniform(-3.0, 3.0, (12, 1))
        line = np.array([2.0, 5.0, -1.0]) + spread * np.array([0.3, -1.2, 0.7])
        turn = se3.exp(np.array([0.2, -0.4, 0.1, 1.0, 2.0, 3.0]))
        odometry[3] = OdometryConstraint(3, se3.transform_points(turn, line), line)
        if also_short:
            odometry[6] = OdometryConstraint(6, odometry[6].p[:2], odometry[6].q[:2])
        with pytest.raises(AlignmentError, match=r"^odometry constraint 3->4: surviving matches are degenerate"):
            initialize_poses(ProblemGraph(9, odometry, []))

    def test_segment_medians_match_np_median(self):
        rng = np.random.default_rng(27)
        sizes = [5, 6, 1, 2, 0, 9]
        constraints = [LoopClosureConstraint(0, 2, np.zeros((k, 3)), np.zeros((k, 3))) for k in sizes]
        table = MatchTable.from_constraints(constraints)
        values = rng.uniform(0.0, 1.0, len(table))
        active = rng.uniform(size=len(table)) < 0.7
        active[table.seg == 2] = True
        medians = model._segment_medians(table, values, active)
        for c in range(len(sizes)):
            chosen = values[(table.seg == c) & active]
            if len(chosen):
                assert medians[c] == np.median(chosen)

    def test_outlier_matches_tolerated(self):
        """30% of odometry matches displaced by >= 5 sigma must not break the chain."""
        rng = np.random.default_rng(23)
        poses = chain_poses(rng, 6)
        constraints = []
        for i in range(5):
            mid = 0.5 * (poses[i].trans + poses[i + 1].trans)
            world = mid + rng.uniform(-5.0, 5.0, (200, 3))
            p = se3.transform_points(se3.inverse(poses[i]), world)
            q = se3.transform_points(se3.inverse(poses[i + 1]), world)
            n_out = 60
            which = rng.choice(200, n_out, replace=False)
            bump = rng.normal(size=(n_out, 3))
            bump /= np.linalg.norm(bump, axis=1, keepdims=True)
            q[which] += bump * (2.5 + rng.uniform(0, 5, (n_out, 1)))
            constraints.append(OdometryConstraint(i, p, q))
        graph = ProblemGraph(6, constraints, [])
        recovered = se3.unstack(*initialize_poses(graph))
        for est, gt in zip(recovered, poses):
            rot, trans = pose_difference(est, gt)
            assert rot < 5e-3 and trans < 5e-3


def _displaced_chain(rng, n, k=40, fraction=0.3):
    """Odometry of a random chain whose matches carry 2 cm noise, with the
    given fraction of each constraint's q points displaced by 2.5-7.5 m."""
    poses = chain_poses(rng, n)
    constraints = []
    for i in range(n - 1):
        world = 0.5 * (poses[i].trans + poses[i + 1].trans) + rng.uniform(-5.0, 5.0, (k, 3))
        p = se3.transform_points(se3.inverse(poses[i]), world)
        q = se3.transform_points(se3.inverse(poses[i + 1]), world) + rng.normal(scale=0.02, size=(k, 3))
        which = rng.choice(k, int(fraction * k), replace=False)
        bump = rng.normal(size=(len(which), 3))
        bump *= rng.uniform(2.5, 7.5, (len(which), 1)) / np.linalg.norm(bump, axis=1, keepdims=True)
        q[which] += bump
        constraints.append(OdometryConstraint(i, p, q))
    return constraints


def _odometry_case(name: str) -> list:
    """The odometry of a named case: a benchmark workload's first scene, a
    random displaced chain, or chains with failing constraints among good ones."""
    if name == "circle-100":
        return generate(ScenarioConfig(seed=0)).odometry
    if name == "gaussian-clean-200":
        clean = dict(match_noise=0.01, outlier_match_fraction=0.0, outlier_loop_fraction=0.2)
        return generate(ScenarioConfig(num_fragments=200, seed=0, **clean)).odometry
    if name == "circle-400":
        return generate(ScenarioConfig(num_fragments=400, seed=0)).odometry
    if name.startswith("displaced-"):
        return _displaced_chain(np.random.default_rng(100 + int(name[-1])), 30)
    rng = np.random.default_rng(110)
    odometry = _displaced_chain(rng, 12)
    if name == "short-and-collinear":
        # two matches: below the three a fit needs from the first round on.
        # Trimming alone cannot go below three: a fit's residuals over its
        # active matches sum to zero, so the largest of three is at most
        # twice the median, and of more than three at least three stay
        odometry[4] = OdometryConstraint(4, odometry[4].p[:2], odometry[4].q[:2])
        line = np.outer(np.arange(8.0), [0.3, -1.2, 0.7])
        odometry[7] = OdometryConstraint(7, line + [1.0, 2.0, 3.0], line)
        return odometry
    assert name == "near-1e200"
    odometry[1].p[:1] *= 1e200  # one match
    odometry[1].q[:1] *= -1e200
    odometry[3].p[:] *= 1e200  # every match
    odometry[3].q[:] *= -1e200
    return odometry


_CASES = ["circle-100", "gaussian-clean-200", "circle-400", "displaced-0", "displaced-1", "displaced-2",
          "short-and-collinear", "near-1e200"]


class TestIncrementalTrimming:
    """_robust_fit refits only the constraints whose active matches changed
    and stops at the trimming fixed point; the full refit of every constraint
    in every round (oracle.robust_fit_full_refit) gives the same bits."""

    @pytest.mark.parametrize("name", _CASES)
    def test_matches_the_full_refit(self, name):
        table = MatchTable.from_constraints(_odometry_case(name))
        rots, trans, failures = model._robust_fit(table, 3, 3.0)
        ref_rots, ref_trans, ref_failures = robust_fit_full_refit(table, 3, 3.0)
        np.testing.assert_array_equal(rots, ref_rots)
        np.testing.assert_array_equal(trans, ref_trans)
        assert failures == ref_failures
        if name == "short-and-collinear":
            assert sorted(failures) == [4, 7]
            assert failures[4].startswith("only 2 matches") and "degenerate" in failures[7]
        if name == "near-1e200":
            assert sorted(failures) == [1, 3] and all("overflow" in r for r in failures.values())

    def test_stops_at_the_fixed_point(self, monkeypatch):
        """Each round fits only what the last trim changed: exact matches
        keep every match, so the first fit is the last."""
        fitted = []
        real = model._fit_rigid

        def spy(table, active):
            fitted.append(len(table.sizes))
            return real(table, active)

        monkeypatch.setattr(model, "_fit_rigid", spy)
        graph, _ = small_graph(np.random.default_rng(30), n=12)
        model._robust_fit(MatchTable.from_constraints(graph.odometry), 3, 3.0)
        assert fitted == [11]
        fitted.clear()
        odometry = _displaced_chain(np.random.default_rng(31), 12)
        model._robust_fit(MatchTable.from_constraints(odometry), 3, 3.0)
        assert fitted == [11, 11, 2]  # all; all, as the first trim changed each; then two
