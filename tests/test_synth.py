import math
import time

import numpy as np
import pytest

from robustpgo import em, se3
from robustpgo.graphio import write_graph
from robustpgo.model import Hyperparams
from robustpgo.synth import (
    ScenarioConfig,
    ScenarioError,
    _MIN_REVISIT_GAP,
    anchored_ate,
    evaluate,
    full_alignment_ate,
    generate,
)


class TestGenerate:
    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(num_fragments=30, keyframe_stride=3, seed=9)
        assert write_graph(generate(cfg)) == write_graph(generate(cfg))

    def test_different_seeds_differ(self):
        a = write_graph(generate(ScenarioConfig(num_fragments=30, keyframe_stride=3, seed=1)))
        b = write_graph(generate(ScenarioConfig(num_fragments=30, keyframe_stride=3, seed=2)))
        assert a != b

    def test_clean_config_gives_exact_correspondences(self):
        """No noise, no outliers: every match closes exactly under ground truth."""
        cfg = ScenarioConfig(
            num_fragments=20,
            keyframe_stride=1,
            match_noise=0.0,
            outlier_match_fraction=0.0,
            outlier_loop_fraction=0.0,
            seed=4,
        )
        graph = generate(cfg)
        gt = graph.ground_truth
        for c in graph.odometry:
            r = se3.transform_points(gt[c.i], c.p) - se3.transform_points(gt[c.i + 1], c.q)
            assert np.abs(r).max() < 1e-9
        for c in graph.loops:
            r = se3.transform_points(gt[c.i], c.p) - se3.transform_points(gt[c.j], c.q)
            assert np.abs(r).max() < 1e-9

    def test_loop_count_against_enumeration_oracle(self):
        """Loop count for a 20-fragment circle, stride 5: brute-force enumeration
        of keyframe revisit pairs plus the false-count formula."""
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=5, seed=7)
        graph = generate(cfg)

        pos = np.stack([p.trans for p in graph.ground_truth])
        expected_true = set()
        for k in range(0, 20, 5):
            best = None
            for j in range(20):
                if abs(j - k) < _MIN_REVISIT_GAP:
                    continue
                d = float(np.linalg.norm(pos[j] - pos[k]))
                if d <= 2.5 * cfg.spacing and (best is None or d < best[0] or (d == best[0] and j < best[1])):
                    best = (d, j)
            assert best is not None
            expected_true.add((min(k, best[1]), max(k, best[1])))
        expected_false = round(len(expected_true) * 0.8 / 0.2)
        assert len(graph.loops) == len(expected_true) + expected_false
        truths = {pair for pair, lab in graph.oracle_labels.items() if lab}
        assert truths == expected_true

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_outlier_ratio_within_rounding(self, fraction):
        cfg = ScenarioConfig(
            num_fragments=40, keyframe_stride=2, outlier_loop_fraction=fraction, seed=11
        )
        graph = generate(cfg)
        n_false = sum(1 for lab in graph.oracle_labels.values() if not lab)
        assert abs(n_false - fraction * len(graph.loops)) <= 1.0

    def test_outlier_match_count_per_constraint(self):
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=13)
        graph = generate(cfg)
        gt = graph.ground_truth
        for c in graph.odometry:
            r = np.linalg.norm(
                se3.transform_points(gt[c.i], c.p) - se3.transform_points(gt[c.i + 1], c.q),
                axis=1,
            )
            # outliers are ball-displaced; inliers sit at the noise scale
            assert np.sum(r > 10 * cfg.match_noise) <= round(0.3 * c.size) + 2

    def test_false_loops_are_far_apart(self):
        cfg = ScenarioConfig(num_fragments=60, keyframe_stride=3, seed=5)
        graph = generate(cfg)
        pos = np.stack([p.trans for p in graph.ground_truth])
        for c in graph.loops:
            if not graph.oracle_labels[c.pair]:
                assert np.linalg.norm(pos[c.i] - pos[c.j]) > 3.0 * cfg.spacing

    def test_line_has_no_revisits(self):
        with pytest.raises(ScenarioError, match="revisit"):
            generate(ScenarioConfig(num_fragments=20, shape="line", seed=0))

    def test_line_with_pure_outlier_loops_is_legal(self):
        cfg = ScenarioConfig(
            num_fragments=20, shape="line", outlier_loop_fraction=1.0, keyframe_stride=2, seed=0
        )
        graph = generate(cfg)
        assert graph.loops and not any(graph.oracle_labels.values())

    @pytest.mark.parametrize(
        "name, value",
        [
            ("match_noise", -1.0),
            ("match_noise", float("inf")),
            ("match_noise", float("nan")),
            ("outlier_displacement", -2.0),
            ("outlier_displacement", float("inf")),
        ],
    )
    def test_noise_fields_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ScenarioError, match=name):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("spacing", [math.inf, 1e308, 1e200])
    def test_spacing_past_the_float_range_is_rejected(self, spacing):
        """inf fails the config; 1e308 and 1e200 give a scene whose
        coordinates, or their squares, pass the float range. Each raises
        with no warning, which the suite turns into an error."""
        with pytest.raises(ScenarioError, match="spacing"):
            generate(ScenarioConfig(num_fragments=20, spacing=spacing))

    def test_nonfinite_match_points_are_rejected(self):
        with pytest.raises(ScenarioError, match="match point"):
            generate(ScenarioConfig(num_fragments=20, match_noise=1e308))

    @pytest.mark.parametrize("loops", [1000, 10_000])
    def test_more_false_loops_than_free_pairs_fail_at_once(self, loops):
        """20 keyframes ask for 20,000 or 200,000 false loops, past the
        4,851 pairs with j - i >= 2 that 100 fragments have: the config fails
        before any pair is sampled."""
        cfg = ScenarioConfig(outlier_loop_fraction=1.0, loops_per_keyframe=loops)
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match="; 4851 pairs"):
            generate(cfg)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name", ["num_fragments", "matches_per_constraint", "keyframe_stride", "seed"])
    @pytest.mark.parametrize("value", [2.5, "7"])
    def test_count_fields_must_be_integers(self, name, value):
        with pytest.raises(ScenarioError, match=f"{name} must be an integer"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("num_fragments", [1, 0, -5])
    def test_needs_two_fragments(self, num_fragments):
        with pytest.raises(ScenarioError, match="at least 2 fragments"):
            ScenarioConfig(num_fragments=num_fragments)

    def test_fraction_too_close_to_one_rejected(self):
        with pytest.raises(ScenarioError, match="rounds to 0"):
            generate(ScenarioConfig(num_fragments=20, outlier_loop_fraction=0.95, seed=0))

    def test_validates_cleanly(self):
        from robustpgo.model import validate

        graph = generate(ScenarioConfig(num_fragments=30, keyframe_stride=3, seed=2))
        assert validate(graph) == []

    @pytest.mark.parametrize("shape", ["circle", "figure-eight"])
    def test_ground_truth_evaluates_to_zero(self, shape):
        cfg = ScenarioConfig(num_fragments=60, shape=shape, keyframe_stride=3, seed=3)
        graph = generate(cfg)
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        res = evaluate(graph.ground_truth, graph, oracle)
        assert res.mean_translation_error < 1e-9
        assert res.precision == 1.0 and res.recall == 1.0


class TestEvaluate:
    def test_constant_shift_absorbed_by_alignment(self):
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=6)
        graph = generate(cfg)
        shifted = [se3.Pose(p.quat, p.trans + np.array([3.0, -7.0, 2.0])) for p in graph.ground_truth]
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        res = evaluate(shifted, graph, oracle)
        assert res.mean_translation_error < 1e-9

    def test_rigid_transform_absorbed_by_alignment(self):
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=6)
        graph = generate(cfg)
        G = se3.Pose(*se3.exp_arrays(np.array([0.0, 0.0, 0.7, 4.0, 1.0, -2.0])))
        moved = [se3.Pose(*se3.compose_arrays(G.quat, G.trans, p.quat, p.trans)) for p in graph.ground_truth]
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        res = evaluate(moved, graph, oracle)
        assert res.mean_translation_error < 1e-9

    def test_full_alignment_ate_does_not_hinge_on_the_first_five_poses(self):
        """A trajectory that is the truth moved rigidly scores 0 after one
        alignment over all poses. Its first five poses lie on a line, so the
        rotation about that line is left to the anchored fit, which misses
        it: a large anchored ATE on the poses that turn off the line."""
        straight = [np.array([k, 0.0, 0.0]) for k in range(8)]
        turn = [np.array([7 + 5 * np.sin(0.3 * k), 5 - 5 * np.cos(0.3 * k), 0.0]) for k in range(1, 23)]
        truth = [se3.Pose(np.array([1.0, 0.0, 0.0, 0.0]), t) for t in straight + turn]
        move = se3.Pose(*se3.exp_arrays(np.array([0.3, -0.7, 0.4, 5.0, -2.0, 1.0])))
        moved = [se3.Pose(*se3.compose_arrays(move.quat, move.trans, p.quat, p.trans)) for p in truth]
        assert full_alignment_ate(moved, truth) < 1e-12
        assert anchored_ate(moved, truth) > 1.0

    def test_evaluate_reports_the_full_alignment_ate(self):
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=6))
        rng = np.random.default_rng(3)
        noisy = [se3.retract(p, rng.normal(scale=0.05, size=6)) for p in graph.ground_truth]
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        res = evaluate(noisy, graph, oracle)
        assert res.full_alignment_ate == full_alignment_ate(noisy, graph.ground_truth)
        assert 0.0 < res.full_alignment_ate < res.mean_translation_error

    def test_confusion_arithmetic(self):
        """10 true / 40 false loops; one true missed, all false rejected:
        precision 1.0, recall 0.9."""
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3)
        graph = generate(cfg)
        oracle = np.array([graph.oracle_labels[c.pair] for c in graph.loops])
        assert oracle.sum() == 10 and (~oracle).sum() == 40
        predicted = oracle.copy()
        predicted[np.argmax(oracle)] = False  # drop one true loop
        res = evaluate(graph.ground_truth, graph, predicted)
        assert res.precision == 1.0
        assert res.recall == pytest.approx(0.9)
        assert (res.tp, res.fp, res.fn) == (9, 0, 1)

    def test_no_loop_classified_inlier(self):
        """With every loop classified outlier, precision reads 1.0 and only
        the counts show that every true loop was lost."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        res = evaluate(graph.ground_truth, graph, np.zeros(len(graph.loops), dtype=bool))
        assert (res.precision, res.recall) == (1.0, 0.0)
        assert (res.tp, res.fp, res.fn) == (0, 0, 10)

    def test_requires_six_fragments(self):
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3)
        graph = generate(cfg)
        small = type(graph)(
            num_fragments=5,
            odometry=graph.odometry[:4],
            loops=[],
            ground_truth=graph.ground_truth[:5],
            oracle_labels={},
        )
        with pytest.raises(ScenarioError, match="at least 6"):
            evaluate(graph.ground_truth[:5], small, [])

    @pytest.mark.parametrize(
        "field, message", [("ground_truth", "no ground truth"), ("oracle_labels", "no oracle loop labels")]
    )
    def test_graph_without_ground_truth_or_labels(self, field, message):
        """A graph that carries no ground truth, or no labels at all, has no score."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        poses = graph.ground_truth
        setattr(graph, field, None)
        with pytest.raises(ScenarioError, match=message):
            evaluate(poses, graph, oracle)

    def test_partial_oracle_labels(self):
        """Labels for some loops only: no score, and no KeyError."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        missing = graph.loops[1].pair
        del graph.oracle_labels[missing]
        with pytest.raises(ScenarioError, match=rf"no oracle label for loop \({missing[0]}, {missing[1]}\)"):
            evaluate(graph.ground_truth, graph, oracle)

    @pytest.mark.parametrize("count", [3, 19, 21])
    def test_pose_count_mismatch(self, count):
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        poses = (graph.ground_truth + graph.ground_truth)[:count]
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        with pytest.raises(ScenarioError, match=f"{count} poses for 20 fragments"):
            evaluate(poses, graph, oracle)

    def test_overflowing_squares_give_the_true_mean_error(self):
        """A pose 1e200 m off squares past the float range, yet its error
        does not: the mean over the 15 evaluated poses is 1e200 / 15, with no
        warning (RuntimeWarning is an error in this suite)."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        poses = list(graph.ground_truth)
        poses[7] = se3.Pose(poses[7].quat, np.array([1e200, 0.0, 0.0]))
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        ate = evaluate(poses, graph, oracle).mean_translation_error
        assert ate == pytest.approx(1e200 / 15, rel=1e-12)

    def test_lengths_summing_past_the_float_range_give_the_true_mean(self):
        """Two poses 1.5e308 m off have finite errors whose sum is not: the
        mean over the 15 evaluated poses is still 3e308 / 15 = 2e307."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        poses = list(graph.ground_truth)
        for k in (7, 12):
            poses[k] = se3.Pose(poses[k].quat, np.array([1.5e308, 0.0, 0.0]))
        oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
        ate = evaluate(poses, graph, oracle).mean_translation_error
        assert ate == pytest.approx(2e307, rel=1e-12)

    def test_label_count_mismatch(self):
        cfg = ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3)
        graph = generate(cfg)
        with pytest.raises(ScenarioError, match="labels"):
            evaluate(graph.ground_truth, graph, [True])


class TestStressMonotonicity:
    def test_rejected_loops_track_outlier_fraction(self):
        """At a fixed seed, raising the outlier-loop fraction never reduces the
        number of EM-rejected loops by more than one."""
        rejected = []
        for fraction in (0.2, 0.5, 0.8):
            cfg = ScenarioConfig(
                num_fragments=40,
                keyframe_stride=2,
                outlier_loop_fraction=fraction,
                seed=21,
            )
            graph = generate(cfg)
            _, state, _ = em.run_em(graph, Hyperparams())
            labels = em.classify_loops(state, 0.5)
            rejected.append(int((~labels).sum()))
        assert rejected[1] >= rejected[0] - 1
        assert rejected[2] >= rejected[1] - 1
