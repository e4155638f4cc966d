"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they happen.
The loop-pruning and trajectory criteria share one set of ten seeded runs of
the reference scenario (100-fragment circle, 50 matches per constraint, 5 cm
match noise, 30% outlier matches, 80% outlier loops), so the whole suite
stays within a couple of minutes on a laptop core.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from robustpgo import em, se3, solver
from robustpgo.graphio import parse, write_graph
from robustpgo.model import Hyperparams, ProblemGraph, initialize_poses
from robustpgo.synth import ScenarioConfig, evaluate, generate

from oracle import finite_difference_gradient, residual_and_jacobian
from test_io import MALFORMED, graphs_equal, random_graph
from test_solver import random_block, random_pose_pair

SEEDS = list(range(10))


def report_line(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@dataclass
class Run:
    graph: ProblemGraph
    init_ate: float
    final_ate: float
    precision: float
    recall: float
    trace: em.EmTrace
    elapsed: float


def execute(cfg: ScenarioConfig, params: Hyperparams) -> Run:
    graph = generate(cfg)
    oracle = [graph.oracle_labels[c.pair] for c in graph.loops]
    init = se3.unstack(*initialize_poses(graph))
    init_ate = evaluate(init, graph, oracle).mean_translation_error
    start = time.perf_counter()
    poses, state, trace = em.run_em(graph, params)
    elapsed = time.perf_counter() - start
    labels = em.classify_loops(state, params.inlier_threshold)
    res = evaluate(poses, graph, labels)
    return Run(graph, init_ate, res.mean_translation_error, res.precision, res.recall, trace, elapsed)


@pytest.fixture(scope="module")
def reference_runs():
    """Ten seeds of the reference outlier-heavy scenario, cauchy defaults."""
    return [execute(ScenarioConfig(seed=s), Hyperparams()) for s in SEEDS]


@pytest.fixture(scope="module")
def clean_runs():
    """Same trajectory with every outlier fraction at zero."""
    return [
        execute(
            ScenarioConfig(seed=s, outlier_match_fraction=0.0, outlier_loop_fraction=0.0),
            Hyperparams(),
        )
        for s in SEEDS
    ]


def test_criterion_1_loop_pruning_quality(reference_runs):
    """Precision >= 0.95 and recall >= 0.90 against oracle labels, averaged
    over ten seeds, each run under 60 s."""
    precision = float(np.mean([r.precision for r in reference_runs]))
    recall = float(np.mean([r.recall for r in reference_runs]))
    slowest = max(r.elapsed for r in reference_runs)
    ok = precision >= 0.95 and recall >= 0.90 and slowest < 60.0
    report_line(
        "criterion 1 (loop pruning)",
        ok,
        f"precision={precision:.4f} recall={recall:.4f} slowest={slowest:.1f}s",
    )


def test_criterion_2_trajectory_improvement(reference_runs, clean_runs):
    """Final ATE < 0.5x the odometry initialization on >= 9/10 outlier-heavy
    seeds; <= 2x the noise std on >= 9/10 zero-outlier seeds."""
    improved = sum(1 for r in reference_runs if r.final_ate < 0.5 * r.init_ate)
    noise_floor = sum(1 for r in clean_runs if r.final_ate <= 2 * 0.05)
    ok = improved >= 9 and noise_floor >= 9
    ratios = " ".join(f"{r.final_ate / r.init_ate:.2f}" for r in reference_runs)
    floors = " ".join(f"{r.final_ate:.3f}" for r in clean_runs)
    report_line(
        "criterion 2 (trajectory improvement)",
        ok,
        f"ratio<0.5 on {improved}/10 [{ratios}]; ate<=0.1 on {noise_floor}/10 [{floors}]",
    )


def test_criterion_3_gaussian_degeneration():
    """Zero outlier matches, 20% outlier loops: gaussian and cauchy modes make
    identical classifications and nearly identical poses on every seed.

    Match noise is 1 cm so residuals respect the gaussian mode's premise that
    inlier errors stay below the epsilon bound (5 cm).
    """
    worst_diff = 0.0
    agree = True
    for s in SEEDS:
        cfg = ScenarioConfig(
            seed=s, match_noise=0.01, outlier_match_fraction=0.0, outlier_loop_fraction=0.2
        )
        graph = generate(cfg)
        outputs = {}
        for mode in ("cauchy", "gaussian"):
            poses, state, _ = em.run_em(graph, Hyperparams(mode=mode))
            outputs[mode] = (poses, em.classify_loops(state, 0.5))
        if not np.array_equal(outputs["cauchy"][1], outputs["gaussian"][1]):
            agree = False
        diffs = [
            float(np.linalg.norm(a.trans - b.trans))
            for a, b in zip(outputs["cauchy"][0], outputs["gaussian"][0])
        ]
        worst_diff = max(worst_diff, float(np.mean(diffs)))
    ok = agree and worst_diff < 1e-3
    report_line(
        "criterion 3 (gaussian degeneration)",
        ok,
        f"classifications identical={agree}, worst mean pose diff={worst_diff:.2e} m",
    )


def test_criterion_4a_solver_steps_monotone(reference_runs, clean_runs):
    violations = 0
    for run in reference_runs + clean_runs:
        for rec in run.trace.iterations:
            path = [rec.objective_start] + list(rec.objective_path)
            if any(b > a for a, b in zip(path, path[1:])):
                violations += 1
    report_line(
        "criterion 4a (accepted steps non-increasing)",
        violations == 0,
        f"{violations} violating M-steps across {len(reference_runs) + len(clean_runs)} runs",
    )


def test_criterion_4b_em_objective_monotone(reference_runs, clean_runs):
    worst = 0.0
    for run in reference_runs + clean_runs:
        for rec in run.trace.iterations:
            worst = max(worst, rec.objective_end - rec.objective_start)
    report_line(
        "criterion 4b (fixed-posterior objective non-increasing)",
        worst <= 1e-9,
        f"worst increase {worst:.2e} (allowed 1e-9)",
    )


def test_criterion_4c_gradient_check():
    """Analytic vs central-difference gradients, 1000 random blocks per kernel."""
    rng = np.random.default_rng(777)
    worst = 0.0
    for kernel in (solver.KERNEL_CAUCHY, solver.KERNEL_SQUARED):
        for _ in range(1000):
            poses = random_pose_pair(rng)
            block = random_block(rng, kernel)
            _, gi, gj = residual_and_jacobian(block, poses)
            fi, fj = finite_difference_gradient(block, poses)
            analytic = np.concatenate([gi, gj])
            numeric = np.concatenate([fi, fj])
            scale = max(np.abs(analytic).max(), 1e-8)
            worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    report_line(
        "criterion 4c (finite-difference gradients)",
        worst < 1e-5,
        f"max relative error {worst:.2e} over 2000 blocks",
    )


def test_criterion_5_closed_form_units():
    theta = em.theta_from_errors([1.0, 5.0, 100.0], 0.9)
    post = em.posterior_cauchy(np.array([0.0]), 45.0)[0]
    guarded = em.posterior_cauchy(np.array([700.0]), 45.0)[0]
    ok = (
        abs(theta - 45.0) <= 1e-12
        and abs(post - 45.0 / 46.0) <= 1e-12
        and np.isfinite(guarded)
        and 0.0 <= guarded <= 1.0
    )
    report_line(
        "criterion 5 (closed-form unit checks)",
        ok,
        f"theta={theta!r}, posterior={post!r}, guarded={guarded!r}",
    )


def test_criterion_6_format_contract(tmp_path):
    """Round-trip equality on 100 fuzzed graphs, byte-fixpoint on rewrite,
    line-accurate errors for every malformed case, nonzero CLI exit codes."""
    from robustpgo import cli
    from robustpgo.graphio import ParseError

    rng = np.random.default_rng(2024)
    round_trips = 0
    fixpoints = 0
    for _ in range(100):
        graph = random_graph(rng)
        text = write_graph(graph)
        back = parse(text)
        round_trips += graphs_equal(graph, back)
        fixpoints += write_graph(back) == text

    line_accurate = 0
    for doc, line, fragment in MALFORMED:
        try:
            parse(doc)
        except ParseError as err:
            line_accurate += err.line_no == line and fragment in err.reason

    bad = tmp_path / "malformed.pcg"
    bad.write_text("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\n")
    try:
        exit_code = cli.main(["solve", "--in", str(bad)])
    except SystemExit as exc:
        exit_code = exc.code

    ok = (
        round_trips == 100
        and fixpoints == 100
        and line_accurate == len(MALFORMED)
        and exit_code != 0
    )
    report_line(
        "criterion 6 (format contract)",
        ok,
        f"round-trips {round_trips}/100, fixpoints {fixpoints}/100, "
        f"malformed {line_accurate}/{len(MALFORMED)}, cli exit {exit_code}",
    )


def test_criterion_7_gauge_invariance():
    """A common rigid transform applied to all initial and ground-truth poses
    changes the final ATE by < 1e-6 m."""
    cfg = ScenarioConfig(seed=0, num_fragments=60, keyframe_stride=3)
    graph = generate(cfg)
    init = se3.unstack(*initialize_poses(graph))
    base = ProblemGraph(
        graph.num_fragments, graph.odometry, graph.loops, init, graph.ground_truth, graph.oracle_labels
    )
    G = se3.exp(np.array([0.2, -0.4, 1.1, 25.0, -10.0, 4.0]))
    moved = ProblemGraph(
        graph.num_fragments,
        graph.odometry,
        graph.loops,
        [se3.compose(G, p) for p in init],
        [se3.compose(G, p) for p in graph.ground_truth],
        graph.oracle_labels,
    )
    ates = []
    for g in (base, moved):
        poses, state, _ = em.run_em(g, Hyperparams())
        labels = em.classify_loops(state, 0.5)
        ates.append(evaluate(poses, g, labels).mean_translation_error)
    diff = abs(ates[0] - ates[1])
    report_line(
        "criterion 7 (gauge invariance)",
        diff < 1e-6,
        f"ATE {ates[0]:.6f} vs {ates[1]:.6f}, diff {diff:.2e} m",
    )
