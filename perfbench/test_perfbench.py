"""Tests of the benchmark harness on tiny scenes.

Run from the repository root with `python3 -m pytest perfbench -q`; the
repository's own test suite does not collect this directory.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from robustpgo import em, se3, synth  # noqa: E402
from robustpgo.model import Hyperparams, PosteriorState  # noqa: E402
from robustpgo.synth import ScenarioConfig  # noqa: E402

TINY = tuple(ScenarioConfig(num_fragments=24, matches_per_constraint=8, seed=s) for s in range(3))


def tiny(mode: str) -> harness.Workload:
    return harness.Workload(f"tiny-{mode}", TINY, Hyperparams(mode=mode))


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def untraced():
    return harness.run_benchmark(tiny("cauchy"), seed=0, seconds=0, trace=False)


@pytest.fixture(scope="module", params=["cauchy", "gaussian"])
def traced(request):
    return request.param, harness.run_benchmark(tiny(request.param), seed=0, seconds=0, trace=True)


def test_every_declared_metric_is_emitted_with_its_unit(untraced, traced):
    _, result = traced
    for kind, metrics in (
        ("end_to_end", harness.end_to_end(untraced)),
        ("per_layer", harness.per_layer(result)),
    ):
        assert {name: unit for name, (_, unit) in metrics.items()} == declared(kind)
        assert all(np.isfinite(value) for value, _ in metrics.values())


def test_counts_repeat_exactly_per_solve(traced):
    mode, result = traced
    spans = result.tracer.spans
    solves = [k for k, s in enumerate(spans) if s.name == "bench.solve"]
    assert len(solves) == len(TINY)
    for root in solves:
        calls = {}
        for s in spans:
            if s.root == root:
                calls[s.name] = calls.get(s.name, 0) + 1
        iterations = next(s.info["iterations"] for s in spans if s.root == root and s.name == "em.run_em")
        assert iterations >= 1
        assert calls["em.e_step"] == iterations + 1
        assert calls["solver.solve"] == iterations
        theta_calls = iterations + 1 if mode == "cauchy" else 0
        assert calls.get("em.learn_theta", 0) == theta_calls


def test_self_times_of_a_solve_sum_to_its_duration(traced):
    _, result = traced
    tracer = result.tracer
    own = tracer.self_times()
    for k, span in enumerate(tracer.spans):
        if span.parent is None:
            total = sum(t for s, t in zip(tracer.spans, own) if s.root == k)
            assert total == pytest.approx(span.duration, rel=1e-9, abs=1e-12)
    assert min(own) > -1e-9


def test_wrappers_are_removed_after_a_traced_run(traced):
    for point in harness.TRACE_POINTS:
        assert not hasattr(getattr(point.module, point.attr), "__wrapped__"), point.name


def test_failed_solves_are_counted_by_type_without_aborting(monkeypatch):
    real = em.run_em
    calls = []

    def flaky(graph, params):
        calls.append(None)
        if len(calls) == 2:  # the first measured solve, after the warm-up
            raise FloatingPointError("injected")
        return real(graph, params)

    monkeypatch.setattr(em, "run_em", flaky)
    result = harness.run_benchmark(tiny("cauchy"), seed=0, seconds=0, trace=False)
    assert len(result.outcomes) == len(TINY)
    assert result.failures == {"FloatingPointError": 1}
    assert harness.failed_frac(result) == pytest.approx(1 / len(TINY))
    assert harness.end_to_end(result)["solve_s"][0] > 0


def _moved_gauge(sol):
    poses = list(sol.poses)
    poses[0] = se3.retract(poses[0], np.full(6, 1e-6))
    return replace(sol, poses=poses)


def _bad_posterior(sol):
    post = sol.state.posteriors.copy()
    post[0] = 1.5
    return replace(sol, state=PosteriorState(sol.state.theta, post))


def _rising_objective(sol):
    first = sol.trace.iterations[0]
    bad = replace(first, objective_path=[1.0, 2.0])
    return replace(sol, trace=replace(sol.trace, iterations=[bad, *sol.trace.iterations[1:]]))


def _report_mismatch(sol):
    labels = sol.labels.copy()
    labels[0] = not labels[0]
    return replace(sol, labels=labels)


@pytest.mark.parametrize("corrupt", [_moved_gauge, _bad_posterior, _rising_objective, _report_mismatch])
def test_check_output_rejects_broken_solutions(corrupt):
    sol, setup, solve = harness.timed_solve(harness.scene_text(TINY[0], 0), Hyperparams())
    assert 0 < setup.wall_s < solve.wall_s and solve.seconds > 0
    harness.check_output(sol)
    with pytest.raises(harness.CheckFailed):
        harness.check_output(corrupt(sol))


def test_scores_match_a_direct_solve_of_the_generated_scene():
    """The parse round-trip and shuffled rows solve the same problem as the
    acceptance suite, which runs em.run_em on the generated graph."""
    config, params = ScenarioConfig(seed=0), Hyperparams()
    sol, _, _ = harness.timed_solve(harness.scene_text(config, seed=3), params)
    graph = synth.generate(config)
    poses, state, _ = em.run_em(graph, params)
    direct = synth.evaluate(poses, graph, em.classify_loops(state, params.inlier_threshold))
    scores = harness.score(sol)
    assert scores["precision"] == direct.precision
    assert scores["recall"] == direct.recall
    assert scores["ate_mean_m"] == pytest.approx(direct.mean_translation_error, rel=1e-6)
