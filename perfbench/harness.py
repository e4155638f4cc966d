"""Workloads, the timed solve path, output checks and metrics of perfbench.

numpy is imported here, so load this module only after the BLAS/OpenMP thread
pins are in the environment; run.py sets them first.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from robustpgo import em, graphio, model, se3, solver, synth
from robustpgo.model import Hyperparams, ProblemGraph
from robustpgo.synth import ScenarioConfig
from spans import TracePoint, Tracer
from speed import SpeedProbe

# set-ups timed before the measured solves, so setup_s is a median even when
# a run has room for only a few solves
MIN_SETUPS = 5
# a run goes on past --seconds until it has this many solves
MIN_SOLVES = 3
# the warm-up solves the first scene cut to this many fragments: it runs every
# code path once, and at N = 400 a full-size warm-up would take 11 s of a run
# although the first measured solve is no slower than later ones
WARMUP_FRAGMENTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple[ScenarioConfig, ...]
    params: Hyperparams


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance suite's ten reference scenes; cost is paid per match
        Workload("circle-100", tuple(ScenarioConfig(seed=s) for s in range(10)), Hyperparams()),
        # the reference scene at N = 400, where factorization and retraction
        # take their largest share
        Workload("circle-400", (ScenarioConfig(num_fragments=400, seed=0),), Hyperparams()),
        # criterion-3 regime: squared kernel, constant theta, no outlier matches
        Workload(
            "gaussian-clean-200",
            tuple(
                ScenarioConfig(
                    num_fragments=200,
                    seed=s,
                    match_noise=0.01,
                    outlier_match_fraction=0.0,
                    outlier_loop_fraction=0.2,
                )
                for s in range(5)
            ),
            Hyperparams(mode="gaussian"),
        ),
    )
}


def _solver_counts(result) -> dict[str, float]:
    _, report = result
    return {"accepted": report.iterations, "capped": float(report.termination == "max_iterations")}


# Calls are wrapped where their caller looks them up: em imports
# initialize_poses by name, solver calls se3.retract and its own splu global.
TRACE_POINTS = (
    TracePoint(synth, "generate", "synth.generate"),
    TracePoint(synth, "evaluate", "synth.evaluate"),
    TracePoint(graphio, "parse", "graphio.parse"),
    TracePoint(model, "validate", "model.validate"),
    TracePoint(em, "run_em", "em.run_em", lambda r: {"iterations": len(r[2])}),
    TracePoint(em, "initialize_poses", "model.initialize_poses"),
    TracePoint(em, "learn_theta_cauchy", "em.learn_theta"),
    TracePoint(em, "e_step", "em.e_step"),
    TracePoint(em, "loop_errors", "em.loop_errors"),
    TracePoint(em, "classify_loops", "em.classify_loops"),
    TracePoint(solver, "build_problem", "solver.build_problem", lambda b: {"blocks": len(b)}),
    TracePoint(solver, "solve", "solver.solve", _solver_counts),
    TracePoint(solver, "splu", "solver.factor", lambda lu: {"nnz": lu.nnz}),
    TracePoint(se3, "retract", "se3.retract"),
    TracePoint(graphio, "write_report", "graphio.write_report"),
)


class CheckFailed(Exception):
    """A solve returned output that breaks the contract `check_output` enforces."""


@dataclass
class Solution:
    graph: ProblemGraph
    poses: list
    state: model.PosteriorState
    trace: em.EmTrace
    labels: np.ndarray
    report: str


@dataclass
class Outcome:
    scene: int
    traced: bool
    setup_s: float = math.nan  # at reference speed, see speed.py
    solve_s: float = math.nan
    setup_wall_s: float = math.nan
    solve_wall_s: float = math.nan
    error: str | None = None  # exception type name of a failed attempt
    iterations: int = 0
    scores: dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    workload: Workload
    input_mb: list[float]  # per scene
    setups: list[SpeedProbe]  # set-up phase samples, before the measured solves
    outcomes: list[Outcome]
    tracer: Tracer | None

    @property
    def failures(self) -> Counter:
        return Counter(o.error for o in self.outcomes if o.error is not None)


def scene_text(config: ScenarioConfig, seed: int) -> str:
    """PCG text of one scene, with the M rows inside every record shuffled by `seed`."""
    graph = synth.generate(config)
    rng = np.random.default_rng([seed, config.seed])

    def shuffled(c):
        order = rng.permutation(c.size)
        return replace(c, p=c.p[order], q=c.q[order])

    graph = replace(
        graph,
        odometry=[shuffled(c) for c in graph.odometry],
        loops=[shuffled(c) for c in graph.loops],
    )
    return graphio.write_graph(graph)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def timed_solve(text: str, params: Hyperparams, tracer: Tracer | None = None):
    """Set-up (parse, validate) and solve, as `robustpgo solve` runs them
    without argparse and file I/O. Returns the solution and the probes that
    timed the set-up and the solve."""
    with SpeedProbe() as setup, _span(tracer, "bench.setup"):
        graph = graphio.parse(text)
        violations = model.validate(graph)
    if violations:
        raise CheckFailed(f"invalid graph: {violations[0]}")
    with SpeedProbe() as solve, _span(tracer, "bench.solve"):
        poses, state, trace = em.run_em(graph, params)
        labels = em.classify_loops(state, params.inlier_threshold)
        errors = em.loop_errors(graph, poses, params)
        report = graphio.write_report(
            graphio.RunReport(
                params.mode, [c.pair for c in graph.loops], errors, state.posteriors, labels, trace
            )
        )
    return Solution(graph, poses, state, trace, labels, report), setup, solve


def check_output(sol: Solution) -> None:
    graph, poses = sol.graph, sol.poses
    n, loops = graph.num_fragments, len(graph.loops)
    if len(poses) != n:
        raise CheckFailed(f"{len(poses)} poses for {n} fragments")
    if not all(np.isfinite(p.quat).all() and np.isfinite(p.trans).all() for p in poses):
        raise CheckFailed("non-finite pose")
    gauge = graph.initial_poses[0] if graph.initial_poses is not None else se3.identity()
    if not (np.array_equal(poses[0].quat, gauge.quat) and np.array_equal(poses[0].trans, gauge.trans)):
        raise CheckFailed("gauge pose differs from its initial value")
    post = np.asarray(sol.state.posteriors)
    if len(post) != loops or not ((post >= 0.0) & (post <= 1.0)).all():
        raise CheckFailed("posteriors are not one value in [0, 1] per loop")
    if len(sol.labels) != loops:
        raise CheckFailed(f"{len(sol.labels)} labels for {loops} loops")
    for k, it in enumerate(sol.trace.iterations, start=1):
        path = it.objective_path
        if any(b > a for a, b in zip(path, path[1:])):
            raise CheckFailed(f"objective rose during the M-step of EM iteration {k}")
    expected = {c.pair: bool(lab) for c, lab in zip(graph.loops, sol.labels)}
    if graphio.parse_report_labels(sol.report) != expected:
        raise CheckFailed("report labels differ from the returned labels")


def score(sol: Solution) -> dict[str, float]:
    """Accuracy against ground truth: synth.evaluate plus an ATE after a rigid
    alignment over all poses."""
    result = synth.evaluate(sol.poses, sol.graph, sol.labels)
    est = np.stack([p.trans for p in sol.poses])
    gt = np.stack([p.trans for p in sol.graph.ground_truth])
    aligned = se3.transform_points(model.fit_rigid_transform(est, gt), est)
    return {
        "precision": result.precision,
        "recall": result.recall,
        "ate_mean_m": result.mean_translation_error,
        "ate_full_m": float(np.linalg.norm(aligned - gt, axis=1).mean()),
    }


def attempt(scene: int, text: str, params: Hyperparams, tracer: Tracer | None = None) -> Outcome:
    """One checked solve; a failure is recorded by exception type, never raised."""
    outcome = Outcome(scene, tracer is not None)
    try:
        with tracer.installed(TRACE_POINTS) if tracer is not None else nullcontext():
            sol, setup, solve = timed_solve(text, params, tracer)
            outcome.setup_s, outcome.setup_wall_s = setup.seconds, setup.wall_s
            outcome.solve_s, outcome.solve_wall_s = solve.seconds, solve.wall_s
            check_output(sol)
            outcome.iterations = len(sol.trace)
            outcome.scores = score(sol)
    except Exception as err:  # the run goes on; the failure is counted and shown
        outcome.error = type(err).__name__
        traceback.print_exc(file=sys.stderr)
    return outcome


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Warm up once, generate the inputs, time the set-ups, then solve whole
    passes over the scenes until `seconds` have gone by and at least
    MIN_SOLVES solves are done.

    A traced run solves every scene twice per pass, once traced and once not,
    alternating which goes first, so its overhead is measured in the same run.
    """
    first = workload.scenes[0]
    warmup = replace(first, num_fragments=min(first.num_fragments, WARMUP_FRAGMENTS))
    attempt(-1, scene_text(warmup, seed), workload.params)  # discarded

    tracer = Tracer() if trace else None
    with tracer.installed(TRACE_POINTS) if tracer is not None else nullcontext():
        texts = [scene_text(config, seed) for config in workload.scenes]
    setups = []
    while len(setups) < MIN_SETUPS:
        for text in texts:
            with SpeedProbe() as probe:
                model.validate(graphio.parse(text))
            setups.append(probe)

    rng = np.random.default_rng(seed)
    outcomes: list[Outcome] = []
    start = perf_counter()
    while True:
        for k in rng.permutation(len(texts)):
            if not trace:
                outcomes.append(attempt(int(k), texts[k], workload.params))
                continue
            pair = (None, tracer) if len(outcomes) // 2 % 2 == 0 else (tracer, None)
            for t in pair:
                outcomes.append(attempt(int(k), texts[k], workload.params, t))
        if perf_counter() - start >= seconds and len(outcomes) >= MIN_SOLVES:
            break
    input_mb = [len(text.encode()) / 1e6 for text in texts]
    return Result(workload, input_mb, setups, outcomes, tracer)


def _ok(result: Result, traced: bool) -> list[Outcome]:
    ok = [o for o in result.outcomes if o.error is None and o.traced == traced]
    if not ok:
        raise CheckFailed(f"no {'traced' if traced else 'untraced'} solve succeeded")
    return ok


def end_to_end(result: Result) -> dict[str, tuple[float, str]]:
    """The metrics a user sees, from the untraced solves of the run."""
    ok = _ok(result, traced=False)
    out = {
        "solve_s": (statistics.median(o.solve_s for o in ok), "s"),
        "setup_s": (statistics.median([p.seconds for p in result.setups] + [o.setup_s for o in ok]), "s"),
    }
    for name, unit in (("precision", "ratio"), ("recall", "ratio"), ("ate_mean_m", "m"), ("ate_full_m", "m")):
        out[name] = (statistics.fmean(o.scores[name] for o in ok), unit)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def wall_medians(result: Result) -> dict[str, float]:
    """Unscaled wall-time medians of the untraced solves, for the record."""
    ok = _ok(result, traced=False)
    return {
        "solve_wall_s": statistics.median(o.solve_wall_s for o in ok),
        "setup_wall_s": statistics.median([p.wall_s for p in result.setups] + [o.setup_wall_s for o in ok]),
    }


def failed_frac(result: Result) -> float:
    return sum(result.failures.values()) / len(result.outcomes)


def span_table(tracer: Tracer) -> dict[str, Counter]:
    """Per span name: calls, total seconds, self seconds and summed counters."""
    table: dict[str, Counter] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        row = table.setdefault(span.name, Counter())
        row.update(span.info, calls=1, total_s=span.duration, self_s=own)
    return table


def per_layer(result: Result) -> dict[str, tuple[float, str]]:
    """Layer metrics per traced solve (set-up, generation and scoring metrics
    per call), plus the tracing overhead measured in the same run."""
    table = span_table(result.tracer)

    def row(name: str) -> Counter:
        return table.get(name, Counter())

    def per_call(name: str) -> float:
        return row(name)["total_s"] / max(row(name)["calls"], 1)

    n = row("bench.solve")["calls"]
    solve, factor = row("solver.solve"), row("solver.factor")
    untraced = statistics.median(o.solve_s for o in _ok(result, traced=False))
    traced = statistics.median(o.solve_s for o in _ok(result, traced=True))
    s, count = "s", "count"
    return {
        "solver.self_s": (solve["self_s"] / n, s),
        "solver.factor_s": (factor["total_s"] / n, s),
        "solver.factor_calls": (factor["calls"] / n, count),
        "solver.factor_nnz": (factor["nnz"] / max(factor["calls"], 1), count),
        "se3.retract_s": (row("se3.retract")["total_s"] / n, s),
        "se3.retract_calls": (row("se3.retract")["calls"] / n, count),
        "solver.build_problem_s": (row("solver.build_problem")["total_s"] / n, s),
        "solver.residual_blocks": (row("solver.build_problem")["blocks"] / n, count),
        "solver.solve_s": (solve["total_s"] / n, s),
        "solver.solve_calls": (solve["calls"] / n, count),
        "solver.lm_accepted": (solve["accepted"] / n, count),
        "solver.lm_rejected": ((factor["calls"] - solve["accepted"]) / n, count),
        "solver.msteps_capped": (solve["capped"] / n, count),
        "em.run_em_s": (row("em.run_em")["total_s"] / n, s),
        "em.self_s": (row("em.run_em")["self_s"] / n, s),
        "em.iterations": (row("em.run_em")["iterations"] / n, count),
        "em.e_step_s": (row("em.e_step")["total_s"] / n, s),
        "em.e_step_calls": (row("em.e_step")["calls"] / n, count),
        "em.learn_theta_s": (row("em.learn_theta")["total_s"] / n, s),
        "em.learn_theta_calls": (row("em.learn_theta")["calls"] / n, count),
        "em.loop_errors_s": (row("em.loop_errors")["total_s"] / n, s),
        "model.initialize_poses_s": (row("model.initialize_poses")["total_s"] / n, s),
        "graphio.parse_s": (row("graphio.parse")["total_s"] / n, s),
        "model.validate_s": (row("model.validate")["total_s"] / n, s),
        "graphio.input_mb": (statistics.fmean(result.input_mb), "MB"),
        "graphio.write_report_s": (row("graphio.write_report")["total_s"] / n, s),
        "synth.generate_s": (per_call("synth.generate"), s),
        "synth.evaluate_s": (per_call("synth.evaluate"), s),
        "trace.overhead_s": (traced - untraced, s),
    }
