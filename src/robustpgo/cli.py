"""Command-line surface: solve, simulate, eval, check-grad.

Exit codes identify the failure class:
    0 success          3 input parse error       5 solver or initialization failure
    2 usage error      4 graph/config invalid    6 I/O error
    7 --require-converged set and EM hit the iteration cap
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import em, graphio, se3, solver, synth
from .model import AlignmentError, Hyperparams, validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATE = 4
EXIT_SOLVER = 5
EXIT_IO = 6
EXIT_NOT_CONVERGED = 7


def _read(path: str) -> str:
    try:
        with open(path, "r") as f:
            return f.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err


def _write(path: str, text: str):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err


def _parse_graph(text: str, path: str):
    try:
        return graphio.parse(text)
    except graphio.ParseError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from err


def _cmd_solve(args) -> int:
    try:
        params = Hyperparams(
            sigma=args.sigma,
            p_hat=args.p_hat,
            epsilon=args.epsilon,
            mode=args.mode,
            max_em_iters=args.max_em_iters,
            em_tol=args.em_tol,
            inlier_threshold=args.threshold,
            refresh_theta=not args.freeze_theta,
            gaussian_calibration=args.gaussian_calibration,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    graph = _parse_graph(_read(args.infile), args.infile)
    violations = validate(graph)
    if violations:
        for v in violations:
            print(f"error: invalid graph: {v}", file=sys.stderr)
        return EXIT_VALIDATE
    try:
        poses, state, trace = em.run_em(graph, params)
    except (AlignmentError, em.EmError, solver.SolverError) as err:
        print(f"error: solver: {err}", file=sys.stderr)
        return EXIT_SOLVER

    labels = em.classify_loops(state, params.inlier_threshold)
    errors = em.loop_errors(graph, poses, params)
    metrics: dict[str, float] = {}
    if graph.ground_truth is not None and graph.num_fragments >= 6:
        if graph.oracle_labels is None:
            metrics["ate_mean"] = synth.anchored_ate(poses, graph.ground_truth)
        else:
            result = synth.evaluate(poses, graph, labels)
            metrics["ate_mean"] = result.mean_translation_error
            metrics["precision"] = result.precision
            metrics["recall"] = result.recall

    report = graphio.RunReport(
        mode=params.mode,
        pairs=[c.pair for c in graph.loops],
        errors=errors,
        posteriors=state.posteriors,
        labels=labels,
        trace=trace,
        metrics=metrics,
    )
    if args.out_poses:
        _write(args.out_poses, graphio.write_poses(poses))
    if args.out_report:
        _write(args.out_report, graphio.write_report(report))
    if args.out_csv:
        _write(args.out_csv, graphio.write_poses_csv(poses))

    kept = int(labels.sum())
    print(f"fragments: {graph.num_fragments}  loops: {len(graph.loops)}  inlier loops: {kept}")
    print(f"em iterations: {len(trace)}  converged: {trace.converged}")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6f}")
    capped = [k for k, rec in enumerate(trace.iterations, 1) if rec.termination == "max_iterations"]
    if capped:
        its = ", ".join(map(str, capped))
        print(f"warning: the LM iteration cap stopped the M-step of EM iteration {its}", file=sys.stderr)
    if args.require_converged and not trace.converged:
        print("error: EM did not converge before max iterations", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg: dict = {}
    if args.config:
        try:
            cfg = json.loads(_read(args.config))
        except json.JSONDecodeError as err:
            print(f"error: {args.config}: invalid JSON: {err}", file=sys.stderr)
            return EXIT_PARSE
        if not isinstance(cfg, dict):
            print(f"error: {args.config}: scenario config must be a JSON object", file=sys.stderr)
            return EXIT_VALIDATE
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        config = synth.ScenarioConfig(**cfg)
        graph = synth.generate(config)
    except (synth.ScenarioError, TypeError) as err:
        print(f"error: invalid scenario config: {err}", file=sys.stderr)
        return EXIT_VALIDATE
    _write(args.out, graphio.write_graph(graph))
    print(
        f"wrote {args.out}: {config.num_fragments} fragments, "
        f"{len(graph.odometry)} odometry constraints, {len(graph.loops)} loops"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    graph = _parse_graph(_read(args.graph), args.graph)
    try:
        poses = graphio.parse_poses(_read(args.poses))
        by_pair = graphio.parse_report_labels(_read(args.labels_from_report))
    except graphio.ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        labels = [by_pair[c.pair] for c in graph.loops]
    except KeyError as err:
        print(f"error: report has no label for loop {err}", file=sys.stderr)
        return EXIT_VALIDATE
    try:
        result = synth.evaluate(poses, graph, labels)
    except synth.ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATE
    print(f"ate_mean: {result.mean_translation_error:.6f}")
    print(f"precision: {result.precision:.6f}")
    print(f"recall: {result.recall:.6f}")
    return EXIT_OK


def _cmd_check_grad(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for kernel in (solver.KERNEL_CAUCHY, solver.KERNEL_SQUARED):
        for _ in range(args.blocks):
            poses = [
                se3.exp(np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-2, 2, 3)]))
                for _ in range(2)
            ]
            block = solver.ResidualBlock(
                0,
                1,
                rng.uniform(-3, 3, 3),
                rng.uniform(-3, 3, 3),
                float(rng.uniform(0.05, 1.0)),
                kernel,
                sigma=float(rng.uniform(0.2, 1.0)),
            )
            _, gi, gj = solver.residual_and_jacobian(block, poses)
            fi, fj = solver.finite_difference_gradient(block, poses)
            scale = max(np.abs(np.concatenate([gi, gj])).max(), 1e-8)
            err = np.abs(np.concatenate([gi - fi, gj - fj])).max() / scale
            worst = max(worst, float(err))
    print(f"checked {2 * args.blocks} blocks, max relative gradient error: {worst:.3e}")
    if worst >= 1e-5:
        print("error: analytic gradient disagrees with finite differences", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustpgo",
        description="Robust EM back-end for point-cloud fragment pose graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="prune loop closures and optimize fragment poses")
    ps.add_argument("--in", dest="infile", required=True, help="input graph file")
    ps.add_argument("--mode", choices=["cauchy", "gaussian"], default="cauchy")
    ps.add_argument("--sigma", type=float, default=0.5, help="residual scale in meters")
    ps.add_argument("--p-hat", dest="p_hat", type=float, default=0.9)
    ps.add_argument("--epsilon", type=float, default=0.05, help="gaussian-mode residual bound")
    ps.add_argument("--max-em-iters", type=int, default=50)
    ps.add_argument("--em-tol", type=float, default=1e-6)
    ps.add_argument("--threshold", type=float, default=0.5, help="inlier posterior threshold")
    ps.add_argument("--freeze-theta", action="store_true", help="learn theta once, then freeze")
    ps.add_argument(
        "--gaussian-calibration", choices=["rms", "literal"], default="rms",
        help="how epsilon maps to the gaussian-mode constant",
    )
    ps.add_argument("--out-poses", help="write final poses here")
    ps.add_argument("--out-report", help="write the run report here")
    ps.add_argument("--out-csv", help="write id,tx,ty,tz trajectory rows here")
    ps.add_argument("--require-converged", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("simulate", help="generate a synthetic scenario graph")
    pg.add_argument("--config", help="JSON file of ScenarioConfig fields")
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=_cmd_simulate)

    pe = sub.add_parser("eval", help="score poses and labels against ground truth")
    pe.add_argument("--poses", required=True)
    pe.add_argument("--graph", required=True)
    pe.add_argument("--labels-from-report", dest="labels_from_report", required=True)
    pe.set_defaults(func=_cmd_eval)

    pc = sub.add_parser("check-grad", help="finite-difference check of block gradients")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--blocks", type=int, default=1000)
    pc.set_defaults(func=_cmd_check_grad)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
