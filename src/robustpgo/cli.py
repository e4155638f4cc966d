"""Command-line surface: solve, simulate, eval, check-grad.

Exit codes identify the failure class:
    0 success          3 input parse error       5 solver or initialization failure
    2 usage error      4 graph/config invalid    6 I/O error
    7 --require-converged set, and EM hit its iteration cap without converging or the LM
      cap stopped an M-step; an M-step that takes no step counts as converged, also when it
      is the --max-em-iters-th
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import em, graphio, se3, solver, synth
from .model import AlignmentError, Hyperparams, MatchTable, validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATE = 4
EXIT_SOLVER = 5
EXIT_IO = 6
EXIT_NOT_CONVERGED = 7


def _read(path: str) -> str:
    try:  # universal newlines: '\r' and '\r\n' line ends reach the parser as '\n'
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err
    except UnicodeDecodeError as err:  # names the byte and its offset
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from err


def _write(path: str, text: str):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from err


def _parse(path: str, reader):
    """The file at `path`, read by `reader`; a ParseError exits 3, naming the file."""
    try:
        return reader(_read(path))
    except graphio.ParseError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from err


def _hyperparams(args) -> Hyperparams:
    """The settings of `robustpgo solve`'s options; ValueError names a bad value."""
    return Hyperparams(
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


def _cmd_solve(args) -> int:
    try:
        params = _hyperparams(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    graph = _parse(args.infile, graphio.parse)
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
    errors = trace.iterations[-1].errors[len(graph.odometry) :]  # the last M-step's, at the returned poses
    metrics: dict[str, float] = {}
    if graph.ground_truth is not None and graph.num_fragments >= 6:
        if graph.oracle_labels is None:
            metrics["ate_mean"] = synth.anchored_ate(poses, graph.ground_truth)
            metrics["ate_full"] = synth.full_alignment_ate(poses, graph.ground_truth)
        else:
            result = synth.evaluate(poses, graph, labels)
            metrics["ate_mean"] = result.mean_translation_error
            metrics["ate_full"] = result.full_alignment_ate
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
    capped = [str(k) for k, it in enumerate(trace.iterations, 1) if it.termination == "max_iterations"]
    if capped:
        level, its = "error" if args.require_converged else "warning", ", ".join(capped)
        print(f"{level}: the LM iteration cap stopped the M-step of EM iteration {its}", file=sys.stderr)
    if args.require_converged and not trace.converged:
        print("error: EM did not converge before max iterations", file=sys.stderr)
    return EXIT_NOT_CONVERGED if args.require_converged and (capped or not trace.converged) else EXIT_OK


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
    except (synth.ScenarioError, TypeError, OverflowError) as err:  # OverflowError: an int no float holds
        print(f"error: invalid scenario config: {err}", file=sys.stderr)
        return EXIT_VALIDATE
    _write(args.out, graphio.write_graph(graph))
    print(
        f"wrote {args.out}: {config.num_fragments} fragments, "
        f"{len(graph.odometry)} odometry constraints, {len(graph.loops)} loops"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    graph = _parse(args.graph, graphio.parse)
    poses = _parse(args.poses, graphio.parse_poses)
    by_pair = _parse(args.labels_from_report, graphio.parse_report_labels)
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
    print(f"ate_full: {result.full_alignment_ate:.6f}")
    print(f"precision: {result.precision:.6f}")
    print(f"recall: {result.recall:.6f}")
    return EXIT_OK


# each check-grad problem: four constraints of 1, 3, 4 and 2 matches over a pose triple, two on one pair
_CHECK_PAIRS = np.array([[0, 1], [0, 1], [1, 2], [0, 2]])
_CHECK_SIZES = np.array([1, 3, 4, 2])
_CHECK_TOL = 1e-5  # relative error at or above which check-grad fails
_CHECK_MAX_BLOCKS = 10_000  # memory grows with the count: 10,000 peaks near 0.25 GB, 100,000 near 1.7 GB


def _derivative_errors(rng, kernel: str, count: int) -> tuple[float, float]:
    """The worst relative gradient and H errors of solver._assemble over count
    random problems, stacked over disjoint pose triples into one match table.

    Each problem's objective is read from the per-constraint errors of
    solver._evaluate at poses moved by solver._retract_all (no gauge), with
    the anchor of the state being checked, as LM evaluates a trial from the
    state it holds. Its central differences along the 18 twist axes check
    the gradient. A second difference along one random unit direction u
    checks u^T H u where H is the exact Hessian: at a copy of the problem
    whose residuals are all zero, and, for the squared kernel, with the
    curvature term at the random residuals. The squared kernel is checked at
    the state that is its own anchor and at one a random twist away from it,
    whose trials take their objective from the first state's anchor. The
    gradient error is relative to the problem's largest gradient entry, the
    H error to its largest H entry.
    """
    pairs = (_CHECK_PAIRS + 3 * np.arange(count)[:, None, None]).reshape(-1, 2)
    sizes = np.tile(_CHECK_SIZES, count)
    twists = np.hstack([rng.uniform(-0.5, 0.5, (3 * count, 3)), rng.uniform(-2, 2, (3 * count, 3))])
    quats, trans = se3.exp_arrays(twists)
    table = MatchTable(pairs, sizes, *rng.uniform(-3, 3, (2, sizes.sum(), 3)))
    weights = rng.uniform(0.05, 1.0, len(sizes))
    problem = solver.Problem(table, weights, kernel, float(rng.uniform(0.2, 1.0)))

    # exact correspondences: every residual is zero at these poses
    rots = se3.quat_to_matrix(quats)
    world = rng.uniform(-3, 3, (len(table), 3))
    i, j = pairs[table.seg].T
    p = np.einsum("mba,mb->ma", rots[i], world - trans[i])
    q = np.einsum("mba,mb->ma", rots[j], world - trans[j])
    exact = solver.Problem(MatchTable(pairs, sizes, p, q), weights, kernel, problem.sigma)
    u = rng.normal(size=(count, 18))
    u /= np.linalg.norm(u, axis=1, keepdims=True)

    def objectives(prob, state, delta):
        """Each problem's objective at the state's poses retracted by the
        twists delta, (18,) or (count, 18), with the state's anchor."""
        delta = np.broadcast_to(delta, (count, 18)).ravel()
        moved = solver._retract_all(state.quats, state.trans, delta, -1)
        errors = solver._evaluate(prob, *moved, state.anchor).errors
        return (prob.weights * sizes * errors).reshape(count, 4).sum(axis=1)

    def gradient_error(prob, state):
        grad = solver._assemble(prob, state)[0].reshape(count, 18)
        h = 1e-6
        differences = [objectives(prob, state, d) - objectives(prob, state, -d) for d in h * np.eye(18)]
        numeric = np.stack(differences, axis=1)
        error = np.abs(numeric / (2.0 * h) - grad).max(axis=1) / np.maximum(np.abs(grad).max(axis=1), 1e-8)
        return float(error.max())

    def hessian_error(prob, state, curvature):
        entries = solver._assemble(prob, state, curvature)[1]
        # the poses of _assemble's blocks: H_ii, H_jj, H_ij, H_ji of each constraint (i, j) in turn
        rows, cols = np.concatenate([pairs[:, [0, 0]], pairs[:, [1, 1]], pairs, pairs[:, ::-1]]).T
        at_row, at_col = 6 * (rows % 3)[:, None] + solver._ENTRY_ROWS, 6 * (cols % 3)[:, None] + solver._ENTRY_COLS
        dense = np.zeros((count, 18, 18))
        np.add.at(dense, ((rows // 3)[:, None], at_row, at_col), entries)
        h = 1e-4
        at = objectives(prob, state, np.zeros(18))
        second = (objectives(prob, state, h * u) - 2.0 * at + objectives(prob, state, -h * u)) / (h * h)
        error = np.abs(second - np.einsum("bk,bkl,bl->b", u, dense, u)) / np.abs(dense).max(axis=(1, 2))
        return float(error.max())

    state = solver._evaluate(problem, quats, trans)
    grad_error = gradient_error(problem, state)
    h_error = hessian_error(exact, solver._evaluate(exact, quats, trans), False)
    if kernel == solver.KERNEL_SQUARED:
        away = solver._evaluate(
            problem, *solver._retract_all(quats, trans, rng.uniform(-1, 1, 18 * count), -1), state.anchor
        )
        grad_error = max(grad_error, gradient_error(problem, away))
        h_error = max(h_error, hessian_error(problem, state, True), hessian_error(problem, away, True))
    return grad_error, h_error


def _cmd_check_grad(args) -> int:
    if not 1 <= args.blocks <= _CHECK_MAX_BLOCKS:
        print(f"error: --blocks must lie in [1, {_CHECK_MAX_BLOCKS}], got {args.blocks}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    grad_error = h_error = 0.0
    for kernel in (solver.KERNEL_CAUCHY, solver.KERNEL_SQUARED):
        g, h = _derivative_errors(rng, kernel, args.blocks)
        grad_error, h_error = max(grad_error, g), max(h_error, h)
    print(
        f"checked {2 * args.blocks} problems, max relative gradient error: {grad_error:.3e}, "
        f"max relative H error: {h_error:.3e}"
    )
    if not max(grad_error, h_error) < _CHECK_TOL:
        print("error: LM's gradient or H disagrees with finite differences", file=sys.stderr)
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
    default = Hyperparams()
    ps.add_argument("--mode", choices=["cauchy", "gaussian"], default=default.mode)
    ps.add_argument("--sigma", type=float, default=default.sigma, help="residual scale in meters")
    ps.add_argument("--p-hat", dest="p_hat", type=float, default=default.p_hat)
    ps.add_argument("--epsilon", type=float, default=default.epsilon, help="gaussian-mode residual bound")
    ps.add_argument("--max-em-iters", type=int, default=default.max_em_iters)
    ps.add_argument("--em-tol", type=float, default=default.em_tol)
    ps.add_argument(
        "--threshold", type=float, default=default.inlier_threshold, help="inlier posterior threshold"
    )
    ps.add_argument("--freeze-theta", action="store_true", help="learn theta once, then freeze")
    ps.add_argument(
        "--gaussian-calibration", choices=["rms", "literal"], default=default.gaussian_calibration,
        help="how epsilon maps to the gaussian-mode constant",
    )
    ps.add_argument("--out-poses", help="write final poses here")
    ps.add_argument("--out-report", help="write the run report here")
    ps.add_argument("--out-csv", help="write id,tx,ty,tz trajectory rows here")
    ps.add_argument(
        "--require-converged", action="store_true",
        help="exit 7 unless EM converged (its objective stalled, or an M-step, also the last one "
        "allowed, took no step) and the LM iteration cap stopped no M-step",
    )
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

    pc = sub.add_parser("check-grad", help="finite-difference check of LM's gradient and H")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--blocks", type=int, default=1000)
    pc.set_defaults(func=_cmd_check_grad)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
