"""Cauchy-Uniform / Gaussian-Uniform mixture EM over the loop-closure labels.

Per-constraint error functionals:
  cauchy:   A = mean over matches of ln(1 + ||T_i p - T_j q||^2 / sigma^2)
  gaussian: B = mean over matches of ||T_i p - T_j q||^2

The inlier posterior of a loop is theta / (theta + exp(2A)) in cauchy mode
and theta / (theta + B^2) in gaussian mode, evaluated in log space so large
errors saturate to 0 instead of overflowing. theta is learned from the
odometry constraints, which act as known-inlier exemplars: the median error
term is mapped to posterior p_hat.

The EM driver is sequential, and each iteration replaces the posterior
state wholesale rather than mutating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import se3, solver
from .model import Hyperparams, MatchTable, PosteriorState, ProblemGraph, initialize_poses, learn_theta_gaussian
from .se3 import Pose


class EmError(Exception):
    pass


def evaluate_poses(
    table: MatchTable, quats: np.ndarray, trans: np.ndarray, kernel: str, sigma: float
) -> solver.PoseState:
    """The solver's weight-free evaluation over the table of the poses held
    as (N, 4) quaternion and (N, 3) translation arrays, with its kernel rho:
    the pose state a solve starts from. Its errors are the per-constraint
    error functional: the mean of rho(||T_i p - T_j q||^2) over each
    constraint's matches, as a solve reports it at its poses
    (SolverReport.errors). That is A under the log-Cauchy kernel and B under
    the squared kernel."""
    problem = solver.Problem(table, np.ones(len(table.sizes)), kernel, sigma)
    return solver._evaluate(problem, quats, trans)


def lower_median(values) -> float:
    """Order-statistic median: lower of the two middle values for even counts."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def theta_from_errors(errors, p_hat: float) -> float:
    """Solve theta / (theta + median(errors)) = p_hat for theta."""
    return p_hat * lower_median(errors) / (1.0 - p_hat)


def learn_theta_cauchy(odometry_errors: np.ndarray, p_hat: float) -> float:
    """Calibrate theta so the median odometry error term exp(2A) maps to p_hat.

    The median is taken over A (a monotone transform of exp(2A)), which gives
    the identical order statistic without risking overflow in the exponent.
    """
    if not len(odometry_errors):
        raise EmError("cannot learn theta without odometry constraints")
    median = lower_median(odometry_errors)
    try:
        theta = p_hat / (1.0 - p_hat) * math.exp(2.0 * median)
    except OverflowError:  # exp(2A) past the float range
        theta = math.inf
    if not 0.0 < theta < math.inf:  # a NaN median fails too
        raise EmError(f"median odometry error {median:.6g} is too large to learn theta from")
    return theta


def _sigmoid(x: float) -> float:
    """1 / (1 + e^-x) by libm's exp, the form and the exp of scipy.special.expit,
    so its bits; 0.0 where e^-x is past the float range."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def posterior_cauchy(a_values: np.ndarray, theta: float) -> np.ndarray:
    """theta / (theta + exp(2A)) computed as a sigmoid in log space, one loop
    at a time: numpy's vectorized exp can differ from libm's in the last bit."""
    x = math.log(theta) - 2.0 * np.asarray(a_values, dtype=float)
    return np.array([_sigmoid(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def posterior_gaussian(b_values: np.ndarray, theta: float) -> np.ndarray:
    """theta / (theta + B^2): the cauchy posterior at A = log B; B == 0 maps to 1."""
    with np.errstate(divide="ignore"):
        return posterior_cauchy(np.log(b_values), theta)


def loop_errors(graph: ProblemGraph, poses: list[Pose], params: Hyperparams) -> np.ndarray:
    """Per-loop error functional at the given poses (A in cauchy mode, B in
    gaussian), as evaluate_poses gives it, over the run of the graph
    table's loop rows: the odometry is not evaluated."""
    loops = graph.table.subset(np.arange(len(graph.table.sizes)) >= len(graph.odometry))
    quats, trans = se3.stack(poses)
    s = loops.frame_residuals(se3.quat_to_matrix(quats), trans).s
    # a kernel value past the float range is inf, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return loops.segment_sum(solver._rho(s, params.mode, params.sigma)) / loops.sizes


def e_step(errors: np.ndarray, theta: float, params: Hyperparams) -> PosteriorState:
    """Inlier posteriors of the loops from their errors (A in cauchy mode, B in gaussian)."""
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be a positive finite float")
    posterior = posterior_cauchy if params.mode == "cauchy" else posterior_gaussian
    return PosteriorState(theta=theta, posteriors=posterior(errors, theta))


def classify_loops(state: PosteriorState, inlier_threshold: float = 0.5) -> np.ndarray:
    """Boolean inlier labels; ties go to outlier (strict inequality)."""
    return state.posteriors > inlier_threshold


@dataclass(kw_only=True)
class EmIteration(solver.SolverReport):
    """One EM iteration: its M-step's report, with the constant theta and the
    inlier count of the posteriors that weighted it, and the pose update."""

    theta: float
    inlier_count: int  # posteriors above the classification threshold
    max_pose_update: float  # largest twist norm of any pose update this iteration; 0.0 when it took no step


@dataclass
class EmTrace:
    iterations: list[EmIteration] = field(default_factory=list)
    # the last M-step's objective moved by less than em_tol relative, the
    # last M-step took no step (so the next would replay it), or the graph
    # has no loop; a zero-step M-step counts even when it is the
    # max_em_iters-th
    converged: bool = False

    def __len__(self):
        return len(self.iterations)


def _max_update(old: tuple[np.ndarray, np.ndarray], new: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest twist norm of log(new_k o old_k^-1) over poses given as
    (quaternion, translation) arrays."""
    step = se3.compose_arrays(*new, *se3.inverse_arrays(*old))
    return float(np.linalg.norm(se3.log_arrays(*step), axis=1).max(initial=0.0))


def run_em(
    graph: ProblemGraph, params: Hyperparams
) -> tuple[list[Pose], PosteriorState, EmTrace]:
    """Alternate posterior updates and pose optimization until the M-step
    objective stalls or an M-step takes no step.

    Each pass learns theta (every pass with refresh_theta, else once), runs
    the E-step at the poses it holds, then returns, once EM has converged or
    run max_em_iters M-steps, or runs the next M-step; so the posteriors
    returned are evaluated at the poses returned. With no loop constraints
    one M-step over odometry alone is the fixed point, and so is an M-step
    that takes no step: the next would start from the same poses, errors,
    theta and posteriors. One pose state is carried through the run: the
    initial poses are evaluated once, and each M-step is handed the state
    the last one evaluated and weighs it, so every pose state is evaluated
    once (in gaussian mode, a solve that takes a step evaluates its end
    poses once more, per match, see solver.solve); theta and the E-step read
    its errors.
    """
    pose_state = evaluate_poses(graph.table, *initialize_poses(graph), params.mode, params.sigma)
    odometry = len(graph.odometry)
    trace = EmTrace()

    theta = None
    while True:
        errors = pose_state.errors
        if theta is None or params.refresh_theta:
            if params.mode == "cauchy":
                theta = learn_theta_cauchy(errors[:odometry], params.p_hat)
            else:
                theta = learn_theta_gaussian(params.epsilon, params.p_hat, params.gaussian_calibration)
        state = e_step(errors[odometry:], theta, params)
        if trace.converged or len(trace) == params.max_em_iters:
            return se3.unstack(pose_state.quats, pose_state.trans), state, trace
        problem = solver.build_problem(graph, state, params)
        # the solve holds the only reference to its start state, so the
        # state's M-sized arrays go at its first accepted step
        start = pose_state.quats, pose_state.trans
        handed, pose_state = [pose_state], None
        try:
            pose_state, report = solver.solve(problem, handed.pop())
        except solver.SolverError as err:
            raise EmError(f"EM iteration {len(trace) + 1}: {err}") from err
        # a solve that takes no step returns its start poses: no update, not
        # the rounding of composing each pose with its own inverse
        update = _max_update(start, (pose_state.quats, pose_state.trans)) if report.iterations else 0.0
        trace.iterations.append(
            EmIteration(
                **vars(report),
                theta=theta,
                inlier_count=int(np.count_nonzero(classify_loops(state, params.inlier_threshold))),
                max_pose_update=update,
            )
        )
        ends = [rec.objective_end for rec in trace.iterations[-2:]]
        rel = abs(ends[0] - ends[-1]) / max(abs(ends[0]), 1e-300) if len(ends) == 2 else math.inf
        # with no loop there is no posterior to update: one M-step is the fixed point
        trace.converged = not graph.loops or report.iterations == 0 or rel < params.em_tol
