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
from scipy.special import expit

from . import se3, solver
from .model import Hyperparams, MatchTable, PosteriorState, ProblemGraph, initialize_poses, learn_theta_gaussian
from .se3 import Pose


class EmError(Exception):
    pass


def constraint_errors(
    table: MatchTable, poses: list[Pose], kernel: str, sigma: float
) -> np.ndarray:
    """Per-constraint error functional: the mean of rho(||T_i p - T_j q||^2)
    over each constraint's matches, with the solver's kernel rho, as a solve
    reports it at its poses (SolverReport.errors). That is A under the
    log-Cauchy kernel and B under the squared kernel."""
    problem = solver.Problem(table, np.ones(len(table.sizes)), kernel, sigma)
    return solver._evaluate(problem, *se3.stack(poses))[1]


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
    if not median < 354.0:  # exp(2A) overflows from A = 354.9 on; NaN fails too
        raise EmError(f"median odometry error {median:.6g} is too large to learn theta from")
    return p_hat / (1.0 - p_hat) * math.exp(2.0 * median)


def posterior_cauchy(a_values: np.ndarray, theta: float) -> np.ndarray:
    """theta / (theta + exp(2A)) computed as a sigmoid in log space."""
    return expit(math.log(theta) - 2.0 * np.asarray(a_values, dtype=float))


def posterior_gaussian(b_values: np.ndarray, theta: float) -> np.ndarray:
    """theta / (theta + B^2), log-space; B == 0 maps to posterior 1."""
    b = np.asarray(b_values, dtype=float)
    out = np.ones_like(b)
    pos = b > 0.0
    out[pos] = expit(math.log(theta) - 2.0 * np.log(b[pos]))
    return out


def loop_errors(graph: ProblemGraph, poses: list[Pose], params: Hyperparams) -> np.ndarray:
    """Per-loop error functional at the given poses (A in cauchy mode, B in gaussian)."""
    errors = constraint_errors(graph.table, poses, solver.KERNELS[params.mode], params.sigma)
    return errors[len(graph.odometry) :]


def e_step(errors: np.ndarray, theta: float, params: Hyperparams) -> PosteriorState:
    """Inlier posteriors of the loops from their errors (A in cauchy mode, B in gaussian)."""
    if not theta > 0:
        raise ValueError("theta must be positive")
    if params.mode == "cauchy":
        post = posterior_cauchy(errors, theta)
    else:
        post = posterior_gaussian(errors, theta)
    return PosteriorState(theta=theta, posteriors=post)


def classify_loops(state: PosteriorState, inlier_threshold: float = 0.5) -> np.ndarray:
    """Boolean inlier labels; ties go to outlier (strict inequality)."""
    return state.posteriors > inlier_threshold


@dataclass(kw_only=True)
class EmIteration(solver.SolverReport):
    """One EM iteration: its M-step's report, with the constant theta and the
    inlier count of the posteriors that weighted it, and the pose update."""

    theta: float
    inlier_count: int  # posteriors above the classification threshold
    max_pose_update: float  # largest twist norm of any pose update this iteration


@dataclass
class EmTrace:
    iterations: list[EmIteration] = field(default_factory=list)
    converged: bool = False

    def __len__(self):
        return len(self.iterations)


def _max_update(old: list[Pose], new: list[Pose]) -> float:
    """Largest twist norm of log(new_k o old_k^-1) over the poses."""
    step = se3.compose_arrays(*se3.stack(new), *se3.inverse_arrays(*se3.stack(old)))
    return float(np.linalg.norm(se3.log_arrays(*step)[0], axis=1).max(initial=0.0))


def _learn_theta(odometry_errors: np.ndarray, params: Hyperparams) -> float:
    if params.mode == "cauchy":
        return learn_theta_cauchy(odometry_errors, params.p_hat)
    return learn_theta_gaussian(params.epsilon, params.p_hat, params.gaussian_calibration)


def run_em(
    graph: ProblemGraph, params: Hyperparams
) -> tuple[list[Pose], PosteriorState, EmTrace]:
    """Alternate posterior updates and pose optimization until the M-step
    objective stalls.

    Returns the final poses, the posterior state evaluated at those poses,
    and the per-iteration trace. With no loop constraints this is a single
    pose optimization over odometry alone. The errors are evaluated once, at
    the initial poses; after that each M-step reports them at its own.
    """
    poses = initialize_poses(graph)
    errors = constraint_errors(graph.table, poses, solver.KERNELS[params.mode], params.sigma)
    odometry = len(graph.odometry)
    trace = EmTrace()

    theta = None
    prev_objective = None
    for iteration in range(1, params.max_em_iters + 1):
        if theta is None or (params.refresh_theta and params.mode == "cauchy"):
            theta = _learn_theta(errors[:odometry], params)
        state = e_step(errors[odometry:], theta, params)
        problem = solver.build_problem(graph, state, params)
        try:
            poses_new, report = solver.solve(problem, poses, gauge=0)
        except solver.SolverError as err:
            raise EmError(f"EM iteration {iteration}: {err}") from err
        trace.iterations.append(
            EmIteration(
                **vars(report),
                theta=theta,
                inlier_count=int(np.sum(state.posteriors > params.inlier_threshold)),
                max_pose_update=_max_update(poses, poses_new),
            )
        )
        poses, errors = poses_new, report.errors
        if not graph.loops:  # no posterior to update: one M-step is the fixed point
            trace.converged = True
            break
        if prev_objective is not None:
            rel = abs(prev_objective - report.objective_end) / max(abs(prev_objective), 1e-300)
            if rel < params.em_tol:
                trace.converged = True
                break
        prev_objective = report.objective_end

    # refresh the posterior at the final poses so labels match what we return
    if params.refresh_theta and params.mode == "cauchy":
        theta = _learn_theta(errors[:odometry], params)
    state = e_step(errors[odometry:], theta, params)
    return poses, state, trace
