"""Reference implementations the tests compare the package against.

ResidualBlock and its helpers are the per-match oracle for the flat
objective, gradient and H that LM runs: they evaluate one match at a time in
the world frame, one pose at a time (transform_point). pose_difference
measures how far apart two poses are, and solve_poses runs the M-step on a
list of poses, evaluated afresh for the problem. block6_cross is H's
6x6 block with its skew parts built by np.cross. robust_fit_full_refit
is the initialization's trimmed fit as it was before it refitted only the
constraints whose match set changed: every round refits every constraint.
run_em_replaying is the EM driver as it was before M-steps handed their pose
state on: every M-step starts from a list of poses and evaluates it again,
and a run goes on after an M-step that takes no step, replaying it.
EntryPattern is the LM system's pattern as it was before it was built by
pose blocks: one np.unique over the keys of every block entry, and a
subgraph that zeroes the left-out blocks and drops every zero it stores.
None of them is on the solve path.
"""

import math
from dataclasses import dataclass

import numpy as np

from robustpgo import se3, solver
from robustpgo.em import EmError, EmIteration, EmTrace, e_step, evaluate_poses, learn_theta_cauchy
from robustpgo.model import MatchTable, _fit_rigid, _segment_medians, initialize_poses, learn_theta_gaussian
from robustpgo.se3 import Pose
from robustpgo.solver import _BLOCK_ENTRIES, _drho, _pose_order, _rho
from scipy.sparse import csc_matrix


@dataclass
class ResidualBlock:
    """One feature match: indices of the two poses it couples, the point pair,
    its weight (inlier posterior / match count for loops, 1 / match count for
    odometry), and the kernel applied to the squared residual."""

    i: int
    j: int
    p: np.ndarray
    q: np.ndarray
    weight: float
    kernel: str
    sigma: float = 1.0


def transform_point(pose: Pose, p: np.ndarray) -> np.ndarray:
    """The pose applied to one point, through its rotation matrix."""
    return pose.rotation_matrix() @ np.asarray(p, dtype=float) + pose.trans


def pose_difference(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation angle in [0, pi], translation norm) of a o b^-1."""
    d = se3.compose(a, se3.inverse(b))
    vec = d.quat[1:]
    return 2.0 * math.atan2(math.sqrt(float(vec @ vec)), d.quat[0]), float(np.linalg.norm(d.trans))


def solve_poses(problem: solver.Problem, poses: list[Pose]) -> tuple[list[Pose], solver.SolverReport]:
    """solver.solve from a list of poses, evaluated afresh for the problem's
    table, kernel and sigma: the poses it ends at, as a list, and its report."""
    start = evaluate_poses(problem.table, *se3.stack(poses), problem.kernel, problem.sigma)
    state, report = solver.solve(problem, start)
    return se3.unstack(state.quats, state.trans), report


def block_cost(block: ResidualBlock, pose_i: Pose, pose_j: Pose) -> float:
    e = transform_point(pose_i, block.p) - transform_point(pose_j, block.q)
    s = float(e @ e)
    return block.weight * float(_rho(np.array([s]), block.kernel, block.sigma)[0])


def residual_and_jacobian(
    block: ResidualBlock, poses: list[Pose]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Block cost and its analytic gradient w.r.t. the two poses' twists.

    For the log-Cauchy kernel the chain rule factor on the squared-residual
    gradient is 1 / (sigma^2 + s).
    """
    pose_i, pose_j = poses[block.i], poses[block.j]
    yi = transform_point(pose_i, block.p)
    yj = transform_point(pose_j, block.q)
    e = yi - yj
    s = float(e @ e)
    alpha = 2.0 * block.weight * float(_drho(np.array([s]), block.kernel, block.sigma)[0])
    g_i = alpha * np.concatenate([np.cross(yi, e), e])
    g_j = alpha * np.concatenate([-np.cross(yj, e), -e])
    cost = block.weight * float(_rho(np.array([s]), block.kernel, block.sigma)[0])
    return cost, g_i, g_j


def finite_difference_gradient(
    block: ResidualBlock, poses: list[Pose], h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of the block cost under twist retractions.

    Touches only the cost evaluation, never the analytic derivative path, so
    it serves as an independent check of residual_and_jacobian.
    """
    pose_i, pose_j = poses[block.i], poses[block.j]
    g_i = np.zeros(6)
    g_j = np.zeros(6)
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        g_i[k] = (
            block_cost(block, se3.retract(pose_i, d), pose_j)
            - block_cost(block, se3.retract(pose_i, -d), pose_j)
        ) / (2.0 * h)
        g_j[k] = (
            block_cost(block, pose_i, se3.retract(pose_j, d))
            - block_cost(block, pose_i, se3.retract(pose_j, -d))
        ) / (2.0 * h)
    return g_i, g_j


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """[v]x, with [v]x u = v x u."""
    return np.cross(v, np.eye(3)).T


def hessian_blocks(block: ResidualBlock, poses: list[Pose], curvature: bool = False):
    """The match's 6x6 H blocks (ii, jj, ij) from its world-frame Jacobians
    J_i = [-[y_i]x, I] and J_j = [[y_j]x, -I]: alpha J_a^T J_b, with
    alpha = 2 w rho'(s). With curvature, H_ii and H_jj also hold the matrix
    of alpha e . d2e under the left retraction, whose second-order part of
    y is 1/2 w x (w x y) + 1/2 w x v; e . d2e carries the sign of y in e."""
    pose_i, pose_j = poses[block.i], poses[block.j]
    yi = transform_point(pose_i, block.p)
    yj = transform_point(pose_j, block.q)
    e = yi - yj
    alpha = 2.0 * block.weight * float(_drho(np.array([e @ e]), block.kernel, block.sigma)[0])
    ji = np.hstack([-_cross_matrix(yi), np.eye(3)])
    jj = np.hstack([_cross_matrix(yj), -np.eye(3)])
    h_ii, h_jj, h_ij = alpha * ji.T @ ji, alpha * jj.T @ jj, alpha * ji.T @ jj
    if curvature:
        for h, y, ae in ((h_ii, yi, alpha * e), (h_jj, yj, -alpha * e)):
            h[:3, :3] += 0.5 * (np.outer(ae, y) + np.outer(y, ae)) - (ae @ y) * np.eye(3)
            h[:3, 3:] -= 0.5 * _cross_matrix(ae)
            h[3:, :3] += 0.5 * _cross_matrix(ae)
    return h_ii, h_jj, h_ij


def block6_cross(gram, upper, lower, corner) -> np.ndarray:
    """solver._block6 with its skew blocks built by np.cross: row k of [v]x
    is e_k x v."""
    out = np.zeros((len(gram), 6, 6))
    out[:, :3, :3] = gram
    out[:, :3, 3:] = np.cross(np.eye(3), upper[:, None, :])
    out[:, 3:, :3] = np.cross(np.eye(3), lower[:, None, :])
    out[:, 3:, 3:] = corner[:, None, None] * np.eye(3)
    return out


def robust_fit_full_refit(table: MatchTable, rounds: int, trim_factor: float):
    """Rigid fit of every constraint with iterative trimming of matches above
    trim_factor * their constraint's median residual. Returns the rotations,
    the translations and, by constraint, the first reason its fit failed."""
    active = np.ones(len(table), dtype=bool)
    failures: dict[int, str] = {}
    # a constraint whose coordinates overflow is reported as failed, so numpy
    # is not asked to warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds + 2):
            rots, trans, round_failures = _fit_rigid(table, active)
            for c, reason in round_failures.items():
                failures.setdefault(c, reason)
            if r == rounds + 1 or len(failures) == len(table.sizes):
                break
            seg = table.seg
            moved = np.einsum("mab,mb->ma", rots[seg], table.q) + trans[seg]
            resid = np.linalg.norm(moved - table.p, axis=1)
            med = _segment_medians(table, resid, active)
            # absolute floor keeps exact matches from trimming each other at med == 0
            active = resid <= np.maximum(trim_factor * med, 1e-9)[seg]
    return rots, trans, failures


def _max_update(old: list[Pose], new: list[Pose]) -> float:
    """Largest twist norm of log(new_k o old_k^-1) over the poses."""
    step = se3.compose_arrays(*se3.stack(new), *se3.inverse_arrays(*se3.stack(old)))
    return float(np.linalg.norm(se3.log_arrays(*step)[0], axis=1).max(initial=0.0))


def run_em_replaying(graph, params):
    """run_em with a list of poses between M-steps, each evaluated again by
    the next solve, and with convergence only by the relative change of the
    M-step objective (or no loops)."""
    poses = se3.unstack(*initialize_poses(graph))
    errors = evaluate_poses(graph.table, *se3.stack(poses), params.mode, params.sigma).errors
    odometry = len(graph.odometry)
    trace = EmTrace()

    theta = None
    while True:
        if theta is None or params.refresh_theta:
            if params.mode == "cauchy":
                theta = learn_theta_cauchy(errors[:odometry], params.p_hat)
            else:
                theta = learn_theta_gaussian(params.epsilon, params.p_hat, params.gaussian_calibration)
        state = e_step(errors[odometry:], theta, params)
        if trace.converged or len(trace) == params.max_em_iters:
            return poses, state, trace
        problem = solver.build_problem(graph, state, params)
        try:
            poses_new, report = solve_poses(problem, poses)
        except solver.SolverError as err:
            raise EmError(f"EM iteration {len(trace) + 1}: {err}") from err
        trace.iterations.append(
            EmIteration(
                **vars(report),
                theta=theta,
                inlier_count=int(np.sum(state.posteriors > params.inlier_threshold)),
                max_pose_update=_max_update(poses, poses_new),
            )
        )
        poses, errors = poses_new, report.errors
        ends = [rec.objective_end for rec in trace.iterations[-2:]]
        rel = abs(ends[0] - ends[-1]) / max(abs(ends[0]), 1e-300) if len(ends) == 2 else math.inf
        # with no loop there is no posterior to update: one M-step is the fixed point
        trace.converged = not graph.loops or rel < params.em_tol


class EntryPattern:
    """solver._Pattern built entry by entry: every entry of every block of
    _assemble is keyed by its column and row in the pose order, and one
    np.unique over those keys and the diagonal's gives the CSC structure of
    the full system. The subgraph fills the same structure with the blocks
    of the pairs left out set to zero, then drops every stored zero."""

    def __init__(self, pairs: np.ndarray, num_poses: int, kept: np.ndarray):
        i, j = pairs[:, 0], pairs[:, 1]
        self.kept = kept
        self.pos = _pose_order(pairs[kept], num_poses)
        n = len(self.pos)
        place = np.full(6 * num_poses, -1)
        place[6:] = self.pos
        rows = place[(6 * np.concatenate([i, j, i, j])[:, None] + _BLOCK_ENTRIES // 6).ravel()]
        cols = place[(6 * np.concatenate([i, j, j, i])[:, None] + _BLOCK_ENTRIES % 6).ravel()]
        placed = (rows >= 0) & (cols >= 0)
        keys, slots = np.unique(
            np.concatenate([cols[placed] * n + rows[placed], np.arange(n) * (n + 1)]), return_inverse=True
        )
        # entries in the gauge's rows or columns all go to one spare slot
        self.slot = np.full(len(rows), len(keys))
        self.slot[placed] = slots[: placed.sum()]
        self.diagonal = slots[placed.sum() :]
        self.indices = keys % n
        self.indptr = np.searchsorted(keys // n, np.arange(n + 1))
        self.shape = (n, n)

    def matrix(self, blocks: np.ndarray, damping: float, subgraph: bool = False) -> csc_matrix:
        values = blocks.reshape(len(blocks), 36)[:, _BLOCK_ENTRIES]
        if subgraph:
            values = np.where(np.tile(self.kept, 4)[:, None], values, 0.0)
        data = np.bincount(self.slot, weights=values.ravel(), minlength=len(self.indices) + 1)[:-1]
        data[self.diagonal] += damping
        system = csc_matrix((data, self.indices, self.indptr), shape=self.shape, copy=True)
        if subgraph:
            system.eliminate_zeros()
        return system
