"""Reference implementations the tests compare the package against.

ResidualBlock and its helpers are the per-match oracle for the flat
objective, gradient and H that LM runs: they evaluate one match at a time in
the world frame, one pose at a time (transform_point). pose_difference
measures how far apart two poses are, and solve_poses runs the M-step on a
list of poses, evaluated afresh for the problem. block6_cross is H's
6x6 block with its skew parts built by np.cross, and skew_gram its gram
block from moments, as the solver built both before it wrote H's layout
entries directly. segment_medians_lexsort
and fit_rigid_projected are the initialization's median and fit as they
were before the medians took two sorts and the projected degeneracy check
ran only near its bound: one np.lexsort by (constraint, value), and the
projected second singular value taken for every constraint.
robust_fit_full_refit is the initialization's trimmed fit, with those two,
as it was before it refitted only the constraints whose match set changed:
every round refits every constraint.
run_em_replaying is the EM driver as it was before M-steps handed their pose
state on: every M-step starts from a list of poses and evaluates it again,
and a run goes on after an M-step that takes no step, replaying it.
EntryPattern is the LM system's pattern as it was before it was built by
pose blocks: one np.unique over the keys of every block entry, and a
subgraph that zeroes the left-out blocks and drops every zero it stores.
assemble_per_block is LM's gradient and H as they were built before a solve
formed its weight-only terms once and H's block kinds were stacked: every
pass forms the squared kernel's weight-only local moments and the cauchy
kernel's per-match 2 w again, each block kind takes its own _block_entries
call, H_ji too (as the block of H_ij's transposed terms), and the gradient
is scattered by two np.add.at.
canonical_quat is how a Pose made its quaternion canonical before the
package made every quaternion canonical in batches: one quaternion, its
norm the dot q @ q.
in_frame is not an oracle: it gives world points as a pose's frame sees
them, by se3's array forms, for the tests that build exact matches.
None of them is on the solve path.
"""

import math
from dataclasses import dataclass

import numpy as np

from robustpgo import se3, solver
from robustpgo.em import EmError, EmIteration, EmTrace, e_step, evaluate_poses, learn_theta_cauchy
from robustpgo.model import MatchTable, initialize_poses, learn_theta_gaussian
from robustpgo.se3 import Pose
from robustpgo.solver import (
    _BLOCK_ENTRIES, KERNEL_SQUARED, _block_entries, _drho, _pose_order, _rho, _turned_cross, _world_moment,
)
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


def canonical_quat(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(4)
    with np.errstate(over="ignore"):  # reported below
        n = math.sqrt(float(q @ q))
    if n < 1e-9:
        raise ValueError("quaternion norm too small to normalize")
    if n == math.inf:
        raise ValueError("quaternion norm too large to normalize")
    if q[0] > 0.0 and abs(n - 1.0) <= se3._UNIT_TOL:  # canonical already, e.g. read from a file
        return q.copy()
    return se3._canonical_quats(q)


def transform_point(pose: Pose, p: np.ndarray) -> np.ndarray:
    """The pose applied to one point, through its rotation matrix."""
    return se3.quat_to_matrix(pose.quat) @ np.asarray(p, dtype=float) + pose.trans


def in_frame(pose: Pose, world: np.ndarray) -> np.ndarray:
    """World points as the frame of the pose sees them: pose^-1 applied."""
    return se3.transform_points(Pose(*se3.inverse_arrays(pose.quat, pose.trans)), world)


def pose_difference(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation angle in [0, pi], translation norm) of a o b^-1."""
    quat, trans = se3.compose_arrays(a.quat, a.trans, *se3.inverse_arrays(b.quat, b.trans))
    vec = quat[1:]
    return 2.0 * math.atan2(math.sqrt(float(vec @ vec)), quat[0]), float(np.linalg.norm(trans))


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


def skew_gram(S: np.ndarray) -> np.ndarray:
    """sum alpha [a]x^T [b]x = tr(S) I - S^T from the moments S = sum alpha a b^T,
    each diagonal entry summed from the other two diagonal moments."""
    out = -np.swapaxes(S, 1, 2)
    d = np.diagonal(S, axis1=1, axis2=2)
    out[:, [0, 1, 2], [0, 1, 2]] = d[:, [1, 0, 0]] + d[:, [2, 2, 1]]
    return out


def block6_cross(gram, upper, lower, corner) -> np.ndarray:
    """(n, 6, 6) blocks [[gram, [upper]x], [[lower]x, corner I]] with their
    skew blocks built by np.cross: row k of [v]x is e_k x v."""
    out = np.zeros((len(gram), 6, 6))
    out[:, :3, :3] = gram
    out[:, :3, 3:] = np.cross(np.eye(3), upper[:, None, :])
    out[:, 3:, :3] = np.cross(np.eye(3), lower[:, None, :])
    out[:, 3:, 3:] = corner[:, None, None] * np.eye(3)
    return out


def segment_medians_lexsort(table: MatchTable, values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """np.median of values over each constraint's active matches, from one
    sort by (constraint, value) with inactive matches last in their segment."""
    order = np.lexsort((np.where(active, values, np.inf), table.seg))
    ranked = values[order]
    count = table.segment_sum(active.astype(float)).astype(np.intp)
    start = table.offsets[:-1]
    lo = np.clip(start + (count - 1) // 2, 0, len(values) - 1)
    hi = np.clip(start + count // 2, 0, len(values) - 1)
    return 0.5 * (ranked[lo] + ranked[hi])


def fit_rigid_projected(table: MatchTable, active: np.ndarray):
    """model._fit_rigid with the second singular value of every constraint
    taken from the scatter left once the dominant direction is projected out."""
    w = active.astype(float)
    count = table.segment_sum(w)
    scale = np.maximum(count, 1.0)[:, None]
    cq, cp = table.segment_sum(table.q, w) / scale, table.segment_sum(table.p, w) / scale
    source = table.q - cq[table.seg]
    moments = table.outer_operator(w, source)
    cross, scatter = moments(table.p - cp[table.seg]), moments(source)
    overflow = ~(np.isfinite(cross).all(axis=(1, 2)) & np.isfinite(scatter).all(axis=(1, 2)))
    cross[overflow] = scatter[overflow] = 0.0
    U, _, Vt = np.linalg.svd(cross)
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    d = np.sign(np.linalg.det(V @ Ut))
    rots = (V * np.stack([np.ones_like(d), np.ones_like(d), d], axis=-1)[:, None, :]) @ Ut

    spread, axes = np.linalg.eigh(scatter)
    axis = axes[:, :, 2][table.seg]
    rest = source - np.einsum("ma,ma->m", source, axis)[:, None] * axis
    rest_scatter = table.outer_operator(w, rest)(rest)
    rest_scatter[overflow] = 0.0
    s0 = np.sqrt(np.maximum(spread[:, 2], 0.0))
    s1 = np.sqrt(np.maximum(np.linalg.eigvalsh(rest_scatter)[:, 2], 0.0))
    failures = {}
    for c in np.flatnonzero((count < 3) | overflow | (s1 <= 1e-9 * np.maximum(1.0, s0))):
        if count[c] < 3:
            failures[int(c)] = f"only {int(count[c])} matches survive trimming (need 3)"
        elif overflow[c]:
            failures[int(c)] = "match coordinates too large to fit (their moments overflow)"
        else:
            failures[int(c)] = "surviving matches are degenerate (collinear or coincident)"
    return rots, cp - np.einsum("cab,cb->ca", rots, cq), failures


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
            rots, trans, round_failures = fit_rigid_projected(table, active)
            for c, reason in round_failures.items():
                failures.setdefault(c, reason)
            if r == rounds + 1 or len(failures) == len(table.sizes):
                break
            seg = table.seg
            moved = np.einsum("mab,mb->ma", rots[seg], table.q) + trans[seg]
            resid = np.linalg.norm(moved - table.p, axis=1)
            med = segment_medians_lexsort(table, resid, active)
            # absolute floor keeps exact matches from trimming each other at med == 0
            active = resid <= np.maximum(trim_factor * med, 1e-9)[seg]
    return rots, trans, failures


def _max_update(old: list[Pose], new: list[Pose]) -> float:
    """Largest twist norm of log(new_k o old_k^-1) over the poses."""
    step = se3.compose_arrays(*se3.stack(new), *se3.inverse_arrays(*se3.stack(old)))
    return float(np.linalg.norm(se3.log_arrays(*step), axis=1).max(initial=0.0))


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
                max_pose_update=_max_update(poses, poses_new) if report.iterations else 0.0,
            )
        )
        poses, errors = poses_new, report.errors
        ends = [rec.objective_end for rec in trace.iterations[-2:]]
        rel = abs(ends[0] - ends[-1]) / max(abs(ends[0]), 1e-300) if len(ends) == 2 else math.inf
        # with no loop there is no posterior to update: one M-step is the fixed point
        trace.converged = not graph.loops or rel < params.em_tol


class EntryPattern:
    """solver._Pattern built entry by entry: every entry of every block of
    _assemble is keyed by its column and row in the pose order (the one
    solver._pose_order chooses, or the one given), and one
    np.unique over those keys and the diagonal's gives the CSC structure of
    the full system. The subgraph fills the same structure with the blocks
    of the pairs left out set to zero, then drops every stored zero."""

    def __init__(self, pairs: np.ndarray, num_poses: int, kept: np.ndarray, pos: np.ndarray | None = None):
        i, j = pairs[:, 0], pairs[:, 1]
        self.kept = kept
        self.pos = _pose_order(pairs[kept], num_poses)[0] if pos is None else pos  # the pattern's order
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

    def matrix(self, entries: np.ndarray, damping: float, subgraph: bool = False) -> csc_matrix:
        """The system from _assemble's (4C, 24) layout entries."""
        if subgraph:
            entries = np.where(np.tile(self.kept, 4)[:, None], entries, 0.0)
        data = np.bincount(self.slot, weights=entries.ravel(), minlength=len(self.indices) + 1)[:-1]
        data[self.diagonal] += damping
        system = csc_matrix((data, self.indices, self.indptr), shape=self.shape, copy=True)
        if subgraph:
            system.eliminate_zeros()
        return system


def _local_moments_per_pass(problem: solver.Problem, state: solver.PoseState, curvature: bool):
    """solver._local_moments with nothing formed once per solve: (a0, p, q,
    e, cross, pq, pp, qq), pp and qq None with curvature."""
    table = problem.table
    if problem.kernel != KERNEL_SQUARED:
        alpha = 2.0 * problem.weights[table.seg] * _drho(state.s, problem.kernel, problem.sigma)
        alpha_p, alpha_q = table.outer_operator(alpha, table.p), table.outer_operator(alpha, table.q)
        ones = np.ones(len(table))
        pe = alpha_p(state.ei)
        return (
            table.segment_sum(alpha), alpha_p(ones), alpha_q(ones), table.segment_sum(state.ei, alpha),
            pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]], alpha_p(table.q),
            None if curvature else alpha_p(table.p), None if curvature else alpha_q(table.q),
        )

    moments = table.moments
    w2, k = 2.0 * problem.weights, table.sizes
    a0 = w2 * k

    def second(centred, a, b):
        outer = k[:, None, None] * a[:, :, None] * b[:, None, :]
        return w2[:, None, None] * (moments.unscale(centred) + outer)

    pe = second(-np.swapaxes(_turned_cross(state.rij, moments), 1, 2), moments.p_mean, state.e_mean)
    return (
        a0, a0[:, None] * moments.p_mean, a0[:, None] * moments.q_mean, a0[:, None] * state.e_mean,
        pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]],
        second(moments.pq, moments.p_mean, moments.q_mean),
        None if curvature else second(moments.pp, moments.p_mean, moments.p_mean),
        None if curvature else second(moments.qq, moments.q_mean, moments.q_mean),
    )


def assemble_per_block(problem: solver.Problem, state: solver.PoseState, curvature: bool = False):
    """solver._assemble's gradient and (4C, 24) layout entries of H, one
    _block_entries call per block kind and the gradient added by np.add.at.
    H_ji = H_ij^T is built from its own terms: with gram(S) = tr(S) I - S^T,
    gram(S)^T = gram(S^T) and [v]x^T = [-v]x."""
    table = problem.table
    i, j = table.pairs[:, 0], table.pairs[:, 1]
    ri, rj, ti, tj = state.rots[i], state.rots[j], state.trans[i], state.trans[j]
    a0, mp, mq, me, cross, pq, pp, qq = _local_moments_per_pass(problem, state, curvature)

    e_sum = np.einsum("cab,cb->ca", ri, me)
    g = np.hstack([np.einsum("cab,cb->ca", ri, cross) + np.cross(ti, e_sum), e_sum])
    grad = np.zeros((len(state), 6))
    np.add.at(grad, i, g)
    np.add.at(grad, j, -g)

    rp, rq = np.einsum("cab,cb->ca", ri, mp), np.einsum("cab,cb->ca", rj, mq)
    si, sj = rp + a0[:, None] * ti, rq + a0[:, None] * tj
    ri_t, rj_t = np.swapaxes(ri, 1, 2), np.swapaxes(rj, 1, 2)
    sij = _world_moment(ri, pq, rj_t, rp, tj, ti, sj)
    if curvature:
        c = 0.5 * (si + sj)
        h_ii = h_jj = _block_entries(0.5 * (sij + np.swapaxes(sij, 1, 2)), c, -c, a0)
    else:
        sii = _world_moment(ri, pp, ri_t, rp, ti, ti, si)
        sjj = _world_moment(rj, qq, rj_t, rq, tj, tj, sj)
        h_ii = _block_entries(sii, si, -si, a0)
        h_jj = _block_entries(sjj, sj, -sj, a0)
    # -(tr(S) I - S^T) is gram(-S)
    h_ij = _block_entries(-sij, -si, sj, -a0)
    h_ji = _block_entries(-np.swapaxes(sij, 1, 2), -sj, si, -a0)
    return grad.reshape(-1), np.concatenate([h_ii, h_jj, h_ij, h_ji])
