"""Damped second-order descent over fragment poses for the weighted robust objective.

The objective is a sum over feature matches of w * rho(||T_i p - T_j q||^2)
with rho either the log-Cauchy kernel ln(1 + s/sigma^2) or the plain squared
kernel s, and w one weight per constraint. Poses are updated through
left-multiplicative twist retractions; one pose (the gauge) stays fixed. The
damped normal equations are assembled block-sparse from per-constraint sums
over a flat match table. Their matrix is symmetric positive definite, and
each step factors it as such: a minimum-degree ordering of its symmetric
pattern and pivots taken on the diagonal. The poses stay in (N, 4) quaternion
and (N, 3) translation arrays while LM runs.

ResidualBlock and its helpers evaluate one match at a time; they are the
independent oracle for the flat evaluation, not part of the solve path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, identity as sparse_identity
from scipy.sparse.linalg import splu

from . import se3
from .model import Hyperparams, MatchTable, PosteriorState, ProblemGraph
from .se3 import Pose

KERNEL_CAUCHY = "cauchy-log"
KERNEL_SQUARED = "squared"
KERNELS = {"cauchy": KERNEL_CAUCHY, "gaussian": KERNEL_SQUARED}  # kernel of each EM mode

MAX_INNER_ITERS = 100
GRADIENT_TOL = 1e-8
OBJECTIVE_TOL = 1e-10
DAMPING_INIT = 1e-4
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e8


class SolverError(Exception):
    pass


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


@dataclass(frozen=True)
class Problem:
    """The objective over a match table: every match of constraint c adds
    weights[c] * rho(s). Its length is the match count."""

    table: MatchTable
    weights: np.ndarray  # (C,) per-match weight of each constraint
    kernel: str
    sigma: float = 1.0

    def __len__(self) -> int:
        return len(self.table)


@dataclass
class SolverReport:
    iterations: int  # accepted steps
    initial_objective: float
    final_objective: float
    termination: str  # "gradient" | "objective" | "max_iterations" | "stalled"
    gradient_norm: float  # max-norm over free dofs at exit
    objective_path: list[float] = field(default_factory=list)  # after each accepted step
    factorizations: int = 0  # sparse factorizations attempted, one per trial step


def build_problem(graph: ProblemGraph, state: PosteriorState, params: Hyperparams) -> Problem:
    """The graph's match table, weighted per constraint by inlier posterior /
    match count for loops and 1 / match count for odometry."""
    if len(state.posteriors) != len(graph.loops):
        raise ValueError(
            f"posterior count {len(state.posteriors)} != loop count {len(graph.loops)}"
        )
    table = MatchTable.from_graph(graph)
    numerators = np.concatenate([np.ones(len(graph.odometry)), state.posteriors])
    # an empty constraint has no match to weight
    weights = numerators / np.maximum(table.sizes, 1)
    return Problem(table, weights, KERNELS[params.mode], params.sigma)


def _rho(s: np.ndarray, kernel: str, sigma: float) -> np.ndarray:
    if kernel == KERNEL_CAUCHY:
        return np.log1p(s / (sigma * sigma))
    if kernel == KERNEL_SQUARED:
        return s
    raise ValueError(f"unknown kernel {kernel!r}")


def _drho(s: np.ndarray, kernel: str, sigma: float) -> np.ndarray:
    if kernel == KERNEL_CAUCHY:
        return 1.0 / (sigma * sigma + s)
    if kernel == KERNEL_SQUARED:
        return np.ones_like(s)
    raise ValueError(f"unknown kernel {kernel!r}")


def _pose_arrays(poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3, 3) rotations and (N, 3) translations of the poses."""
    quats, trans = se3.stack(poses)
    return se3.quat_to_matrix(quats), trans


def _nonfinite(table: MatchTable, s: np.ndarray) -> SolverError:
    m = int(np.argmin(np.isfinite(s)))
    c = int(table.seg[m])
    i, j = table.pairs[c]
    k = m - int(np.searchsorted(table.seg, c))
    return SolverError(f"non-finite residual in constraint {c} (i={i}, j={j}, match {k})")


def _total(problem: Problem, s: np.ndarray) -> float:
    rho = _rho(s, problem.kernel, problem.sigma)
    return float(problem.weights @ problem.table.segment_sum(rho))


def _objective(problem: Problem, rots, trans, strict: bool) -> float:
    s = problem.table.residuals(rots, trans)[3]
    if not np.isfinite(s).all():
        if strict:
            raise _nonfinite(problem.table, s)
        return math.inf
    return _total(problem, s)


def _skew_gram(S: np.ndarray) -> np.ndarray:
    """sum alpha [a]x^T [b]x = tr(S) I - S^T from the moments S = sum alpha a b^T.

    Each diagonal entry is summed from the other two diagonal moments rather
    than as tr(S) - S_kk, so no large term cancels.
    """
    out = -np.swapaxes(S, 1, 2)
    d = np.diagonal(S, axis1=1, axis2=2)
    out[:, [0, 1, 2], [0, 1, 2]] = d[:, [1, 0, 0]] + d[:, [2, 2, 1]]
    return out


def _block6(gram, upper, lower, corner) -> np.ndarray:
    """(C, 6, 6) blocks [[gram, [upper]x], [[lower]x, corner * I]]; row k of
    [v]x is e_k x v."""
    out = np.zeros((len(gram), 6, 6))
    out[:, :3, :3] = gram
    out[:, :3, 3:] = np.cross(np.eye(3), upper[:, None, :])
    out[:, 3:, :3] = np.cross(np.eye(3), lower[:, None, :])
    out[:, 3:, 3:] = corner[:, None, None] * np.eye(3)
    return out


def _assemble(problem: Problem, rots, trans, num_poses: int):
    """Objective, exact gradient, and Gauss-Newton Hessian approximation.

    A match with alpha = 2 w rho'(s) has Jacobians J_i = [-[y_i]x, I] and
    J_j = [[y_j]x, -I]; it adds J^T alpha e to each pose's gradient and
    alpha J_a^T J_b to block (a, b) of H. Summed over a constraint, those
    blocks depend only on the moments sum alpha, sum alpha y and
    sum alpha y y^T, so no per-match 6x6 product is formed.
    """
    table = problem.table
    yi, yj, e, s = table.residuals(rots, trans)
    if not np.isfinite(s).all():
        raise _nonfinite(table, s)
    total = _total(problem, s)
    alpha = 2.0 * problem.weights[table.seg] * _drho(s, problem.kernel, problem.sigma)
    ae, ayi, ayj = alpha[:, None] * e, alpha[:, None] * yi, alpha[:, None] * yj

    i, j = table.pairs[:, 0], table.pairs[:, 1]
    grad = np.zeros((num_poses, 6))
    np.add.at(grad, i, table.segment_sum(np.hstack([np.cross(yi, ae), ae])))
    np.add.at(grad, j, -table.segment_sum(np.hstack([np.cross(yj, ae), ae])))

    a0 = table.segment_sum(alpha)
    si, sj = table.segment_sum(ayi), table.segment_sum(ayj)
    sii = table.segment_sum(ayi[:, :, None] * yi[:, None, :])
    sjj = table.segment_sum(ayj[:, :, None] * yj[:, None, :])
    sij = table.segment_sum(ayi[:, :, None] * yj[:, None, :])
    h_ij = _block6(-_skew_gram(sij), -si, sj, -a0)
    blocks = np.concatenate(
        [
            _block6(_skew_gram(sii), si, -si, a0),
            _block6(_skew_gram(sjj), sj, -sj, a0),
            h_ij,
            np.swapaxes(h_ij, 1, 2),
        ]
    )
    idx6 = np.arange(6)
    rows = 6 * np.concatenate([i, j, i, j])[:, None, None] + idx6[None, :, None]
    cols = 6 * np.concatenate([i, j, j, i])[:, None, None] + idx6[None, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    H = coo_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(6 * num_poses, 6 * num_poses)
    ).tocsc()
    return total, grad.reshape(-1), H


def _retract_all(quats, trans, delta: np.ndarray, gauge: int):
    """Retract every pose k by its twist delta[6k : 6k + 6], as se3.retract
    does one pose. The gauge pose comes back bit-identical; a gauge outside
    [0, N) holds no pose fixed."""
    quats_new, trans_new = se3.compose_arrays(*se3.exp_arrays(delta.reshape(-1, 6)), quats, trans)
    if 0 <= gauge < len(quats):
        quats_new[gauge], trans_new[gauge] = quats[gauge], trans[gauge]
    return quats_new, trans_new


def solve(
    problem: Problem,
    poses: list[Pose],
    gauge: int = 0,
    max_iterations: int = MAX_INNER_ITERS,
    gradient_tol: float = GRADIENT_TOL,
    objective_tol: float = OBJECTIVE_TOL,
) -> tuple[list[Pose], SolverReport]:
    """Minimize the problem's objective over all poses except the gauge pose.

    Levenberg-Marquardt trust strategy: damping starts at 1e-4, x10 on a
    rejected step, x0.5 on acceptance, clamped to [1e-12, 1e8]; a step is
    accepted only if it strictly decreases the objective, so the objective
    sequence over accepted steps is non-increasing.
    """
    num_poses = len(poses)
    if not 0 <= gauge < num_poses:
        raise ValueError(f"gauge index {gauge} out of range")
    quats, trans = se3.stack(poses)

    free = np.ones(6 * num_poses, dtype=bool)
    free[6 * gauge : 6 * gauge + 6] = False
    n_free = int(free.sum())

    rots = se3.quat_to_matrix(quats)
    objective = _objective(problem, rots, trans, strict=True)
    initial_objective = objective

    if n_free == 0:
        report = SolverReport(0, initial_objective, objective, "gradient", 0.0)
        return se3.unstack(quats, trans), report

    damping = DAMPING_INIT
    accepted = 0
    termination = "max_iterations"
    gradient_norm = math.inf
    objective_path = []
    factorizations = 0

    for _ in range(max_iterations):
        total, grad, H = _assemble(problem, rots, trans, num_poses)
        gradient_norm = float(np.abs(grad[free]).max())
        if gradient_norm < gradient_tol:
            termination = "gradient"
            break

        H_ff = H[free][:, free]
        g_f = grad[free]
        stepped = False
        while True:
            system = (H_ff + damping * sparse_identity(n_free, format="csc")).tocsc()
            factorizations += 1
            try:
                # SPD: minimum-degree ordering of the symmetric pattern and
                # diagonal pivots keep the fill low. The factor is not kept,
                # so it is freed before the next one is made.
                delta_f = splu(
                    system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                ).solve(-g_f)
            except RuntimeError:
                delta_f = None
            if delta_f is not None and np.isfinite(delta_f).all():
                delta = np.zeros(6 * num_poses)
                delta[free] = delta_f
                trial_quats, trial_trans = _retract_all(quats, trans, delta, gauge)
                trial_rots = se3.quat_to_matrix(trial_quats)
                trial_objective = _objective(problem, trial_rots, trial_trans, strict=False)
            else:
                trial_objective = math.inf

            if trial_objective < objective:
                quats, rots, trans = trial_quats, trial_rots, trial_trans
                drop = objective - trial_objective
                objective = trial_objective
                accepted += 1
                objective_path.append(objective)
                damping = max(damping * 0.5, DAMPING_MIN)
                if drop < objective_tol * max(abs(objective), 1e-300):
                    termination = "objective"
                stepped = True
                break
            damping *= 10.0
            if damping > DAMPING_MAX:
                termination = "stalled"
                break
        if not stepped or termination in ("objective", "stalled"):
            break

    # report the gradient at the poses actually returned
    if termination != "gradient":
        _, grad, _ = _assemble(problem, rots, trans, num_poses)
        gradient_norm = float(np.abs(grad[free]).max())
        if gradient_norm < gradient_tol:
            termination = "gradient"

    report = SolverReport(
        accepted, initial_objective, objective, termination, gradient_norm, objective_path,
        factorizations,
    )
    return se3.unstack(quats, trans), report


def block_cost(block: ResidualBlock, pose_i: Pose, pose_j: Pose) -> float:
    e = se3.transform_point(pose_i, block.p) - se3.transform_point(pose_j, block.q)
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
    yi = se3.transform_point(pose_i, block.p)
    yj = se3.transform_point(pose_j, block.q)
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
