"""Damped second-order descent over fragment poses for the weighted robust objective.

The objective is a sum over feature matches of w * rho(||T_i p - T_j q||^2)
with rho either the log-Cauchy kernel ln(1 + s/sigma^2) or the plain squared
kernel s, and w one weight per constraint. Poses are updated through
left-multiplicative twist retractions; one pose (the gauge) stays fixed. The
damped normal equations are assembled block-sparse from per-constraint sums
over a flat match table. Their sparsity pattern depends only on which poses
the constraints couple, so a solve maps every block entry to its slot once
and each LM trial only refills the values. The matrix is symmetric positive
definite, and each trial factors it as such, with pivots taken on the
diagonal: the first factorization of a solve orders it by minimum degree on
its symmetric pattern, and the later ones reuse that order. The poses stay
in (N, 4) quaternion and (N, 3) translation arrays while LM runs.

ResidualBlock and its helpers evaluate one match at a time; they are the
independent oracle for the flat evaluation, not part of the solve path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
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
    errors: np.ndarray  # (C,) each constraint's mean rho over its matches at the returned poses
    objective_path: list[float] = field(default_factory=list)  # after each accepted step
    factorizations: int = 0  # sparse factorizations attempted, one per trial step


def build_problem(graph: ProblemGraph, state: PosteriorState, params: Hyperparams) -> Problem:
    """The graph's match table, weighted per constraint by inlier posterior /
    match count for loops and 1 / match count for odometry."""
    if len(state.posteriors) != len(graph.loops):
        raise ValueError(
            f"posterior count {len(state.posteriors)} != loop count {len(graph.loops)}"
        )
    table = graph.table
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


def _nonfinite(table: MatchTable, s: np.ndarray) -> SolverError:
    m = int(np.argmin(np.isfinite(s)))
    c = int(table.seg[m])
    i, j = table.pairs[c]
    k = m - int(np.searchsorted(table.seg, c))
    return SolverError(f"non-finite residual in constraint {c} (i={i}, j={j}, match {k})")


def _evaluate(problem: Problem, quats, trans):
    """One pose state, evaluated once: every match's residual terms
    (yi, yj, e, s), each constraint's error (the mean of rho(s) over its
    matches) and the objective, inf when a residual is not finite. LM keeps
    it with the poses it holds, for the gradient, H and the report."""
    table = problem.table
    residuals = table.residuals(se3.quat_to_matrix(quats), trans)
    # a kernel value past the float range is inf (NaN at weight 0), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        sums = table.segment_sum(_rho(residuals[3], problem.kernel, problem.sigma))
        objective = float(problem.weights @ sums) if np.isfinite(residuals[3]).all() else math.inf
    return residuals, sums / table.sizes, objective


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


def _assemble(problem: Problem, residuals, num_poses: int):
    """Exact gradient and the (4C, 6, 6) blocks of the Gauss-Newton Hessian
    approximation, from the finite residuals (yi, yj, e, s) of a pose state:
    H_ii, H_jj, H_ij, H_ji of each constraint (i, j) in turn; _Pattern
    places them.

    A match with alpha = 2 w rho'(s) has Jacobians J_i = [-[y_i]x, I] and
    J_j = [[y_j]x, -I]; it adds J^T alpha e to each pose's gradient and
    alpha J_a^T J_b to block (a, b) of H. Summed over a constraint, those
    blocks depend only on the moments sum alpha, sum alpha y and
    sum alpha y y^T, so no per-match 6x6 product is formed.
    """
    table = problem.table
    yi, yj, e, s = residuals
    alpha = 2.0 * problem.weights[table.seg] * _drho(s, problem.kernel, problem.sigma)
    ae = alpha[:, None] * e

    g = table.segment_sum(np.hstack([np.cross(yi, ae), ae, np.cross(yj, ae)]))
    grad = np.zeros((num_poses, 6))
    np.add.at(grad, table.pairs[:, 0], g[:, :6])
    np.add.at(grad, table.pairs[:, 1], -np.hstack([g[:, 6:], g[:, 3:6]]))

    a0 = table.segment_sum(alpha)
    ones = np.ones((len(table), 1))
    mi = table.outer_sum(alpha, yi, np.hstack([ones, yi, yj]))  # sum alpha yi [1, yi, yj]^T
    mj = table.outer_sum(alpha, yj, np.hstack([ones, yj]))
    si, sii, sij = mi[:, :, 0], mi[:, :, 1:4], mi[:, :, 4:7]
    sj, sjj = mj[:, :, 0], mj[:, :, 1:4]
    h_ij = _block6(-_skew_gram(sij), -si, sj, -a0)
    blocks = np.concatenate(
        [
            _block6(_skew_gram(sii), si, -si, a0),
            _block6(_skew_gram(sjj), sj, -sj, a0),
            h_ij,
            np.swapaxes(h_ij, 1, 2),
        ]
    )
    return grad.reshape(-1), blocks


# entries of a 6x6 block of H that are not zero by construction
_BLOCK_ENTRIES = np.flatnonzero(_block6(np.ones((1, 3, 3)), np.ones((1, 3)), np.ones((1, 3)), np.ones(1)))


class _Pattern:
    """Where every block entry lands in the compressed sparse column (CSC)
    matrix of the damped system over the free dofs. The pattern is fixed by
    the constraint pairs, so one solve builds it once and each LM trial only
    refills its values. The gauge pose's rows and columns are left out, each
    diagonal slot is present, and free dof k sits at position pos[k].
    """

    def __init__(self, pairs: np.ndarray, num_poses: int, gauge: int, pos: np.ndarray | None = None):
        i, j = pairs[:, 0], pairs[:, 1]
        self.free = np.arange(6 * num_poses) // 6 != gauge
        n = int(self.free.sum())
        self.ordered = pos is not None
        self.pos = np.arange(n) if pos is None else pos
        self.pairs, self.num_poses, self.gauge = pairs, num_poses, gauge
        place = np.full(6 * num_poses, -1)
        place[self.free] = self.pos
        rows = place[(6 * np.concatenate([i, j, i, j])[:, None] + _BLOCK_ENTRIES // 6).ravel()]
        cols = place[(6 * np.concatenate([i, j, j, i])[:, None] + _BLOCK_ENTRIES % 6).ravel()]
        kept = (rows >= 0) & (cols >= 0)
        keys, slots = np.unique(
            np.concatenate([cols[kept] * n + rows[kept], np.arange(n) * (n + 1)]), return_inverse=True
        )
        # entries in the gauge's rows or columns all go to one spare slot
        self.slot = np.full(len(rows), len(keys))
        self.slot[kept] = slots[: kept.sum()]
        self.diagonal = slots[kept.sum() :]
        self.indices = keys % n
        self.indptr = np.searchsorted(keys // n, np.arange(n + 1))
        self.shape = (n, n)

    def reordered(self, pos: np.ndarray) -> _Pattern:
        """The same system with its position k moved to pos[k]."""
        return _Pattern(self.pairs, self.num_poses, self.gauge, pos[self.pos])

    def matrix(self, blocks: np.ndarray, damping: float) -> csc_matrix:
        """The system H + damping I over the free dofs, from _assemble's blocks."""
        values = blocks.reshape(len(blocks), 36)[:, _BLOCK_ENTRIES].ravel()
        data = np.bincount(self.slot, weights=values, minlength=len(self.indices) + 1)[:-1]
        data[self.diagonal] += damping
        return csc_matrix((data, self.indices, self.indptr), shape=self.shape)

    def take(self, vector: np.ndarray) -> np.ndarray:
        """A full 6N vector's free entries, in the pattern's order."""
        out = np.empty(self.shape[0])
        out[self.pos] = vector[self.free]
        return out

    def put(self, values: np.ndarray) -> np.ndarray:
        """The 6N vector with the pattern-ordered values on the free dofs, zero on the gauge."""
        out = np.zeros(len(self.free))
        out[self.free] = values[self.pos]
        return out


def _factor_solve(system, rhs: np.ndarray, ordered: bool):
    """Solve the SPD system by SuperLU in symmetric mode, with diagonal pivots.
    Unless the system is ordered already, SuperLU orders it by minimum degree
    on A + A^T, and the order it chose (perm_c) is returned to reorder the
    next system by. The factor is not kept, so it is freed before the next
    one is made."""
    lu = splu(
        system, permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.solve(rhs), None if ordered else lu.perm_c.copy()


def _retract_all(quats, trans, delta: np.ndarray, gauge: int):
    """Retract every pose k by its twist delta[6k : 6k + 6], as se3.retract
    does one pose. The gauge pose comes back bit-identical; a gauge outside
    [0, N) holds no pose fixed. A twist too large for floats gives a
    non-finite pose, whose trial LM rejects, so numpy is not asked to warn."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    residuals, errors, objective = _evaluate(problem, quats, trans)
    if not np.isfinite(residuals[3]).all():
        raise _nonfinite(problem.table, residuals[3])
    initial_objective = objective

    if num_poses == 1:
        report = SolverReport(0, initial_objective, objective, "gradient", 0.0, errors)
        return se3.unstack(quats, trans), report

    # the first factorization orders the system by minimum degree; every
    # later one reuses that order, since the pattern does not change
    pattern = _Pattern(problem.table.pairs, num_poses, gauge)
    damping = DAMPING_INIT
    accepted = 0
    termination = "max_iterations"
    gradient_norm = math.inf
    objective_path = []
    factorizations = 0

    for _ in range(max_iterations):
        grad, blocks = _assemble(problem, residuals, num_poses)
        gradient_norm = float(np.abs(grad[pattern.free]).max())
        if gradient_norm < gradient_tol:
            termination = "gradient"
            break

        stepped = False
        while True:
            factorizations += 1
            try:
                solution, order = _factor_solve(
                    pattern.matrix(blocks, damping), pattern.take(-grad), pattern.ordered
                )
            except RuntimeError:
                step = None
            else:
                step = pattern.put(solution)
                if order is not None:
                    pattern = pattern.reordered(order)
            trial_objective = math.inf
            if step is not None and np.isfinite(step).all():
                trial_quats, trial_trans = _retract_all(quats, trans, step, gauge)
                trial = _evaluate(problem, trial_quats, trial_trans)
                trial_objective = trial[2]

            if trial_objective < objective:
                quats, trans, (residuals, errors, _) = trial_quats, trial_trans, trial
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
        grad, _ = _assemble(problem, residuals, num_poses)
        gradient_norm = float(np.abs(grad[pattern.free]).max())
        if gradient_norm < gradient_tol:
            termination = "gradient"

    report = SolverReport(
        accepted, initial_objective, objective, termination, gradient_norm, errors,
        objective_path, factorizations,
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
