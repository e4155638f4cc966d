"""Damped second-order descent over fragment poses for the weighted robust objective.

The objective is a sum over feature matches of w * rho(||T_i p - T_j q||^2)
with rho either the log-Cauchy kernel ln(1 + s/sigma^2) or the plain squared
kernel s, and w one weight per constraint. Each residual is evaluated in its
constraint's frame i, and the gradient and H are built from moments of the
constant local points p and q, rotated and translated per constraint. Poses
are updated through left-multiplicative twist retractions; one pose (the
gauge) stays fixed. The damped normal equations are assembled block-sparse
from per-constraint sums over a flat match table. Their sparsity pattern
depends only on which poses the constraints couple, so a solve maps every
block entry to its slot once and each LM trial only refills the values. H is
the Gauss-Newton approximation, so the damped matrix is symmetric positive
definite, until an accepted step lowers the objective by less than
CURVATURE_SWITCH relative. From then on, for the rest of the solve, H also
holds the per-pose residual-curvature term that Gauss-Newton drops, which
speeds up the linear tail of a large-residual problem but may leave the matrix
indefinite.

Each trial solves the damped system by subgraph preconditioning (Dellaert et
al., IROS 2010, Subgraph-preconditioned conjugate gradients for large scale
SLAM). A loop whose posterior is below SUBGRAPH_POSTERIOR adds next to
nothing to H, but its pose pair spans the graph and drives the fill-in of a
sparse factor. So only the odometry and the weighted loops are factored, by
SuperLU in symmetric mode with pivots on the diagonal, and preconditioned
conjugate gradients (PCG) with that factor recover the step of the full
system. There is one pattern per solve; PCG multiplies by the matrix a miss
factors. The pattern holds every constraint and is ordered once, when it is
built, by minimum degree on the weighted subgraph's poses with each pose's
six dofs together, and every factorization keeps that order. Each trial
fills it twice: as the full system, and with the weightless loops left out
as the subgraph. Where PCG misses (a direction of non-positive curvature,
which the curvature phase can give, a value that is not finite, or no
convergence within PCG_MAX_ITERS), the trial factors the full system's
matrix instead. A zero pivot there or a step that is not finite rejects
the trial, as the strict-decrease test rejects an uphill step. A trial that
does not move the objective beyond objective_tol ends the solve untaken, and
a solve stalls when the damping passes its cap. The poses stay in (N, 4)
quaternion and (N, 3) translation arrays while LM runs.

`robustpgo check-grad` checks _assemble's gradient and H against finite
differences of _evaluate under _retract_all, the functions LM itself calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, diags, linalg as sparse_linalg
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
CURVATURE_SWITCH = 1e-5  # an accepted step's relative drop below which H gains the curvature term
SUBGRAPH_POSTERIOR = 1e-6  # a loop's posterior below which the preconditioner leaves it out
PCG_TOL = 1e-13  # residual, relative to the right-hand side, at which PCG returns the step
PCG_MAX_ITERS = 20  # PCG iterations after which a trial falls back to the full factorization
DAMPING_INIT = 1e-4
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e8


class SolverError(Exception):
    pass


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
    objective_start: float  # the objective at the start poses
    objective_end: float  # the objective at the returned poses
    # "gradient" | "max_iterations" | "objective" / "stalled": a trial within objective_tol of
    # the objective, lower / not lower, ended the solve untaken; "stalled" also past DAMPING_MAX
    termination: str
    gradient_norm: float  # max-norm over free dofs of the last gradient assembled, at the returned poses
    errors: np.ndarray  # (C,) each constraint's mean rho over its matches at the returned poses
    objective_path: list[float] = field(default_factory=list)  # after each accepted step
    factorizations: int = 0  # LM trial steps, each factoring one system (a fallback adds another)
    curvature_steps: int = 0  # accepted steps whose H held the residual-curvature term
    pcg_iterations: int = 0  # PCG iterations over all trials
    fallbacks: int = 0  # full-system factorizations made after a PCG miss


def build_problem(graph: ProblemGraph, state: PosteriorState, params: Hyperparams) -> Problem:
    """The graph's match table, weighted per constraint by inlier posterior /
    match count for loops and 1 / match count for odometry."""
    if len(state.posteriors) != len(graph.loops):
        raise ValueError(
            f"posterior count {len(state.posteriors)} != loop count {len(graph.loops)}"
        )
    numerators = np.concatenate([np.ones(len(graph.odometry)), state.posteriors])
    return Problem(graph.table, numerators / graph.table.sizes, KERNELS[params.mode], params.sigma)


def _rho(s: np.ndarray, kernel: str, sigma: float) -> np.ndarray:
    if kernel == KERNEL_CAUCHY:
        with np.errstate(over="ignore"):
            ratio = s / (sigma * sigma)
        out = np.log1p(ratio)
        # where s / sigma^2 is past the float range, ln(1 + s/sigma^2) is ln(s) - 2 ln(sigma)
        huge = np.isinf(ratio) & np.isfinite(s)
        out[huge] = np.log(s[huge]) - 2.0 * math.log(sigma)
        return out
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
    """One pose state, evaluated once: the pose rotations and translations
    with every match's frame-i residual and squared norm (rots, trans, e_i, s),
    each constraint's error (the mean of rho(s) over its matches) and the
    objective, inf when a residual is not finite. LM keeps it with the poses
    it holds, for the gradient, H and the report."""
    table = problem.table
    rots = se3.quat_to_matrix(quats)
    ei, s = table.residuals(rots, trans)
    # a kernel value past the float range is inf (NaN at weight 0), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        sums = table.segment_sum(_rho(s, problem.kernel, problem.sigma))
        objective = float(problem.weights @ sums) if np.isfinite(s).all() else math.inf
    return (rots, trans, ei, s), sums / table.sizes, objective


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


def _world_moment(ra, local, rb, ua, tb, ta, sb) -> np.ndarray:
    """sum alpha (R_a x + t_a)(R_b z + t_b)^T from the local moment
    sum alpha x z^T, with ua = R_a sum alpha x and sb = sum alpha (R_b z + t_b):
    R_a local R_b^T + ua t_b^T + t_a sb^T."""
    outer = ua[:, :, None] * tb[:, None, :] + ta[:, :, None] * sb[:, None, :]
    return ra @ local @ np.swapaxes(rb, 1, 2) + outer


def _assemble(problem: Problem, residuals, num_poses: int, curvature: bool = False):
    """Exact gradient and the (4C, 6, 6) blocks of H, from the finite pose
    state (rots, trans, e_i, s) of _evaluate: H_ii, H_jj, H_ij, H_ji of each
    constraint (i, j) in turn; _Pattern places them.

    A match with alpha = 2 w rho'(s) has world points y_i = T_i p, y_j = T_j q,
    residual e = y_i - y_j = R_i e_i and Jacobians J_i = [-[y_i]x, I] and
    J_j = [[y_j]x, -I]; it adds J^T alpha e to each pose's gradient and
    alpha J_a^T J_b to block (a, b) of H. Nothing here is formed per match in
    the world frame. Summed over a constraint, the gradient of pose i is
    [w, E] with E = sum alpha e = R_i sum alpha e_i and
    w = sum alpha y_i x e = R_i (sum alpha p x e_i) + t_i x E; pose j gets
    -[w, E], as y_j x e = y_i x e. The sum of p x e_i is the antisymmetric
    part of the per-match moment sum alpha p e_i^T, never a difference of
    large moments. The H blocks depend only on the world moments a0 = sum
    alpha, si = sum alpha y_i, sii = sum alpha y_i y_i^T, sij = sum alpha
    y_i y_j^T, sj and sjj, which are rebuilt from moments of the constant
    local points: with P = sum alpha p p^T, Q = sum alpha q q^T,
    X = sum alpha p q^T, si = R_i sum alpha p + a0 t_i,
    sij = R_i X R_j^T + (R_i sum alpha p) t_j^T + t_i (R_j sum alpha q)^T
    + a0 t_i t_j^T, and sii, sjj alike from P and Q. So no per-match 6x6 or
    world-frame product is formed. That H is the Gauss-Newton approximation,
    symmetric positive semidefinite.

    With curvature, H also holds the residual-curvature term sum alpha e . d2e
    that Gauss-Newton drops (still without the rho'' term). Under the left
    retraction y <- exp(delta) y the second-order part of y is
    1/2 w x (w x y) + 1/2 w x v, so the term is block-diagonal per pose: with
    S_i = sum alpha e y_i^T = sii - sij^T, H_ii gains
    1/2 (S_i + S_i^T) - tr(S_i) I in its ww block, -1/2 [E]x in its wv
    block and +1/2 [E]x in its vw block; H_jj the same with
    S_j = -sum alpha e y_j^T = sjj - sij and -E. The sii and sjj moments
    cancel, and both diagonal blocks become
    [[tr(m) I - m, [c]x], [-[c]x, a0 I]] with m = 1/2 (sij + sij^T) and
    c = 1/2 (si + sj). H is then symmetric but may be indefinite.
    """
    table = problem.table
    rots, trans, ei, s = residuals
    i, j = table.pairs[:, 0], table.pairs[:, 1]
    ri, rj, ti, tj = rots[i], rots[j], trans[i], trans[j]
    alpha = 2.0 * problem.weights[table.seg] * _drho(s, problem.kernel, problem.sigma)

    ones = np.ones((len(table), 1))
    # sum alpha p [1, p, q, e_i]^T and sum alpha q [1, q]^T
    mp = table.outer_sum(alpha, table.p, np.hstack([ones, table.p, table.q, ei]))
    mq = table.outer_sum(alpha, table.q, np.hstack([ones, table.q]))
    a0 = table.segment_sum(alpha)

    e_sum = np.einsum("cab,cb->ca", ri, table.segment_sum(ei, alpha))  # E
    cross = mp[:, [1, 2, 0], [9, 7, 8]] - mp[:, [2, 0, 1], [8, 9, 7]]  # sum alpha p x e_i
    g = np.hstack([np.einsum("cab,cb->ca", ri, cross) + np.cross(ti, e_sum), e_sum])
    grad = np.zeros((num_poses, 6))
    np.add.at(grad, i, g)
    np.add.at(grad, j, -g)

    rp, rq = np.einsum("cab,cb->ca", ri, mp[:, :, 0]), np.einsum("cab,cb->ca", rj, mq[:, :, 0])
    si, sj = rp + a0[:, None] * ti, rq + a0[:, None] * tj
    sij = _world_moment(ri, mp[:, :, 4:7], rj, rp, tj, ti, sj)
    if curvature:
        c = 0.5 * (si + sj)
        h_ii = h_jj = _block6(_skew_gram(0.5 * (sij + np.swapaxes(sij, 1, 2))), c, -c, a0)
    else:
        sii = _world_moment(ri, mp[:, :, 1:4], ri, rp, ti, ti, si)
        sjj = _world_moment(rj, mq[:, :, 1:4], rj, rq, tj, tj, sj)
        h_ii = _block6(_skew_gram(sii), si, -si, a0)
        h_jj = _block6(_skew_gram(sjj), sj, -sj, a0)
    h_ij = _block6(-_skew_gram(sij), -si, sj, -a0)
    return grad.reshape(-1), np.concatenate([h_ii, h_jj, h_ij, np.swapaxes(h_ij, 1, 2)])


# entries of a 6x6 block of H that are not zero by construction
_BLOCK_ENTRIES = np.flatnonzero(_block6(np.ones((1, 3, 3)), np.ones((1, 3)), np.ones((1, 3)), np.ones(1)))


def _pose_order(pairs: np.ndarray, num_poses: int, gauge: int) -> np.ndarray:
    """Position of each free dof in SuperLU's minimum-degree order of the free
    poses' graph, each pose's six dofs together (Square Root SAM, Dellaert &
    Kaess, IJRR 2006): perm_c of the graph's Laplacian plus I, factored by
    scipy's splu rather than the module global, as it is no LM factorization."""
    free = np.arange(num_poses) != gauge
    i, j = (np.cumsum(free) - 1)[pairs[free[pairs].all(axis=1)]].T  # numbered among the free poses
    n = int(free.sum())
    coupled = csc_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])), shape=(n, n))
    perm = sparse_linalg.splu(
        diags(1.0 + coupled.sum(axis=0).A1, format="csc") - coupled, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    ).perm_c
    return (6 * perm[:, None] + np.arange(6)).ravel()


class _Pattern:
    """Where every block entry lands in the compressed sparse column (CSC)
    matrix of a damped system over the free dofs. The pattern is fixed by
    the constraint pairs: one pattern per solve, which each LM trial refills
    as the full system and as the kept pairs' subgraph; PCG multiplies by
    the matrix a miss factors. Its order, fixed when it is built, is
    _pose_order's pose-level minimum degree of the kept pairs' graph (all
    pairs by default): free dof k sits at position pos[k]. The gauge pose's
    rows and columns are left out and each diagonal slot is present.
    """

    def __init__(self, pairs: np.ndarray, num_poses: int, gauge: int, kept: np.ndarray | None = None):
        i, j = pairs[:, 0], pairs[:, 1]
        self.kept = np.ones(len(pairs), dtype=bool) if kept is None else kept
        self.free = np.arange(6 * num_poses) // 6 != gauge
        self.pos = _pose_order(pairs[self.kept], num_poses, gauge)
        n = len(self.pos)
        place = np.full(6 * num_poses, -1)
        place[self.free] = self.pos
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
        """The system H + damping I over the free dofs, from _assemble's
        blocks; with subgraph, over the kept pairs only, with no entry stored
        where only the other pairs' blocks land, as SuperLU's fill follows
        the stored entries."""
        values = blocks.reshape(len(blocks), 36)[:, _BLOCK_ENTRIES]
        if subgraph:
            values = np.where(np.tile(self.kept, 4)[:, None], values, 0.0)
        data = np.bincount(self.slot, weights=values.ravel(), minlength=len(self.indices) + 1)[:-1]
        data[self.diagonal] += damping
        # eliminate_zeros works in place, so on copies of the pattern's index arrays
        system = csc_matrix((data, self.indices, self.indptr), shape=self.shape, copy=subgraph)
        if subgraph:
            system.eliminate_zeros()
        return system

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


def _factor(system: csc_matrix):
    """SuperLU's factor of a damped system from _Pattern.matrix, in
    symmetric mode with pivots on the diagonal; a zero pivot raises
    RuntimeError. SuperLU keeps the pattern's own pose-level order
    (NATURAL): with one pattern per solve, PCG multiplies by the matrix a
    miss factors, in the order the subgraph's factor has."""
    return splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _pcg(product, precondition, rhs: np.ndarray):
    """Preconditioned conjugate gradients from x = 0 until the recurred
    residual is at most PCG_TOL |rhs| in the max-norm. Returns x and the
    iterations taken, with None for x on a miss: r^T z <= 0 or p^T A p <= 0
    (the preconditioner or the system is not positive definite), a value
    that is not finite, or no convergence within PCG_MAX_ITERS."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rz = p = None
    k = 0
    # a value past the float range is a miss, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        bound = PCG_TOL * np.abs(rhs).max()
        while not np.abs(r).max() <= bound:
            if k == PCG_MAX_ITERS:
                return None, k
            k += 1
            z = precondition(r)
            rz, rz_old = float(r @ z), rz
            if not rz > 0.0:
                return None, k
            p = z if p is None else z + (rz / rz_old) * p
            ap = product(p)
            curvature = float(p @ ap)
            if not curvature > 0.0:
                return None, k
            x += (rz / curvature) * p
            r -= (rz / curvature) * ap
    return (x, k) if np.isfinite(x).all() else (None, k)


class _Stepper:
    """The trial steps of one solve, each the solution of
    (H + damping I) step = -grad over the free dofs, with H over all
    constraints. Subgraph preconditioning (Dellaert et al., IROS 2010):
    only the odometry and the loops whose posterior (weight * match count)
    is at least SUBGRAPH_POSTERIOR are factored, and PCG with that factor
    recovers the step of the full system. One pattern per solve, built
    before any factor, holds every constraint in the subgraph's pose-level
    order; PCG multiplies by the matrix a miss factors, so the right-hand
    side is taken into that order once and the step put back once. A PCG
    miss, or a zero pivot in the subgraph's factor, falls back to factoring
    the full system."""

    def __init__(self, problem: Problem, num_poses: int, gauge: int):
        table = problem.table
        kept = problem.weights * table.sizes >= SUBGRAPH_POSTERIOR
        self.pattern = _Pattern(table.pairs, num_poses, gauge, kept)
        self.free = self.pattern.free
        self.pcg_iterations = 0
        self.fallbacks = 0

    def __call__(self, blocks: np.ndarray, grad: np.ndarray, damping: float) -> np.ndarray | None:
        """The 6N step, zero on the gauge; None when a zero pivot of the full system rejects the trial."""
        pattern, solution = self.pattern, None
        system, rhs = pattern.matrix(blocks, damping), pattern.take(-grad)
        try:
            factor = _factor(pattern.matrix(blocks, damping, subgraph=True))
        except RuntimeError:
            pass
        else:
            solution, iterations = _pcg(system.dot, factor.solve, rhs)
            self.pcg_iterations += iterations
            del factor  # freed before a fallback factors the full system
        if solution is None:
            self.fallbacks += 1
            try:
                solution = _factor(system).solve(rhs)
            except RuntimeError:
                return None
        return pattern.put(solution)


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
    sequence over accepted steps is non-increasing. H is the Gauss-Newton
    approximation until an accepted step lowers the objective by less than
    CURVATURE_SWITCH relative; from then on it also holds the residual-
    curvature term (see _assemble), for the rest of the solve. A trial
    within objective_tol (relative) of the current objective ends the solve
    and is not taken: "objective" if it is lower, "stalled" if not. The
    solve also stalls when the damping passes 1e8. Each LM pass, the capped
    one too, assembles at the poses it holds, so a solve assembles once more
    than it accepts steps and reports the last gradient, at the returned poses.
    """
    num_poses = len(poses)
    if not 0 <= gauge < num_poses:
        raise ValueError(f"gauge index {gauge} out of range")
    quats, trans = se3.stack(poses)
    residuals, errors, objective = _evaluate(problem, quats, trans)
    if not np.isfinite(residuals[3]).all():
        raise _nonfinite(problem.table, residuals[3])
    objective_start = objective

    if num_poses == 1:
        report = SolverReport(0, objective_start, objective, "gradient", 0.0, errors)
        return se3.unstack(quats, trans), report

    stepper = _Stepper(problem, num_poses, gauge)
    damping = DAMPING_INIT
    accepted = 0
    termination = ""
    objective_path = []
    factorizations = 0
    curvature = False
    curvature_steps = 0

    while not termination:
        grad, blocks = _assemble(problem, residuals, num_poses, curvature)
        gradient_norm = float(np.abs(grad[stepper.free]).max())
        if gradient_norm < gradient_tol:
            termination = "gradient"
            break
        if accepted >= max_iterations:
            termination = "max_iterations"
            break

        while True:
            factorizations += 1
            step = stepper(blocks, grad, damping)
            trial_objective = math.inf
            if step is not None and np.isfinite(step).all():
                trial_quats, trial_trans = _retract_all(quats, trans, step, gauge)
                trial = _evaluate(problem, trial_quats, trial_trans)
                trial_objective = trial[2]

            # a trial this close to the objective is at the floor of its float
            # precision: neither it nor a more damped one tells a decrease
            if abs(trial_objective - objective) <= objective_tol * max(abs(objective), 1e-300):
                termination = "objective" if trial_objective < objective else "stalled"
                break
            if trial_objective < objective:
                quats, trans, (residuals, errors, _) = trial_quats, trial_trans, trial
                drop = objective - trial_objective
                objective = trial_objective
                accepted += 1
                curvature_steps += curvature
                objective_path.append(objective)
                damping = max(damping * 0.5, DAMPING_MIN)
                curvature = curvature or drop < CURVATURE_SWITCH * max(abs(objective), 1e-300)
                break
            damping *= 10.0
            if damping > DAMPING_MAX:
                termination = "stalled"
                break

    report = SolverReport(
        accepted, objective_start, objective, termination, gradient_norm, errors,
        objective_path, factorizations, curvature_steps, stepper.pcg_iterations, stepper.fallbacks,
    )
    return se3.unstack(quats, trans), report
