"""Damped second-order descent over fragment poses for the weighted robust objective.

The M-step's entry is solve(problem, state): it takes a PoseState and
returns the PoseState it ends at, with a SolverReport. The objective is a
sum over feature matches of w * rho(||T_i p - T_j q||^2) with rho either the
log-Cauchy kernel ln(1 + s/sigma^2) or the plain squared kernel s, each the
negative log-likelihood of the inlier distribution of the EM mode that names
it ("cauchy", "gaussian"), and w one weight per constraint. Each residual is
evaluated in its constraint's frame
i, and the gradient and H are built from moments of the constant local
points p and q, rotated and translated per constraint. Under the squared
kernel alpha = 2 w is constant within each constraint, so a trial costs
O(C), not O(M) (the per-pair information matrix of Choi, Zhou & Koltun,
CVPR 2015, Robust Reconstruction of Indoor Scenes): the gradient and H
follow from the table's fixed, centred moments (MatchTable.moments) and each
constraint's relative pose, and the objective from the anchor the solve's
start state computed in its one pass over the matches, as
S0 + 4 (|v|^2 tr K0 - v^T K0 v - w v . kappa0) + k |e_mean|^2 with (w, v)
the quaternion of the turn from the anchor (_anchored_sums). A solve that
accepts a step evaluates its end poses per match once more, so what it
reports and returns are per-match values. Poses are updated
through left-multiplicative twist retractions, and pose 0 (the gauge) stays
fixed. LM stops at MAX_INNER_ITERS accepted steps, at a gradient max-norm
below GRADIENT_TOL, or at a trial within OBJECTIVE_TOL (relative) of the
objective. H is the Gauss-Newton approximation, so the damped matrix is
symmetric positive definite, until an accepted step lowers the objective by
less than CURVATURE_SWITCH relative. From then on, for the rest of the
solve, H also holds the per-pose residual-curvature term that Gauss-Newton
drops, which speeds up the linear tail of a large-residual problem but may
leave the matrix indefinite.

The damped normal equations are assembled block-sparse from per-constraint
sums over a flat match table, whose segment ids follow from its match counts.
Their sparsity pattern depends only on which poses the constraints couple, so
a _Pattern maps every block entry to its slot once, leaving out the gauge,
pose 0, and each LM trial only refills the values, with one bincount per
system. The pattern is built by 6x6 pose blocks, which all share one entry
layout: one np.unique over the block keys ranks each block in its block
column, and an entry's slot follows by arithmetic. Each trial solves the
damped system by subgraph preconditioning (Dellaert et al., IROS 2010,
Subgraph-preconditioned conjugate gradients for large scale SLAM). A loop
whose posterior is below SUBGRAPH_POSTERIOR adds next to nothing to H, but
its pose pair spans the graph and drives the fill-in of a sparse factor. So
only the odometry and the weighted loops are factored, by SuperLU in
symmetric mode with pivots on the diagonal and supernodes sized to the pose
blocks, and preconditioned conjugate gradients (PCG) with that factor
recover the step of the full system. A
pattern holds every constraint and is ordered once, when it is built, by
minimum degree on the weighted subgraph's poses with each pose's six dofs
together, and every factorization keeps that order. Each table keeps the
last pattern built for it, so the M-steps of an EM run that keep the same
loops share one, and it goes with its table. It holds two structures, the
full system's and the subgraph's, which stores only the kept pairs' blocks,
and each trial fills both.
Where PCG misses (a direction of non-positive curvature, which the
curvature phase can give, a value that is not finite, or no convergence
within PCG_MAX_ITERS), the trial factors the full system's matrix instead.
A zero pivot there or a step that is not finite rejects the trial, as the
strict-decrease test rejects an uphill step. The poses stay in (N, 4)
quaternion and (N, 3) translation arrays while LM runs, each pose state with
its weight-free evaluation (PoseState), which EM hands from one M-step to
the next.

`robustpgo check-grad` checks _assemble's gradient and H against finite
differences of _evaluate under _retract_all, the functions LM itself calls.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix, diags, linalg as sparse_linalg
from scipy.sparse.linalg import splu

from . import se3
from .model import Hyperparams, MatchTable, PosteriorState, ProblemGraph

KERNEL_CAUCHY = "cauchy"  # rho(s) = ln(1 + s / sigma^2), the cauchy mode's kernel
KERNEL_SQUARED = "gaussian"  # rho(s) = s, the gaussian mode's kernel

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

    def objective(self, state: PoseState) -> float:
        """weights @ sums at a pose state evaluated for this problem's table,
        kernel and sigma; inf when a residual is not finite."""
        # a kernel value past the float range is inf (NaN at weight 0), not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.weights @ state.sums) if state.finite else math.inf


@dataclass(frozen=True)
class _Anchor:
    """A squared-kernel reference for the objective of states near the one
    evaluated per match: per constraint, its relative rotation there, R0 as a
    quaternion, the exact centred sum S0 = sum |p~ - R0 q~|^2 over its matches,
    and, from K0 = R0 X~^T (held scaled as table.moments are), tr K0, K0 and
    the axial vector kappa0 = (K0_12 - K0_21, K0_20 - K0_02, K0_01 - K0_10)."""

    quat: np.ndarray  # (C, 4)
    centred: np.ndarray  # (C,) S0
    trace: np.ndarray  # (C,)
    k0: np.ndarray  # (C, 3, 3)
    axial: np.ndarray  # (C, 3)


@dataclass(frozen=True)
class PoseState:
    """Poses as (N, 4) quaternion and (N, 3) translation arrays, with their
    weight-free evaluation over one table, kernel and sigma: the rotations,
    the terms _assemble reads, and each constraint's sum of rho(s) over its
    matches. Any weights give its objective (Problem.objective) without
    another pass.

    Under the cauchy kernel the terms are per match: every frame-i residual
    e_i and its squared norm s. Under the squared kernel they are per
    constraint, with no M-sized array: the relative rotation R_ij and the
    mean residual e_mean = p_mean - R_ij q_mean - t_ij. A squared-kernel state
    evaluated from bare poses makes the one pass over the matches, for its
    sums and its anchor (_Anchor); a state evaluated with an anchor, as LM
    evaluates its trials with the start state's, takes its sums from the
    anchor and the table's moments (_anchored_sums)."""

    quats: np.ndarray
    trans: np.ndarray
    rots: np.ndarray  # (N, 3, 3)
    sums: np.ndarray  # (C,)
    finite: bool  # every residual is finite
    table: MatchTable
    kernel: str
    sigma: float
    ei: np.ndarray | None = None  # (M, 3) R_i^T (T_i p - T_j q), cauchy kernel
    s: np.ndarray | None = None  # (M,) |e_i|^2, cauchy kernel
    rij: np.ndarray | None = None  # (C, 3, 3) R_i^T R_j, squared kernel
    e_mean: np.ndarray | None = None  # (C, 3) mean e_i of each constraint, squared kernel
    anchor: _Anchor | None = None  # squared kernel

    def __len__(self) -> int:
        return len(self.quats)

    @property
    def errors(self) -> np.ndarray:
        """(C,) each constraint's mean rho over its matches."""
        return self.sums / self.table.sizes

    def fits(self, problem: Problem) -> bool:
        """Whether this state is evaluated for the problem's table, kernel and sigma."""
        return self.table is problem.table and (self.kernel, self.sigma) == (problem.kernel, problem.sigma)


@dataclass
class SolverReport:
    iterations: int  # accepted steps
    objective_start: float  # the objective at the start poses
    objective_end: float  # the objective at the returned poses
    # "gradient" | "max_iterations" | "objective" / "stalled": a trial within OBJECTIVE_TOL of
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
    return Problem(graph.table, numerators / graph.table.sizes, params.mode, params.sigma)


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


def _nonfinite(state: PoseState) -> SolverError:
    """The error that names the first match whose residual at the state's
    poses is not finite."""
    table = state.table
    _, s = table.frame_residuals(state.rots, state.trans)
    m = int(np.argmin(np.isfinite(s)))
    c = int(table.seg[m])
    i, j = table.pairs[c]
    k = m - int(np.searchsorted(table.seg, c))
    return SolverError(f"non-finite residual in constraint {c} (i={i}, j={j}, match {k})")


def _relative_quats(table: MatchTable, quats: np.ndarray) -> np.ndarray:
    """(C, 4) each constraint's relative rotation R_i^T R_j as a quaternion."""
    i, j = table.pairs[:, 0], table.pairs[:, 1]
    return se3.quat_mul(quats[i] * [1.0, -1.0, -1.0, -1.0], quats[j])


def _anchored_sums(table: MatchTable, anchor: _Anchor, quats: np.ndarray, e_mean: np.ndarray) -> np.ndarray:
    """Each constraint's sum of |e_i|^2 = S0 + 2 tr((I - D) K0) + k |e_mean|^2,
    where D = R_ij R0^T has the quaternion (w, v): with I - D =
    2 |v|^2 I - 2 v v^T - 2 w [v]x, the middle term is
    4 (|v|^2 tr K0 - v^T K0 v - w v . kappa0). It is exact where D = I and
    small near it, so no large moment cancels, unlike tr P~ + tr Q~ -
    2 tr(R_ij X~^T). K0 is held scaled as the table's moments are."""
    d = se3.quat_mul(_relative_quats(table, quats), anchor.quat * [1.0, -1.0, -1.0, -1.0])
    w, v = d[:, 0], d[:, 1:]
    turn = 4.0 * (
        np.einsum("ca,ca->c", v, v) * anchor.trace
        - np.einsum("ca,cab,cb->c", v, anchor.k0, v)
        - w * np.einsum("ca,ca->c", v, anchor.axial)
    )
    return anchor.centred + table.moments.unscale(turn) + table.sizes * np.einsum("ca,ca->c", e_mean, e_mean)


def _evaluate(problem: Problem, quats, trans, anchor: _Anchor | None = None) -> PoseState:
    """One pose state, evaluated once for the problem's table, kernel and
    sigma. LM keeps it with the poses it holds, for the objective, the
    gradient, H and the report. With no anchor the evaluation is one pass
    over the matches, and a squared-kernel state becomes its own anchor;
    with one (LM's squared-kernel trials, with the start state's) it is
    O(C)."""
    table, kernel, sigma = problem.table, problem.kernel, problem.sigma
    rots = se3.quat_to_matrix(quats)
    if anchor is None:
        ei, s = table.frame_residuals(rots, trans)
        # a kernel value past the float range is inf, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sums = table.segment_sum(_rho(s, kernel, sigma))
        finite = bool(np.isfinite(s).all())
        if kernel != KERNEL_SQUARED:
            return PoseState(quats, trans, rots, sums, finite, table, kernel, sigma, ei=ei, s=s)

    moments = table.moments
    rij, tij = table.relative_poses(rots, trans)
    with np.errstate(over="ignore", invalid="ignore"):
        e_mean = moments.p_mean - np.einsum("cab,cb->ca", rij, moments.q_mean) - tij
        if anchor is None:
            centred = ei - np.repeat(e_mean, table.sizes, axis=0)  # p~ - R_ij q~
            k0 = rij @ np.swapaxes(moments.pq, 1, 2)  # R_ij X~^T / 4^exponent
            anchor = _Anchor(
                _relative_quats(table, quats), table.segment_sum(np.einsum("ma,ma->m", centred, centred)),
                np.trace(k0, axis1=1, axis2=2), k0, k0[:, [1, 2, 0], [2, 0, 1]] - k0[:, [2, 0, 1], [1, 2, 0]],
            )
        else:
            sums = _anchored_sums(table, anchor, quats, e_mean)
            finite = bool(np.isfinite(sums).all())
    return PoseState(
        quats, trans, rots, sums, finite, table, kernel, sigma, rij=rij, e_mean=e_mean, anchor=anchor
    )


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
    out[:, _SKEW_ROWS, 3 + _SKEW_COLS] = upper[:, _SKEW_FROM] * _SKEW_SIGN
    out[:, 3 + _SKEW_ROWS, _SKEW_COLS] = lower[:, _SKEW_FROM] * _SKEW_SIGN
    out[:, 3:, 3:] = corner[:, None, None] * np.eye(3)
    return out


# the off-diagonal entries of [v]x = [[0, -v2, v1], [v2, 0, -v0], [-v1, v0, 0]]: row, column, +-v[from]
_SKEW_ROWS, _SKEW_COLS = np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 0, 2, 0, 1])
_SKEW_FROM, _SKEW_SIGN = np.array([2, 1, 2, 0, 1, 0]), np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _world_moment(ra, local, rb, ua, tb, ta, sb) -> np.ndarray:
    """sum alpha (R_a x + t_a)(R_b z + t_b)^T from the local moment
    sum alpha x z^T, with ua = R_a sum alpha x and sb = sum alpha (R_b z + t_b):
    R_a local R_b^T + ua t_b^T + t_a sb^T."""
    outer = ua[:, :, None] * tb[:, None, :] + ta[:, :, None] * sb[:, None, :]
    return ra @ local @ np.swapaxes(rb, 1, 2) + outer


def _assemble(problem: Problem, state: PoseState, curvature: bool = False):
    """Exact gradient and the (4C, 6, 6) blocks of H at a finite PoseState
    evaluated for the problem: H_ii, H_jj, H_ij, H_ji of each constraint
    (i, j) in turn; _Pattern places them.

    A match with alpha = 2 w rho'(s) has world points y_i = T_i p, y_j = T_j q,
    residual e = y_i - y_j = R_i e_i and Jacobians J_i = [-[y_i]x, I] and
    J_j = [[y_j]x, -I]; it adds J^T alpha e to each pose's gradient and
    alpha J_a^T J_b to block (a, b) of H. Nothing here is formed per match in
    the world frame. Summed over a constraint, the gradient of pose i is
    [w, E] with E = sum alpha e = R_i sum alpha e_i and
    w = sum alpha y_i x e = R_i (sum alpha p x e_i) + t_i x E; pose j gets
    -[w, E], as y_j x e = y_i x e. The sum of p x e_i is the antisymmetric
    part of the local moment sum alpha p e_i^T, never a difference of large
    world moments. The local moments come from _local_moments, per match
    under the cauchy kernel and in O(C) under the squared kernel. The H
    blocks depend only on the world moments a0 = sum
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
    i, j = table.pairs[:, 0], table.pairs[:, 1]
    ri, rj, ti, tj = state.rots[i], state.rots[j], state.trans[i], state.trans[j]
    m = _local_moments(problem, state, curvature)

    e_sum = np.einsum("cab,cb->ca", ri, m.e)  # E
    g = np.hstack([np.einsum("cab,cb->ca", ri, m.cross) + np.cross(ti, e_sum), e_sum])
    grad = np.zeros((len(state), 6))
    np.add.at(grad, i, g)
    np.add.at(grad, j, -g)

    rp, rq = np.einsum("cab,cb->ca", ri, m.p), np.einsum("cab,cb->ca", rj, m.q)
    si, sj = rp + m.a0[:, None] * ti, rq + m.a0[:, None] * tj
    sij = _world_moment(ri, m.pq, rj, rp, tj, ti, sj)
    if curvature:
        c = 0.5 * (si + sj)
        h_ii = h_jj = _block6(_skew_gram(0.5 * (sij + np.swapaxes(sij, 1, 2))), c, -c, m.a0)
    else:
        sii = _world_moment(ri, m.pp, ri, rp, ti, ti, si)
        sjj = _world_moment(rj, m.qq, rj, rq, tj, tj, sj)
        h_ii = _block6(_skew_gram(sii), si, -si, m.a0)
        h_jj = _block6(_skew_gram(sjj), sj, -sj, m.a0)
    h_ij = _block6(-_skew_gram(sij), -si, sj, -m.a0)
    return grad.reshape(-1), np.concatenate([h_ii, h_jj, h_ij, np.swapaxes(h_ij, 1, 2)])


class _Moments(NamedTuple):
    """The local moments of each constraint's matches that _assemble reads,
    with alpha = 2 w rho'(s): a0 = sum alpha, p = sum alpha p, q = sum alpha q,
    e = sum alpha e_i, cross = sum alpha p x e_i, pq = X = sum alpha p q^T,
    and P = sum alpha p p^T and Q = sum alpha q q^T (None with curvature)."""

    a0: np.ndarray
    p: np.ndarray
    q: np.ndarray
    e: np.ndarray
    cross: np.ndarray
    pq: np.ndarray
    pp: np.ndarray | None
    qq: np.ndarray | None


def _local_moments(problem: Problem, state: PoseState, curvature: bool) -> _Moments:
    """The local moments at the state, per match under the cauchy kernel and
    from the table's fixed moments under the squared kernel, whose alpha = 2 w
    is constant within each constraint. There, with the centred moments of
    MatchMoments, sum alpha e_i = a0 e_mean and sum alpha p e_i^T =
    2 w (P~ - X~ R_ij^T + k p_mean e_mean^T), whose antisymmetric part leaves
    out the symmetric P~; sum alpha p q^T = 2 w (X~ + k p_mean q_mean^T), and
    P and Q alike."""
    table = problem.table
    if problem.kernel != KERNEL_SQUARED:
        alpha = 2.0 * problem.weights[table.seg] * _drho(state.s, problem.kernel, problem.sigma)
        # on ones, each operator gives its row sums, sum alpha p or sum alpha q
        alpha_p, alpha_q = table.outer_operator(alpha, table.p), table.outer_operator(alpha, table.q)
        ones = np.ones(len(table))
        pe = alpha_p(state.ei)
        return _Moments(
            table.segment_sum(alpha), alpha_p(ones), alpha_q(ones), table.segment_sum(state.ei, alpha),
            pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]], alpha_p(table.q),
            None if curvature else alpha_p(table.p), None if curvature else alpha_q(table.q),
        )

    moments = table.moments
    w2, k = 2.0 * problem.weights, table.sizes
    a0 = w2 * k

    def second(centred, a, b):
        """2 w (4^exponent centred + k a b^T), the sum of alpha a' b'^T over the matches."""
        outer = k[:, None, None] * a[:, :, None] * b[:, None, :]
        return w2[:, None, None] * (moments.unscale(centred) + outer)

    # sum p e_i^T without P~, whose antisymmetric part is zero
    pe = second(-moments.pq @ np.swapaxes(state.rij, 1, 2), moments.p_mean, state.e_mean)
    return _Moments(
        a0, a0[:, None] * moments.p_mean, a0[:, None] * moments.q_mean, a0[:, None] * state.e_mean,
        pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]],
        second(moments.pq, moments.p_mean, moments.q_mean),
        None if curvature else second(moments.pp, moments.p_mean, moments.p_mean),
        None if curvature else second(moments.qq, moments.q_mean, moments.q_mean),
    )


# entries of a 6x6 block of H that are not zero by construction, in row-major order; the
# layout is symmetric, so an H_ji block has the same one as H_ij
_BLOCK_ENTRIES = np.flatnonzero(_block6(np.ones((1, 3, 3)), np.ones((1, 3)), np.ones((1, 3)), np.ones(1)))
_ENTRY_ROWS, _ENTRY_COLS = np.divmod(_BLOCK_ENTRIES, 6)
_COLUMN_COUNTS = np.bincount(_ENTRY_COLS, minlength=6)  # entries in each column of the layout
# each entry's rank among the layout's entries in its column, and the entries on the diagonal
_ROW_RANKS = np.array([np.count_nonzero(_ENTRY_COLS[:k] == c) for k, c in enumerate(_ENTRY_COLS)])
_DIAGONAL_ENTRIES = np.searchsorted(_BLOCK_ENTRIES, 7 * np.arange(6))


def _pose_order(pairs: np.ndarray, num_poses: int) -> np.ndarray:
    """Position of each free dof in SuperLU's minimum-degree order of the free
    poses' graph, each pose's six dofs together (Square Root SAM, Dellaert &
    Kaess, IJRR 2006): perm_c of the graph's Laplacian plus I, factored by
    scipy's splu rather than the module global, as it is no LM factorization.
    The gauge is pose 0, so free pose k is numbered k - 1."""
    i, j = (pairs[(pairs > 0).all(axis=1)] - 1).T
    coupled = csc_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])), shape=(num_poses - 1,) * 2)
    perm = sparse_linalg.splu(
        diags(1.0 + coupled.sum(axis=0).A1, format="csc") - coupled, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    ).perm_c
    return (6 * perm[:, None] + np.arange(6)).ravel()


class _Structure(NamedTuple):
    """One compressed sparse column (CSC) system of a _Pattern: the slot of
    each entry of _BLOCK_ENTRIES in each of _assemble's blocks (a spare
    slot, len(indices), for a block the system leaves out), the slot of each
    diagonal entry, and the index arrays."""

    slot: np.ndarray  # (4C, 24)
    diagonal: np.ndarray  # (n,)
    indices: np.ndarray  # int32
    indptr: np.ndarray  # int32


def _structure(rows: np.ndarray, cols: np.ndarray, present: np.ndarray, size: int) -> _Structure:
    """The CSC structure over `size` free poses of the blocks where present
    is true, block b at block row rows[b] and block column cols[b], and of
    every diagonal entry. The blocks are ranked by one np.unique over their
    keys. In the column of block column B that holds layout column c, every
    block of B stores _COLUMN_COUNTS[c] entries, in the blocks' row order,
    so an entry's slot follows from its block's rank in B and its row's
    fixed rank in c. A pose that no present block couples stores only its
    six diagonal entries."""
    off = present & (rows != cols)
    keys, key = np.unique(
        np.concatenate([cols[off] * size + rows[off], np.arange(size) * (size + 1)]), return_inverse=True
    )
    diagonal_keys = key[off.sum() :]
    block_cols, block_rows = np.divmod(keys, size)
    starts = np.searchsorted(block_cols, np.arange(size + 1))  # each block column's first key
    coupled = np.zeros(size, dtype=bool)
    coupled[rows[present]] = True  # a present pair places a block on each free pose's diagonal
    counts = np.where(coupled[:, None], np.diff(starts)[:, None] * _COLUMN_COUNTS, 1)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    rank = np.arange(len(keys)) - starts[block_cols]
    # each key's 24 slots, meant only for the keys in coupled poses' block columns, then the spare's
    first = indptr[6 * block_cols[:, None] + _ENTRY_COLS] + rank[:, None] * _COLUMN_COUNTS[_ENTRY_COLS] + _ROW_RANKS
    first = np.concatenate([first, np.full((1, len(_BLOCK_ENTRIES)), indptr[-1])])
    diagonal = np.where(np.repeat(coupled, 6), first[diagonal_keys][:, _DIAGONAL_ENTRIES].ravel(), indptr[:-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    filled = coupled[block_cols]
    indices[first[:-1][filled]] = 6 * block_rows[filled, None] + _ENTRY_ROWS
    indices[diagonal] = np.arange(6 * size)
    block_key = np.where(present, diagonal_keys[np.maximum(rows, 0)], len(keys))
    block_key[off] = key[: off.sum()]
    slot = first[block_key]
    return _Structure(slot, diagonal, indices, indptr)


class _Pattern:
    """Where every block entry lands in the compressed sparse column (CSC)
    matrices of a damped system over the free dofs, those of every pose but
    pose 0, the gauge, which LM holds fixed. The pattern is fixed by the
    constraint pairs and ordered by the kept ones. It holds two structures
    (_structure), built once by 6x6 pose blocks: `full`, of every pair, and
    `subgraph`, of the kept pairs alone, which stores no entry where only
    the other pairs' blocks land, as SuperLU's fill follows the stored
    entries. Each LM trial refills both, and PCG multiplies by the full
    system, which a miss factors. The order, fixed when the pattern is
    built, is _pose_order's pose-level minimum degree of the kept pairs'
    graph: free dof k, entry 6 + k of a 6N vector, sits at position pos[k].
    The gauge's rows and columns are left out and each diagonal slot is
    present."""

    def __init__(self, pairs: np.ndarray, num_poses: int, kept: np.ndarray):
        i, j = pairs[:, 0], pairs[:, 1]
        self.kept = kept
        self.pos = _pose_order(pairs[kept], num_poses)
        place = np.concatenate([[-1], self.pos[::6] // 6])  # each pose's block position; the gauge has none
        rows, cols = place[np.concatenate([i, j, i, j])], place[np.concatenate([i, j, j, i])]
        placed = (rows >= 0) & (cols >= 0)
        self.full = _structure(rows, cols, placed, num_poses - 1)
        self.subgraph = _structure(rows, cols, placed & np.tile(kept, 4), num_poses - 1)
        self.shape = (len(self.pos), len(self.pos))

    def matrix(self, blocks: np.ndarray, damping: float, subgraph: bool = False) -> csc_matrix:
        """The system H + damping I over the free dofs, from _assemble's
        blocks; with subgraph, over the kept pairs only. One bincount fills
        the structure's slots, and the blocks it leaves out go to the spare."""
        structure = self.subgraph if subgraph else self.full
        values = blocks.reshape(len(blocks), 36)[:, _BLOCK_ENTRIES]
        spare = len(structure.indices)
        data = np.bincount(structure.slot.ravel(), weights=values.ravel(), minlength=spare + 1)[:spare]
        data[structure.diagonal] += damping
        return csc_matrix((data, structure.indices, structure.indptr), shape=self.shape)

    def take(self, vector: np.ndarray) -> np.ndarray:
        """A full 6N vector's free entries, in the pattern's order."""
        out = np.empty(self.shape[0])
        out[self.pos] = vector[6:]
        return out

    def put(self, values: np.ndarray) -> np.ndarray:
        """The 6N vector with the pattern-ordered values on the free dofs, zero on the gauge."""
        out = np.zeros(6 + self.shape[0])
        out[6:] = values[self.pos]
        return out


# the last pattern built for each table, freed with its table
_patterns: weakref.WeakKeyDictionary[MatchTable, _Pattern] = weakref.WeakKeyDictionary()


def _kept_pattern(table: MatchTable, num_poses: int, kept: np.ndarray) -> _Pattern:
    """The pattern of the table's pairs over num_poses poses in the order of
    the kept pairs' subgraph. The table's last pattern is
    returned again for the same pose count and kept mask, as the M-steps of
    an EM run mostly ask for; any other builds a new one, which replaces it."""
    pattern = _patterns.pop(table, None)
    if pattern is None or len(pattern.pos) != 6 * num_poses - 6 or not np.array_equal(pattern.kept, kept):
        del pattern  # the old pattern is freed before its successor is built
        pattern = _Pattern(table.pairs, num_poses, kept)
    _patterns[table] = pattern
    return pattern


def _factor(system: csc_matrix):
    """SuperLU's factor of a damped system from _Pattern.matrix, in
    symmetric mode with pivots on the diagonal; a zero pivot raises
    RuntimeError. SuperLU keeps the pattern's own pose-level order
    (NATURAL): with one pattern per kept set, PCG multiplies by the matrix a
    miss factors, in the order the subgraph's factor has. The order keeps
    each pose's six dofs together, so supernodes are sized to those blocks:
    relaxed supernodes of at most 3 columns and panels of 6. SuperLU's
    wider default relaxation stores explicit zeros around the pose blocks,
    so its factors hold more nonzeros and take longer."""
    return splu(
        system, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=3, panel_size=6,
        options={"SymmetricMode": True},
    )


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


def _step(pattern: _Pattern, blocks: np.ndarray, grad: np.ndarray, damping: float):
    """One trial step: the solution of (H + damping I) step = -grad over the
    free dofs, with H over all constraints, as a 6N vector that is zero on
    the gauge, or None when a zero pivot of the full system rejects the
    trial; with the PCG iterations taken and whether it fell back.

    Subgraph preconditioning (Dellaert et al., IROS 2010): only the pattern's
    kept pairs are factored, and PCG with that factor recovers the step of
    the full system, which it multiplies by in the same order, so the
    right-hand side is taken into that order once and the step put back
    once. A PCG miss, or a zero pivot in the subgraph's factor, falls back
    to factoring the full system."""
    system, rhs = pattern.matrix(blocks, damping), pattern.take(-grad)
    solution, iterations = None, 0
    try:
        factor = _factor(pattern.matrix(blocks, damping, subgraph=True))
    except RuntimeError:
        pass
    else:
        solution, iterations = _pcg(system.dot, factor.solve, rhs)
        del factor  # freed before a fallback factors the full system
    if solution is not None:
        return pattern.put(solution), iterations, False
    try:
        solution = _factor(system).solve(rhs)
    except RuntimeError:
        return None, iterations, True
    return pattern.put(solution), iterations, True


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


def solve(problem: Problem, state: PoseState) -> tuple[PoseState, SolverReport]:
    """Minimize the problem's objective over every pose but pose 0.

    Levenberg-Marquardt trust strategy: damping starts at DAMPING_INIT, x10
    on a rejected step, x0.5 on acceptance, clamped to [DAMPING_MIN,
    DAMPING_MAX]; a step is accepted only if it strictly decreases the
    objective, so the objective sequence over accepted steps is
    non-increasing. H is the Gauss-Newton approximation until an accepted
    step lowers the objective by less than CURVATURE_SWITCH relative; from
    then on it also holds the residual-curvature term (see _assemble), for
    the rest of the solve. The solve ends "gradient" when the max-norm of the
    gradient over the free dofs is below GRADIENT_TOL, and "max_iterations"
    after MAX_INNER_ITERS accepted steps. A trial within OBJECTIVE_TOL
    (relative) of the current objective ends it untaken: "objective" if it
    is lower, "stalled" if not. The solve also stalls when the damping passes
    DAMPING_MAX. Each LM pass, the capped one too, assembles at the poses it
    holds, so a solve assembles once more than it accepts steps and reports
    the last gradient, at the returned poses.

    Under the squared kernel each trial is evaluated in O(C) from the start
    state's anchor (_evaluate), and a solve that accepts a step evaluates its
    end poses per match once more: the objective_end and errors it reports,
    and the state it returns, are then those of any per-match evaluation of
    the returned poses, bit for bit.

    The start state must be evaluated for the problem's table, kernel and
    sigma (em.evaluate_poses; else ValueError). It is weighed, not evaluated
    again, and the solve returns the PoseState LM last accepted (the start
    state when no step is taken). The solve drops its reference to the start
    state at its first accepted step.
    """
    if not len(state):
        raise ValueError("no pose to hold fixed")
    if not state.fits(problem):
        raise ValueError("the pose state is evaluated for another table, kernel or sigma than the problem")
    if not state.finite:
        raise _nonfinite(state)
    objective = objective_start = problem.objective(state)

    if len(state) == 1:
        return state, SolverReport(0, objective_start, objective, "gradient", 0.0, state.errors)

    kept = problem.weights * problem.table.sizes >= SUBGRAPH_POSTERIOR  # the subgraph's constraints
    pattern = _kept_pattern(problem.table, len(state), kept)
    damping = DAMPING_INIT
    accepted = factorizations = curvature_steps = pcg_iterations = fallbacks = 0
    termination = ""
    objective_path = []
    curvature = False

    while not termination:
        grad, blocks = _assemble(problem, state, curvature)
        gradient_norm = float(np.abs(grad[6:]).max())
        if gradient_norm < GRADIENT_TOL:
            termination = "gradient"
            break
        if accepted >= MAX_INNER_ITERS:
            termination = "max_iterations"
            break

        while True:
            factorizations += 1
            step, iterations, fell_back = _step(pattern, blocks, grad, damping)
            pcg_iterations += iterations
            fallbacks += fell_back
            trial_objective = math.inf
            if step is not None and np.isfinite(step).all():
                trial = _evaluate(problem, *_retract_all(state.quats, state.trans, step, 0), state.anchor)
                trial_objective = problem.objective(trial)

            # a trial this close to the objective is at the floor of its float
            # precision: neither it nor a more damped one tells a decrease
            if abs(trial_objective - objective) <= OBJECTIVE_TOL * max(abs(objective), 1e-300):
                termination = "objective" if trial_objective < objective else "stalled"
                break
            if trial_objective < objective:
                state = trial
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

    if accepted and problem.kernel == KERNEL_SQUARED:
        # the sums of an accepted trial are anchored at the start: the state
        # returned is evaluated per match, so its objective and errors are the
        # ones any evaluation of the returned poses gives, bit for bit
        state = _evaluate(problem, state.quats, state.trans)
        objective = problem.objective(state)
    report = SolverReport(
        accepted, objective_start, objective, termination, gradient_norm, state.errors,
        objective_path, factorizations, curvature_steps, pcg_iterations, fallbacks,
    )
    return state, report
