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
pose 0, and each LM trial only refills the values. Each trial solves the
damped system by subgraph preconditioning (Dellaert et al., IROS 2010,
Subgraph-preconditioned conjugate gradients for large scale SLAM). A loop
whose posterior is below SUBGRAPH_POSTERIOR adds next to nothing to H, but
its pose pair spans the graph and drives the fill-in of a sparse factor. So
only the odometry and the weighted loops are factored, and preconditioned
conjugate gradients (PCG) with that factor recover the step of the full
system, which is never factored. The subgraph is a ring of odometry knit by
revisits, which reverse Cuthill-McKee orders into a narrow band: where the
band stores at most BAND_FILL_RATIO times the fill of a minimum-degree
factor (_pose_order), LAPACK's banded Cholesky factors it (_band_factor),
and elsewhere SuperLU does (_factor). A trial gets no step from a band that
is not positive definite, a zero pivot in SuperLU's factor or a PCG miss (a
direction of non-positive curvature, a value that is not finite, or no
convergence within PCG_MAX_ITERS). In the curvature phase, whose H may be
indefinite, such a trial is redone at the same damping with the
Gauss-Newton H at the same poses, whose damped matrix is positive definite.
A trial that still gets no step is rejected, as the strict-decrease test
rejects an uphill step. The poses stay in (N, 4) quaternion and (N, 3)
translation arrays while LM runs, each pose state with
its weight-free evaluation (PoseState), which EM hands from one M-step to
the next.

What is formed how often: once per table, its segment ids, sum operators,
moments and last _Pattern; once per solve, on first use by its Problem,
whose weights are a read-only copy, the cauchy kernel's per-match 2 w, the
squared kernel's weight-only local moments and the gradient's scatter slots;
once per pose state, at each LM pass, the rest of the local moments and
_assemble's gradient and H, written straight into the 24 layout entries of
each 6x6 block that _Pattern.matrix fills from (no dense block is formed),
and in the curvature phase, on the first trial that gets no step, the
Gauss-Newton H at the same state; once per trial, and once more for a redo,
the subgraph's system and the full system, each filled by one bincount into
its structure's slots (_Pattern.matrix), the subgraph's factor and PCG; once
per trial that gets a step, its evaluation. Stacked 3x3 products take
C-contiguous operands, on which numpy's matmul is fastest.

`robustpgo check-grad` checks _assemble's gradient and H against finite
differences of _evaluate under _retract_all, the functions LM itself calls.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csc_matrix, diags, linalg as sparse_linalg
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from . import se3
from .model import Hyperparams, MatchMoments, MatchTable, PosteriorState, ProblemGraph

KERNEL_CAUCHY = "cauchy"  # rho(s) = ln(1 + s / sigma^2), the cauchy mode's kernel
KERNEL_SQUARED = "gaussian"  # rho(s) = s, the gaussian mode's kernel

MAX_INNER_ITERS = 100
GRADIENT_TOL = 1e-8
OBJECTIVE_TOL = 1e-10
CURVATURE_SWITCH = 1e-5  # an accepted step's relative drop below which H gains the curvature term
SUBGRAPH_POSTERIOR = 1e-6  # a loop's posterior below which the preconditioner leaves it out
PCG_TOL = 1e-13  # residual, relative to the right-hand side, at which PCG returns the step
PCG_MAX_ITERS = 20  # PCG iterations after which PCG misses and the trial is rejected
BAND_FILL_RATIO = 3.0  # (b + 1) n' / fill at or below which the subgraph is factored as a band
DAMPING_INIT = 1e-4
DAMPING_MIN = 1e-12
DAMPING_MAX = 1e8


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class Problem:
    """The objective over a match table: every match of constraint c adds
    weights[c] * rho(s). Its length is the match count. The weights are held
    as a read-only float copy, as what a solve forms from them once
    (_match_alpha, _fixed_moments) must stay theirs."""

    table: MatchTable
    weights: np.ndarray  # (C,) per-match weight of each constraint
    kernel: str
    sigma: float = 1.0

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.table)

    @cached_property
    def _match_alpha(self) -> np.ndarray:
        """(M,) 2 w of each match's constraint: under the cauchy kernel, the
        part of alpha = 2 w rho'(s) that the weights fix."""
        return 2.0 * self.weights[self.table.seg]

    @cached_property
    def _fixed_moments(self) -> _Moments:
        """The squared kernel's local moments that the weights alone fix, with
        alpha = 2 w constant within each constraint: a0, p, q, pq, pp and qq
        (e and cross, which the poses move, are None)."""
        moments = self.table.moments
        a0 = 2.0 * self.weights * self.table.sizes
        return _Moments(
            a0, a0[:, None] * moments.p_mean, a0[:, None] * moments.q_mean, None, None,
            _squared_moment(self, moments.pq, moments.p_mean, moments.q_mean),
            _squared_moment(self, moments.pp, moments.p_mean, moments.p_mean),
            _squared_moment(self, moments.qq, moments.q_mean, moments.q_mean),
        )

    @cached_property
    def _gradient_slots(self) -> np.ndarray:
        """(12C,) the entry of a 6N gradient that each entry of the (2C, 6)
        stack of the constraints' pose-i terms, then pose-j terms, adds to."""
        return (6 * self.table.pairs.T.reshape(-1, 1) + np.arange(6)).ravel()

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
    factorizations: int = 0  # systems factored, one per LM trial and one per Gauss-Newton redo
    curvature_steps: int = 0  # accepted steps whose H held the residual-curvature term
    pcg_iterations: int = 0  # PCG iterations over all trials and redos
    # trials rejected with no step (band not positive definite, zero pivot or PCG miss), after any redo
    misses: int = 0
    redos: int = 0  # curvature trials with no step redone with the Gauss-Newton H


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
        huge = np.isinf(ratio)
        if huge.any():
            huge &= np.isfinite(s)
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
    s = table.frame_residuals(state.rots, state.trans).s
    m = int(np.argmin(np.isfinite(s)))
    c = int(table.seg[m])
    i, j = table.pairs[c]
    k = m - int(table.offsets[c])
    return SolverError(f"non-finite residual in constraint {c} (i={i}, j={j}, match {k})")


def _relative_quats(table: MatchTable, quats: np.ndarray) -> np.ndarray:
    """(C, 4) each constraint's relative rotation R_i^T R_j as a quaternion."""
    i, j = table.pairs[:, 0], table.pairs[:, 1]
    return se3.quat_mul(quats[i] * se3.CONJUGATE, quats[j])


def _anchored_sums(table: MatchTable, anchor: _Anchor, quats: np.ndarray, e_mean: np.ndarray) -> np.ndarray:
    """Each constraint's sum of |e_i|^2 = S0 + 2 tr((I - D) K0) + k |e_mean|^2,
    where D = R_ij R0^T has the quaternion (w, v): with I - D =
    2 |v|^2 I - 2 v v^T - 2 w [v]x, the middle term is
    4 (|v|^2 tr K0 - v^T K0 v - w v . kappa0). It is exact where D = I and
    small near it, so no large moment cancels, unlike tr P~ + tr Q~ -
    2 tr(R_ij X~^T). K0 is held scaled as the table's moments are."""
    d = se3.quat_mul(_relative_quats(table, quats), anchor.quat * se3.CONJUGATE)
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
        ei, s, rij, tij = table.frame_residuals(rots, trans)
        # a kernel value past the float range is inf, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sums = table.segment_sum(_rho(s, kernel, sigma))
        finite = bool(np.isfinite(s).all())
        if kernel != KERNEL_SQUARED:
            return PoseState(quats, trans, rots, sums, finite, table, kernel, sigma, ei=ei, s=s)
    else:
        rij, tij = table.relative_poses(rots, trans)

    moments = table.moments
    with np.errstate(over="ignore", invalid="ignore"):
        e_mean = moments.p_mean - np.einsum("cab,cb->ca", rij, moments.q_mean) - tij
        if anchor is None:
            centred = ei - np.repeat(e_mean, table.sizes, axis=0)  # p~ - R_ij q~
            k0 = _turned_cross(rij, moments)
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


# entries of a 6x6 block of H that are not zero by construction, [[gram, [upper]x],
# [[lower]x, corner I]], in row-major order; the layout is symmetric
_BLOCK_ENTRIES = np.flatnonzero(np.block([[np.ones((3, 3)), 1.0 - np.eye(3)], [1.0 - np.eye(3), np.eye(3)]]))
_ENTRY_ROWS, _ENTRY_COLS = np.divmod(_BLOCK_ENTRIES, 6)
_TRANSPOSED = np.searchsorted(_BLOCK_ENTRIES, 6 * _ENTRY_COLS + _ENTRY_ROWS)  # a block's transpose's entries
_COLUMN_COUNTS = np.bincount(_ENTRY_COLS, minlength=6)  # entries in each column of the layout
# each entry's rank among the layout's entries in its column, and the entries on the diagonal
_ROW_RANKS = np.array([np.count_nonzero(_ENTRY_COLS[:k] == c) for k, c in enumerate(_ENTRY_COLS)])
_DIAGONAL_ENTRIES = np.searchsorted(_BLOCK_ENTRIES, 7 * np.arange(6))
# each part's layout entries: gram's off its diagonal (-S^T, from S's flat _GRAM_SOURCE) and on it;
# [upper]x's and [lower]x's, sign * v[source] as [v]x = [[0, -v2, v1], [v2, 0, -v0], [-v1, v0, 0]]; corner's
_GRAM_OFF, _GRAM_SOURCE, _GRAM_DIAGONAL = [1, 2, 5, 7, 10, 11], [3, 6, 1, 7, 2, 5], [0, 6, 12]
_UPPER, _LOWER, _CORNER = [3, 4, 8, 9, 13, 14], [15, 16, 18, 19, 21, 22], [17, 20, 23]
_SKEW_SOURCE, _SKEW_SIGN = [2, 1, 2, 0, 1, 0], np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _block_entries(moment, upper, lower, corner) -> np.ndarray:
    """The (n, 24) _BLOCK_ENTRIES of the 6x6 blocks [[gram, [upper]x], [[lower]x, corner I]]
    with gram = sum alpha [a]x^T [b]x = tr(S) I - S^T from the moments S = sum alpha a b^T
    (moment), each diagonal entry summed from the other two diagonal moments rather than
    as tr(S) - S_kk, so no large term cancels."""
    flat = moment.reshape(len(moment), 9)
    out = np.empty((len(moment), len(_BLOCK_ENTRIES)))
    out[:, _GRAM_OFF] = -flat[:, _GRAM_SOURCE]
    out[:, _GRAM_DIAGONAL] = flat[:, [4, 0, 0]] + flat[:, [8, 8, 4]]
    out[:, _UPPER] = upper[:, _SKEW_SOURCE] * _SKEW_SIGN
    out[:, _LOWER] = lower[:, _SKEW_SOURCE] * _SKEW_SIGN
    out[:, _CORNER] = corner[:, None]
    return out


def _world_moment(ra, local, rb_t, ua, tb, ta, sb) -> np.ndarray:
    """sum alpha (R_a x + t_a)(R_b z + t_b)^T from the local moment
    sum alpha x z^T, with rb_t a C-contiguous R_b^T, ua = R_a sum alpha x and
    sb = sum alpha (R_b z + t_b): R_a local R_b^T + ua t_b^T + t_a sb^T."""
    outer = ua[:, :, None] * tb[:, None, :] + ta[:, :, None] * sb[:, None, :]
    return ra @ local @ rb_t + outer


def _turned_cross(rij: np.ndarray, moments: MatchMoments) -> np.ndarray:
    """R_ij X~^T / 4^exponent per constraint, from C-contiguous operands; its transpose is X~ R_ij^T."""
    return rij @ moments.qp


def _assemble(problem: Problem, state: PoseState, curvature: bool = False):
    """Exact gradient and H at a finite PoseState evaluated for the problem,
    H as the (4C, 24) _BLOCK_ENTRIES of its 6x6 blocks H_ii, H_jj, H_ij, H_ji
    of each constraint (i, j) in turn, the layout _Pattern.matrix fills from.

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
    rj_t = np.swapaxes(rj, 1, 2).copy()  # C-contiguous, as is each operand of a stacked product here
    m = _local_moments(problem, state, curvature)

    e_sum = np.einsum("cab,cb->ca", ri, m.e)  # E
    g = np.hstack([np.einsum("cab,cb->ca", ri, m.cross) + se3.cross(ti, e_sum), e_sum])
    # one bincount adds the terms in the order two np.add.at would: pose i's, then pose j's
    grad = np.bincount(problem._gradient_slots, weights=np.concatenate([g, -g]).ravel(), minlength=6 * len(state))

    rp, rq = np.einsum("cab,cb->ca", ri, m.p), np.einsum("cab,cb->ca", rj, m.q)
    si, sj = rp + m.a0[:, None] * ti, rq + m.a0[:, None] * tj
    sij = _world_moment(ri, m.pq, rj_t, rp, tj, ti, sj)
    # the diagonal block kinds, then H_ij, whose gram is that of -S, C rows each
    # into one _block_entries call; with curvature H_ii and H_jj are one block
    if curvature:
        c = 0.5 * (si + sj)
        moments, uppers, lowers, corners = [0.5 * (sij + np.swapaxes(sij, 1, 2))], [c], [-c], [m.a0]
    else:
        sii = _world_moment(ri, m.pp, np.swapaxes(ri, 1, 2).copy(), rp, ti, ti, si)
        sjj = _world_moment(rj, m.qq, rj_t, rq, tj, tj, sj)
        moments, uppers, lowers, corners = [sii, sjj], [si, sj], [-si, -sj], [m.a0, m.a0]
    kinds = _block_entries(
        np.concatenate([*moments, -sij]), np.concatenate([*uppers, -si]), np.concatenate([*lowers, sj]),
        np.concatenate([*corners, -m.a0]),
    )
    h_ij = len(kinds) - len(sij)  # the first row of H_ij
    diagonal = [kinds[:h_ij]] * (2 if curvature else 1)
    return grad, np.concatenate([*diagonal, kinds[h_ij:], kinds[h_ij:, _TRANSPOSED]])  # H_ji = H_ij^T


class _Moments(NamedTuple):
    """The local moments of each constraint's matches that _assemble reads,
    with alpha = 2 w rho'(s): a0 = sum alpha, p = sum alpha p, q = sum alpha q,
    e = sum alpha e_i, cross = sum alpha p x e_i, pq = X = sum alpha p q^T,
    and P = sum alpha p p^T and Q = sum alpha q q^T (not read with
    curvature, and under the cauchy kernel then None)."""

    a0: np.ndarray
    p: np.ndarray
    q: np.ndarray
    e: np.ndarray
    cross: np.ndarray
    pq: np.ndarray
    pp: np.ndarray | None
    qq: np.ndarray | None


def _squared_moment(problem: Problem, centred: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2 w (4^exponent centred + k a b^T): under the squared kernel, the sum
    of alpha a' b'^T over each constraint's matches, from a centred moment
    held scaled as the table's moments are and the means a and b."""
    k = problem.table.sizes
    outer = k[:, None, None] * a[:, :, None] * b[:, None, :]
    return (2.0 * problem.weights)[:, None, None] * (problem.table.moments.unscale(centred) + outer)


def _local_moments(problem: Problem, state: PoseState, curvature: bool) -> _Moments:
    """The local moments at the state, per match under the cauchy kernel and
    from the table's fixed moments under the squared kernel, whose alpha = 2 w
    is constant within each constraint. There, with the centred moments of
    MatchMoments, sum alpha e_i = a0 e_mean and sum alpha p e_i^T =
    2 w (P~ - X~ R_ij^T + k p_mean e_mean^T), whose antisymmetric part leaves
    out the symmetric P~; sum alpha p q^T = 2 w (X~ + k p_mean q_mean^T), and
    P and Q alike. Those last and a0, sum alpha p and sum alpha q depend on
    the weights alone, so each solve forms them once (Problem._fixed_moments)."""
    table = problem.table
    if problem.kernel != KERNEL_SQUARED:
        alpha = problem._match_alpha * _drho(state.s, problem.kernel, problem.sigma)
        # on ones, each operator gives its row sums, sum alpha p or sum alpha q
        alpha_p, alpha_q = table.outer_operator(alpha, table.p), table.outer_operator(alpha, table.q)
        pe = alpha_p(state.ei)
        return _Moments(
            table.segment_sum(alpha), alpha_p(table.ones), alpha_q(table.ones), table.segment_sum(state.ei, alpha),
            pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]], alpha_p(table.q),
            None if curvature else alpha_p(table.p), None if curvature else alpha_q(table.q),
        )

    moments, fixed = table.moments, problem._fixed_moments
    # sum p e_i^T without P~, whose antisymmetric part is zero
    turned = np.swapaxes(_turned_cross(state.rij, moments), 1, 2)
    pe = _squared_moment(problem, -turned, moments.p_mean, state.e_mean)
    return fixed._replace(
        e=fixed.a0[:, None] * state.e_mean, cross=pe[:, [1, 2, 0], [2, 0, 1]] - pe[:, [2, 0, 1], [1, 2, 0]]
    )


def _pose_order(pairs: np.ndarray, num_poses: int) -> tuple[np.ndarray, int | None]:
    """The order a pattern of the pairs factors in, by whole poses (Square
    Root SAM, Dellaert & Kaess, IJRR 2006), as (pos, bandwidth): free dof k,
    entry 6 + k of a 6N vector, sits at position pos[k], each pose's six
    dofs together, and bandwidth is the pose bandwidth of pos when it is a
    band, else None. The gauge is pose 0, so free pose k is numbered k - 1.

    Two orders of the free poses' graph are formed: SuperLU's minimum degree,
    perm_c of the graph's Laplacian plus I, factored by scipy's splu rather
    than the module global, as it is no LM factorization, with the fill
    nnz(L) + nnz(U) of that factor; and reverse Cuthill-McKee (Cuthill &
    McKee 1969), whose bandwidth b is the largest distance in it between two
    coupled poses. A band of n' free poses stores (b + 1) n' pose blocks, and
    the RCM order is taken when that is at most BAND_FILL_RATIO times the
    fill: a ring knit by revisits orders into a narrow band, a graph of long
    chords does not; else the minimum-degree order is."""
    i, j = (pairs[(pairs > 0).all(axis=1)] - 1).T
    size = num_poses - 1
    coupled = csc_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])), shape=(size, size))
    lu = sparse_linalg.splu(
        diags(1.0 + coupled.sum(axis=0).A1, format="csc") - coupled, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )
    place = np.empty(size, dtype=np.intp)
    place[reverse_cuthill_mckee(coupled, symmetric_mode=True)] = np.arange(size)
    bandwidth = int(np.abs(place[i] - place[j]).max(initial=0))
    if (bandwidth + 1) * size <= BAND_FILL_RATIO * lu.nnz:
        return (6 * place[:, None] + np.arange(6)).ravel(), bandwidth
    return (6 * lu.perm_c[:, None] + np.arange(6)).ravel(), None


class _Structure(NamedTuple):
    """Where one system of a _Pattern stores its entries: the slot of each
    of _assemble's layout entries, _BLOCK_ENTRIES of each block (a spare slot, one
    past the stored entries, for an entry the system leaves out) and the
    slot of each diagonal entry. A compressed sparse column (CSC) system
    (_structure) also holds its index arrays; a band (_band_slots) has none."""

    slot: np.ndarray  # (4C, 24) int32
    diagonal: np.ndarray  # (n,)
    indices: np.ndarray | None = None  # int32
    indptr: np.ndarray | None = None  # int32


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
    return _Structure(first[block_key].astype(np.int32), diagonal, indices, indptr)


def _band_slots(rows: np.ndarray, cols: np.ndarray, present: np.ndarray, size: int, bandwidth: int) -> _Structure:
    """The structure in LAPACK's lower band storage of a system over `size`
    free poses ordered into a band of pose bandwidth `bandwidth`, of the
    blocks where present is true, block b at block row rows[b] and block
    column cols[b]: the (kd + 1, 6 size) array, with kd = 6 bandwidth + 5,
    held in column-major order, that holds entry (r, c), r >= c, at
    [r - c, c]. Its diagonal slots are the array's row 0. The entries above
    the diagonal, and those of the other blocks, go to the spare slot,
    (kd + 1) 6 size."""
    depth = 6 * bandwidth + 6
    r, c = 6 * rows[:, None] + _ENTRY_ROWS, 6 * cols[:, None] + _ENTRY_COLS
    slot = np.where(present[:, None] & (r >= c), c * depth + r - c, depth * 6 * size)
    return _Structure(slot.astype(np.int32), depth * np.arange(6 * size))


class _Pattern:
    """Where every block entry lands in the matrices of a damped system over
    the free dofs, those of every pose but pose 0, the gauge, which LM holds
    fixed. The pattern is fixed by the constraint pairs and ordered by the
    kept ones. Its order, fixed when it is built, is _pose_order's:
    reverse Cuthill-McKee where the kept pairs' graph orders into a narrow
    band, else the pose-level minimum degree. Free dof k,
    entry 6 + k of a 6N vector, sits at position pos[k]. The gauge's rows
    and columns are left out and each diagonal slot is present.

    It holds two _Structures: `full`, of every pair, the compressed sparse
    column (CSC) structure built once by 6x6 pose blocks (_structure), which
    PCG multiplies by; and `subgraph`, of the kept pairs alone, which each
    trial factors: a band pattern's (bandwidth not None) in LAPACK's lower
    band storage (_band_slots), any other's their own CSC structure, which
    stores no entry where only the other pairs' blocks land, as SuperLU's
    fill follows the stored entries. matrix fills either from the layout
    entries of _assemble's blocks."""

    def __init__(self, pairs: np.ndarray, num_poses: int, kept: np.ndarray):
        self.kept = kept
        self.pos, self.bandwidth = _pose_order(pairs[kept], num_poses)
        self.shape = (len(self.pos), len(self.pos))
        i, j = pairs[:, 0], pairs[:, 1]
        place = np.concatenate([[-1], self.pos[::6] // 6])  # each pose's block position; the gauge has none
        rows, cols = place[np.concatenate([i, j, i, j])], place[np.concatenate([i, j, j, i])]
        placed = (rows >= 0) & (cols >= 0)
        self.full = _structure(rows, cols, placed, num_poses - 1)
        subgraph = (rows, cols, placed & np.tile(kept, 4), num_poses - 1)
        self.subgraph = _structure(*subgraph) if self.bandwidth is None else _band_slots(*subgraph, self.bandwidth)

    def matrix(self, entries: np.ndarray, damping: float, subgraph: bool = False) -> csc_matrix | np.ndarray:
        """The system H + damping I over the free dofs, or with subgraph over
        the kept pairs only, from the (4C, 24) layout entries of _assemble's
        blocks: one bincount fills its structure's slots (the entries it
        leaves out go to the spare), and the damping is added on its
        diagonal slots. A CSC structure gives a csc_matrix, a band the
        column-major (kd + 1, n) array. Each sums a slot's entries in the
        blocks' order, so a band holds the lower triangle of the kept pairs'
        CSC system bit for bit."""
        structure = self.subgraph if subgraph else self.full
        band = structure.indices is None
        size = (6 * self.bandwidth + 6) * self.shape[0] if band else len(structure.indices)
        data = np.bincount(structure.slot.ravel(), weights=entries.ravel(), minlength=size + 1)[:size]
        data[structure.diagonal] += damping
        if band:
            return data.reshape((-1, self.shape[0]), order="F")
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


def _factor(system: csc_matrix) -> Callable[[np.ndarray], np.ndarray] | None:
    """The preconditioner of a damped subgraph system from _Pattern.matrix:
    the solve with SuperLU's factor, in symmetric mode with pivots on the
    diagonal, or None on a zero pivot. It factors the subgraph of a pattern
    that is no band, in the pose-level minimum-degree order. SuperLU keeps
    that order (NATURAL), so PCG's products with the full system and its
    solves with the subgraph's factor share one order. The order keeps each
    pose's six dofs together, so supernodes are sized to those blocks:
    relaxed supernodes of at most 3 columns and panels of 6. SuperLU's wider
    default relaxation stores explicit zeros around the pose blocks, so its
    factors hold more nonzeros and take longer."""
    try:
        lu = splu(
            system, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=3, panel_size=6,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        return None
    return lu.solve


def _band_factor(band: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """The preconditioner of a band pattern's damped subgraph system from
    _Pattern.matrix: the solve (dpbtrs) with LAPACK's banded Cholesky factor
    (dpbtrf), factored in place; None when the band is not positive
    definite, which only the curvature phase's H can make it."""
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    return (lambda rhs: dpbtrs(factor, rhs, lower=1)[0]) if info == 0 else None


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


def _step(pattern: _Pattern, entries: np.ndarray, grad: np.ndarray, damping: float):
    """One trial step: the solution of (H + damping I) step = -grad over the
    free dofs, with H over all constraints, as a 6N vector that is zero on
    the gauge, or None when the trial gets no step; with the PCG iterations
    taken.

    Subgraph preconditioning (Dellaert et al., IROS 2010): only the pattern's
    kept pairs are factored, and PCG with that factor recovers the step of
    the full system, which it multiplies by in the same order, so the
    right-hand side is taken into that order once and the step put back
    once. The subgraph and the full system are each filled from H's layout
    entries, as _assemble returns them, by _Pattern.matrix. A band
    pattern's subgraph is factored as a band (_band_factor), any other's by
    SuperLU (_factor). Either returns the preconditioner PCG applies, or None
    for a band that is not positive definite or a zero pivot in SuperLU's
    factor; that None, or a PCG miss, gives None."""
    subgraph = pattern.matrix(entries, damping, subgraph=True)
    precondition = (_factor if pattern.bandwidth is None else _band_factor)(subgraph)
    if precondition is None:
        return None, 0
    solution, iterations = _pcg(pattern.matrix(entries, damping).dot, precondition, pattern.take(-grad))
    return (None if solution is None else pattern.put(solution)), iterations


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
    the rest of the solve. A curvature-phase trial that gets no step from
    _step is redone at the same damping with the Gauss-Newton H at the
    same state, assembled at most once per LM pass; only a trial that still
    gets no step is rejected as a miss, and an accepted redo is no curvature
    step. The solve ends "gradient" when the max-norm of the
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
    accepted = factorizations = curvature_steps = pcg_iterations = misses = redos = 0
    termination = ""
    objective_path = []
    curvature = False

    while not termination:
        grad, entries = _assemble(problem, state, curvature)
        gradient_norm = float(np.abs(grad[6:]).max())
        if gradient_norm < GRADIENT_TOL:
            termination = "gradient"
            break
        if accepted >= MAX_INNER_ITERS:
            termination = "max_iterations"
            break

        gauss_newton = None  # the Gauss-Newton H at this state, once a curvature trial needs it
        while True:
            factorizations += 1
            step, iterations = _step(pattern, entries, grad, damping)
            pcg_iterations += iterations
            redone = step is None and curvature  # with the Gauss-Newton H, positive definite once damped
            if redone:
                if gauss_newton is None:
                    gauss_newton = _assemble(problem, state)[1]
                factorizations += 1
                redos += 1
                step, iterations = _step(pattern, gauss_newton, grad, damping)
                pcg_iterations += iterations
            misses += step is None
            trial_objective = math.inf
            if step is not None:
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
                curvature_steps += curvature and not redone
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
        objective_path, factorizations, curvature_steps, pcg_iterations, misses, redos,
    )
    return state, report
