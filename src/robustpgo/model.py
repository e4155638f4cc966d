"""Problem data model: fragments, feature-match constraints, and the constraint graph.

A constraint stores its match set as two (k, 3) arrays: row m of `p` lives in
the first fragment's local frame and pairs with row m of `q` in the second
fragment's frame. Graphs are immutable after construction; constraints are
kept in canonical order (odometry by i, loops by (i, j)). A MatchTable stacks
the match sets of many constraints into flat arrays, or shares them where
they already lie one after another in one array; the E-step, theta
learning, the pose solver and the initialization, which fits its odometry
chain at once over a run of the table's rows, all read a graph through the
one table ProblemGraph.table builds. The table evaluates each match in its
constraint's frame i, p - T_i^-1 T_j q, from one relative pose per
constraint, so no match point is carried to the world frame, whose origin
may lie a kilometre or more from the fragments. It also keeps each
constraint's fixed point moments (MatchMoments), from which the squared
kernel's objective, gradient and H follow with no pass over the matches.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from . import se3
from .se3 import Pose


def _as_points(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must be (k, 3), got {out.shape}")
    return out


def _address(a: np.ndarray) -> int:
    """The address of a writable C-contiguous array's data (TypeError for
    any other): ctypes reads it at a third of the cost of `ndarray.ctypes`."""
    return ctypes.addressof((ctypes.c_char * 0).from_buffer(a))


def _stacked(blocks: list[np.ndarray], sizes: np.ndarray) -> np.ndarray:
    """The rows of the (k, 3) float blocks, sizes (C,) their row counts, in
    order, as one array. Where each block is the next run of rows of their
    common base, a writable C-contiguous (K, 3) array, this is a view of
    those rows of the base; otherwise a copy."""
    base = blocks[0].base if blocks else None
    one_base = isinstance(base, np.ndarray) and base.dtype == float and base.shape[1:] == (3,)
    if one_base and all(block.base is base for block in blocks):
        row = 3 * base.itemsize
        try:
            starts = np.array([_address(block) for block in blocks]) - _address(base)
        except TypeError:  # a block or the base is read-only or not C-contiguous
            pass
        else:
            first, within = divmod(int(starts[0]), row)
            if within == 0 and (starts[1:] == starts[:-1] + row * sizes[:-1]).all():
                return base[first : first + sizes.sum()]
    return np.concatenate([np.zeros((0, 3)), *blocks])


class _MatchSet:
    """Shared body of the constraint kinds: k matches, row m of `p` paired with row m of `q`."""

    def __post_init__(self):
        self.p = _as_points(self.p, "p")
        self.q = _as_points(self.q, "q")
        if len(self.p) != len(self.q):
            raise ValueError("p and q must pair up")

    @property
    def size(self) -> int:
        return len(self.p)


@dataclass
class OdometryConstraint(_MatchSet):
    """Feature matches between consecutive fragments i and i+1."""

    i: int
    p: np.ndarray
    q: np.ndarray

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.i + 1)


@dataclass
class LoopClosureConstraint(_MatchSet):
    """Feature matches between non-consecutive fragments i < j."""

    i: int
    j: int
    p: np.ndarray
    q: np.ndarray

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


class FrameResiduals(NamedTuple):
    """MatchTable.frame_residuals at one set of poses: per match, the
    residual e_i in constraint frame i and its squared norm s; per
    constraint, the relative pose (R_ij, t_ij) they were formed from."""

    ei: np.ndarray  # (M, 3)
    s: np.ndarray  # (M,)
    rij: np.ndarray  # (C, 3, 3)
    tij: np.ndarray  # (C, 3)


@dataclass(frozen=True, eq=False)
class MatchTable:
    """The match sets of a list of constraints, stacked flat.

    Constraint c couples poses pairs[c] and owns sizes[c] contiguous matches,
    in the constraint's own order; the segment id seg[m] of each match, its
    constraint, and the start of each constraint's matches follow from the
    sizes. Every per-constraint sum is one product with a (C, M) indicator of
    the segments, held in compressed sparse row form: row c has a nonzero at
    each match of constraint c. A row sums its matches in order, as
    np.bincount over seg does, so either gives the same bits.
    """

    pairs: np.ndarray  # (C, 2) pose indices (i, j)
    sizes: np.ndarray  # (C,) match count per constraint
    p: np.ndarray  # (M, 3) points in frame i
    q: np.ndarray  # (M, 3) points in frame j

    @classmethod
    def from_constraints(cls, constraints) -> MatchTable:
        """The table of the constraints, in order. Its p (and q) is a view
        where each constraint's p is the next run of rows of one writable
        C-contiguous (K, 3) array, as a parsed or generated graph's are, and
        a copy otherwise; either holds the same bits."""
        sizes = np.array([c.size for c in constraints], dtype=np.intp)
        return cls(
            pairs=np.array([c.pair for c in constraints], dtype=np.intp).reshape(-1, 2),
            sizes=sizes,
            p=_stacked([c.p for c in constraints], sizes),
            q=_stacked([c.q for c in constraints], sizes),
        )

    @classmethod
    def from_graph(cls, graph: ProblemGraph) -> MatchTable:
        """Odometry constraints first, then loops, each in graph order."""
        return cls.from_constraints([*graph.odometry, *graph.loops])

    def __len__(self) -> int:
        return len(self.p)

    def subset(self, keep: np.ndarray) -> MatchTable:
        """The table of the constraints where keep (C,) is true, in order:
        the table itself when every one is kept, views of this table's
        arrays when the kept constraints are one run, a copy otherwise."""
        kept = np.flatnonzero(keep)
        if len(kept) == len(self.sizes):
            return self
        if len(kept) and kept[-1] - kept[0] == len(kept) - 1:
            run, rows = slice(kept[0], kept[-1] + 1), slice(self.offsets[kept[0]], self.offsets[kept[-1] + 1])
        else:
            run, rows = keep, keep[self.seg]
        return MatchTable(self.pairs[run], self.sizes[run], self.p[rows], self.q[rows])

    @cached_property
    def seg(self) -> np.ndarray:
        """(M,) constraint index of each match."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @cached_property
    def offsets(self) -> np.ndarray:
        """(C + 1,) start of each constraint's matches, then M."""
        return np.concatenate([[0], np.cumsum(self.sizes)])

    @cached_property
    def ones(self) -> np.ndarray:
        """(M,) ones, read-only: the data of the segment indicator, and on an
        outer_operator they give its row sums."""
        out = np.ones(len(self))
        out.flags.writeable = False
        return out

    @cached_property
    def _summer_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and row pointers of the (C, M) segment indicator."""
        return np.arange(len(self), dtype=np.int32), self.offsets.astype(np.int32)

    @cached_property
    def _summer(self) -> csr_matrix:
        """The (C, M) segment indicator, whose product sums each constraint's matches."""
        return self._weighted_summer(self.ones)

    def _weighted_summer(self, data: np.ndarray) -> csr_matrix:
        """The segment indicator with data (M,) in place of its ones."""
        return csr_matrix((data, *self._summer_index), shape=(len(self.sizes), len(self)))

    @cached_property
    def _rotator(self) -> csr_matrix:
        """The (M, 3C) operator whose row m holds q[m] at columns 3 seg[m] + b,
        b = 0, 1, 2: its product with the (3C, 3) stack of the constraints'
        R^T gives every R q, each constraint's matrix applied to its matches."""
        columns = (3 * self.seg[:, None] + np.arange(3)).astype(np.int32).reshape(-1)
        starts = np.arange(0, 3 * len(self) + 1, 3, dtype=np.int32)
        return csr_matrix((self.q.reshape(-1), columns, starts), shape=(len(self), 3 * len(self.sizes)))

    @cached_property
    def _outer_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The same for the (3C, M) operator whose row (a, c) is constraint
        c's row of the indicator."""
        columns, starts = self._summer_index
        count = len(self)
        return np.tile(columns, 3), np.concatenate(
            [starts[:-1], starts[:-1] + count, starts[:-1] + 2 * count, [3 * count]]
        ).astype(np.int32)

    @cached_property
    def moments(self) -> MatchMoments:
        """The constraints' fixed point moments, formed on first use and kept."""
        return MatchMoments.of(self)

    def relative_poses(self, rots: np.ndarray, trans: np.ndarray):
        """Each constraint's relative pose R_ij = R_i^T R_j, t_ij = R_i^T (t_j - t_i),
        (C, 3, 3) and (C, 3), for poses given as (N, 3, 3) rotations and (N, 3)
        translations. Poses far enough apart overflow to inf, which the caller
        reports, so numpy is not asked to warn of it."""
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        # matmul takes R_i^T from a C-contiguous copy, as it is slow on a transposed view; einsum is fast on R_i
        ri_t = np.ascontiguousarray(np.swapaxes(rots, 1, 2))[i]
        with np.errstate(over="ignore", invalid="ignore"):
            return ri_t @ rots[j], np.einsum("cba,cb->ca", rots[i], trans[j] - trans[i])

    def frame_residuals(self, rots: np.ndarray, trans: np.ndarray) -> FrameResiduals:
        """Per-match residual e_i = T_i^-1 (T_i p - T_j q) = p - R_ij q - t_ij in
        constraint frame i and its squared norm s, for poses given as (N, 3, 3)
        rotations and (N, 3) translations, with the relative poses. The
        relative pose is formed once per constraint (relative_poses), so no
        point is carried to the world frame and the residuals do not depend on
        where the world origin lies; every R_ij q is one product with the
        table's operator (_rotator). Poses far enough apart overflow to inf,
        which the caller reports, so numpy is not asked to warn of it."""
        rij, tij = self.relative_poses(rots, trans)
        with np.errstate(over="ignore", invalid="ignore"):
            rotated = self._rotator @ np.swapaxes(rij, 1, 2).reshape(-1, 3)
            ei = np.subtract(self.p, rotated, out=rotated)
            ei -= np.repeat(tij, self.sizes, axis=0)
            return FrameResiduals(ei, np.einsum("ma,ma->m", ei, ei), rij, tij)

    def segment_sum(self, values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Sum per-match rows (M, ...), each times its weight when weights (M,)
        are given, over each constraint's matches; an empty constraint sums to
        zero. The unweighted indicator is built once per table."""
        summer = self._summer if weights is None else self._weighted_summer(weights)
        flat = values.reshape(len(values), math.prod(values.shape[1:]))
        return (summer @ flat).reshape((len(self.sizes),) + values.shape[1:])

    def outer_operator(self, weights: np.ndarray, y: np.ndarray):
        """For weights (M,) and y (M, 3), the map from x (M, K) to the (C, 3, K)
        sums of weights y x^T over each constraint's matches (from x (M,) to
        (C, 3)), with no per-match product: one (3C, M) operator, whose row
        (a, c) holds weights * y[:, a] over the matches of constraint c, serves
        every x, and sums a row's matches in order for each column of x."""
        num, count = len(self.sizes), len(self)
        data = np.multiply(y.T, weights, order="C").ravel()
        rows = csr_matrix((data, *self._outer_index), shape=(3 * num, count))
        return lambda x: (rows @ x).reshape(3, num, *x.shape[1:]).swapaxes(0, 1)


@dataclass(frozen=True)
class MatchMoments:
    """Per-constraint moments of a table's match points, fixed for any poses:
    the means p_mean and q_mean, and the second moments of the centred points
    p~ = p - p_mean and q~ = q - q_mean, P~ = sum p~ p~^T, Q~ = sum q~ q~^T and
    X~ = sum p~ q~^T. Each second moment is held as the moment of
    p~ / 2^exponent and q~ / 2^exponent, whose coordinates lie in (-1, 1):
    points whose products pass the float range still have finite moments,
    and the scaling rounds nothing. unscale gives a moment back; where it
    passes the float range it is inf, and a zero stays zero. The squared
    kernel's objective, gradient and H at any poses follow from these and
    each constraint's relative pose, with no pass over the matches."""

    exponent: np.ndarray  # (C,) integer
    p_mean: np.ndarray  # (C, 3)
    q_mean: np.ndarray  # (C, 3)
    pp: np.ndarray  # (C, 3, 3) P~ / 4^exponent
    qq: np.ndarray  # (C, 3, 3) Q~ / 4^exponent
    pq: np.ndarray  # (C, 3, 3) X~ / 4^exponent
    qp: np.ndarray  # (C, 3, 3) X~^T / 4^exponent, C-contiguous, the operand of R_ij X~^T

    @classmethod
    def of(cls, table: MatchTable) -> MatchMoments:
        """The moments of the table's constraints. The points are first divided
        by a power of two above their largest coordinate, so their sums do not
        overflow, then centred and divided by a power of two above the largest
        centred coordinate. A coordinate that is not finite makes its
        constraint's moments NaN, with no warning."""
        sizes, filled = table.sizes, table.sizes > 0
        count = np.maximum(sizes, 1)[:, None]

        def exponent(p, q):
            """Per constraint, the e with every coordinate below 2^e in size (0 for none)."""
            top = np.zeros(len(sizes))
            if filled.any():
                starts = table.offsets[:-1][filled]
                top[filled] = np.maximum(
                    np.maximum.reduceat(np.abs(p), starts).max(axis=1),
                    np.maximum.reduceat(np.abs(q), starts).max(axis=1),
                )
            return np.frexp(top)[1]

        def scaled(p, q, e):
            """p and q each divided by 2^e of its constraint."""
            shift = -np.repeat(e, sizes)[:, None]
            return np.ldexp(p, shift), np.ldexp(q, shift)

        with np.errstate(over="ignore", invalid="ignore"):
            outer = exponent(table.p, table.q)
            p, q = scaled(table.p, table.q, outer)
            p_mean, q_mean = table.segment_sum(p) / count, table.segment_sum(q) / count
            p, q = p - np.repeat(p_mean, sizes, axis=0), q - np.repeat(q_mean, sizes, axis=0)
            inner = exponent(p, q)
            p, q = scaled(p, q, inner)
            about_p, about_q = table.outer_operator(table.ones, p), table.outer_operator(table.ones, q)
            pq = about_p(q)
            return cls(
                outer + inner, np.ldexp(p_mean, outer[:, None]), np.ldexp(q_mean, outer[:, None]),
                about_p(p), about_q(q), pq, np.ascontiguousarray(np.swapaxes(pq, 1, 2)),
            )

    def unscale(self, moment: np.ndarray) -> np.ndarray:
        """(C, ...) values times 4^exponent, in two exact steps."""
        e = self.exponent.reshape((-1,) + (1,) * (moment.ndim - 1))
        with np.errstate(over="ignore"):
            return np.ldexp(np.ldexp(moment, e), e)


@dataclass
class Hyperparams:
    """Mixture-model and EM settings.

    gaussian_calibration picks how the gaussian-mode constant is derived from
    the residual bound epsilon: "rms" calibrates so a loop whose RMS residual
    equals epsilon gets posterior p_hat; "literal" uses epsilon^2 directly as
    the reference error term.
    """

    sigma: float = 0.5
    p_hat: float = 0.9
    epsilon: float = 0.05
    mode: str = "cauchy"  # "cauchy" | "gaussian"
    max_em_iters: int = 50
    em_tol: float = 1e-6
    inlier_threshold: float = 0.5
    refresh_theta: bool = True  # relearn theta before every E-step
    gaussian_calibration: str = "rms"  # "rms" | "literal"

    def __post_init__(self):
        # the cauchy kernel divides by sigma^2
        if not (self.sigma > 0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise ValueError("sigma must be positive and finite, and sigma^2 a positive finite float")
        if not 0.0 < self.p_hat < 1.0:
            raise ValueError("p_hat must lie in (0, 1)")
        if not (isinstance(self.max_em_iters, numbers.Integral) and self.max_em_iters >= 1):
            raise ValueError("max_em_iters must be an integer of at least 1")
        if not 0.0 <= self.em_tol < math.inf:
            raise ValueError("em_tol must be non-negative and finite")
        if not 0.0 <= self.inlier_threshold <= 1.0:
            raise ValueError("inlier_threshold must lie in [0, 1]")
        if self.mode not in ("cauchy", "gaussian"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "gaussian":
            learn_theta_gaussian(self.epsilon, self.p_hat, self.gaussian_calibration)
        else:
            _reference_term(self.epsilon, self.gaussian_calibration)


def _reference_term(epsilon: float, calibration: str) -> tuple[str, float]:
    """Gaussian mode's reference error term from the residual bound epsilon,
    with its name: epsilon^2 ("literal") or epsilon^4 ("rms"). A term that is
    not a positive finite float raises ValueError."""
    if calibration not in ("rms", "literal"):
        raise ValueError(f"unknown calibration {calibration!r}")
    literal = calibration == "literal"
    name = "epsilon^2" if literal else "epsilon^4"
    try:
        term = epsilon * epsilon if literal else epsilon**4
    except OverflowError:  # epsilon ** 4 past the float range
        term = math.inf
    if not (epsilon > 0 and 0.0 < term < math.inf):
        raise ValueError(f"epsilon must be positive and finite, and {name} a positive finite float")
    return name, term


def learn_theta_gaussian(epsilon: float, p_hat: float, calibration: str = "rms") -> float:
    """Gaussian-mode constant from the residual bound epsilon, or ValueError
    where the term or the constant is not a positive finite float. "literal"
    takes epsilon^2 as the reference error term; "rms" takes (epsilon^2)^2 so
    that the posterior, whose error term is B^2, equals p_hat exactly when the
    RMS residual is epsilon."""
    name, term = _reference_term(epsilon, calibration)
    theta = p_hat * term / (1.0 - p_hat)
    if not 0.0 < theta < math.inf:
        raise ValueError(f"in gaussian mode p_hat * {name} / (1 - p_hat) must be a positive finite float")
    return theta


@dataclass
class PosteriorState:
    """Learned mixture constant plus per-loop inlier posteriors."""

    theta: float
    posteriors: np.ndarray

    def __post_init__(self):
        self.posteriors = np.asarray(self.posteriors, dtype=float).reshape(-1)


@dataclass
class ProblemGraph:
    num_fragments: int
    odometry: list[OdometryConstraint]
    loops: list[LoopClosureConstraint] = field(default_factory=list)
    initial_poses: list[Pose] | None = None
    ground_truth: list[Pose] | None = None
    oracle_labels: dict[tuple[int, int], bool] | None = None

    def __post_init__(self):
        self.odometry = sorted(self.odometry, key=lambda c: c.i)
        self.loops = sorted(self.loops, key=lambda c: (c.i, c.j))

    @cached_property
    def table(self) -> MatchTable:
        """The graph's match table, built on first use and kept; a constraint
        with no match, which has no error, raises ValueError in validate's words."""
        for c in (*self.odometry, *self.loops):
            if c.size == 0:
                raise ValueError(f"invalid graph: {_empty(c)}")
        return MatchTable.from_graph(self)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.kind}{self.where}: {self.detail}"


def _empty(c: OdometryConstraint | LoopClosureConstraint) -> Violation:
    """validate's violation for a constraint with no matches."""
    if isinstance(c, OdometryConstraint):
        return Violation("empty_odometry", (c.i,), "constraint has no matches")
    return Violation("empty_loop", c.pair, "constraint has no matches")


def validate(graph: ProblemGraph) -> list[Violation]:
    """Check every structural invariant; violations are data, not exceptions."""
    out: list[Violation] = []
    n = graph.num_fragments
    if n < 2:
        out.append(Violation("bad_fragment_count", (n,), "need at least 2 fragments"))
        return out

    seen_odo: set[int] = set()
    for c in graph.odometry:
        if not 0 <= c.i <= n - 2:
            out.append(Violation("odometry_index", (c.i,), f"i must lie in [0, {n - 2}]"))
            continue
        if c.i in seen_odo:
            out.append(Violation("duplicate_odometry", (c.i,), "more than one constraint for this pair"))
        seen_odo.add(c.i)
        if c.size == 0:
            out.append(_empty(c))
        elif not (np.isfinite(c.p).all() and np.isfinite(c.q).all()):
            out.append(Violation("nonfinite_match", (c.i, c.i + 1), "non-finite coordinates"))
    # each run of consecutive missing pairs once, so the cost follows the records, not n
    present = sorted(seen_odo)
    for first, last in zip([0, *(i + 1 for i in present)], [*(i - 1 for i in present), n - 2]):
        if first == last:
            out.append(Violation("missing_odometry", (first,), f"no constraint between {first} and {first + 1}"))
        elif first < last:
            detail = f"no constraint between i and i + 1 for any i from {first} to {last}"
            out.append(Violation("missing_odometry", (first, last), detail))

    seen_loops: set[tuple[int, int]] = set()
    declared = {(c.i, c.j) for c in graph.loops}  # valid or not: the pairs a label may name
    for c in graph.loops:
        if not (0 <= c.i < n and 0 <= c.j < n):
            out.append(Violation("loop_index", (c.i, c.j), f"fragment index out of [0, {n - 1}]"))
            continue
        if c.i >= c.j:
            out.append(Violation("loop_order", (c.i, c.j), "loops must have i < j"))
            continue
        if c.j - c.i < 2:
            out.append(Violation("loop_too_short", (c.i, c.j), "|i - j| must be >= 2"))
        if (c.i, c.j) in seen_loops:
            out.append(Violation("duplicate_loop", (c.i, c.j), "duplicate loop pair"))
        seen_loops.add((c.i, c.j))
        if c.size == 0:
            out.append(_empty(c))
        elif not (np.isfinite(c.p).all() and np.isfinite(c.q).all()):
            out.append(Violation("nonfinite_match", (c.i, c.j), "non-finite coordinates"))

    if graph.initial_poses is not None and len(graph.initial_poses) != n:
        out.append(Violation("init_length", (len(graph.initial_poses),), f"expected {n} poses"))
    if graph.ground_truth is not None and len(graph.ground_truth) != n:
        out.append(Violation("gt_length", (len(graph.ground_truth),), f"expected {n} poses"))
    if graph.oracle_labels is not None:
        for pair in graph.oracle_labels:
            if pair not in declared:
                out.append(Violation("label_without_loop", pair, "label refers to no declared loop"))
        for pair in sorted(seen_loops - graph.oracle_labels.keys()):
            out.append(Violation("loop_without_label", pair, "labels are given, but not for this loop"))
    return out


class AlignmentError(Exception):
    """Closed-form alignment failed (too few usable matches or degenerate geometry)."""


def _projected_s1(table: MatchTable, w: np.ndarray, source: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Per constraint, the second singular value of its centered points
    source (M, 3), weighed by w (M,), as the top one of the points left once
    its dominant direction axis (C, 3) is projected out: resolved to the
    precision of an SVD of the points."""
    axis = np.repeat(axis, table.sizes, axis=0)
    rest = source - np.einsum("ma,ma->m", source, axis)[:, None] * axis
    rest_scatter = table.outer_operator(w, rest)(rest)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(rest_scatter)[:, 2], 0.0))


def _fit_rigid(table: MatchTable, active: np.ndarray):
    """Per constraint, the least-squares rigid transform (R, t) with
    p ~ R q + t over its active matches, by the SVD closed form: (C, 3, 3)
    rotations, (C, 3) translations, and by constraint the reason its active
    matches cannot fix a transform: fewer than 3, or degenerate ones.

    Degenerate means the second singular value s1 of the centered q points
    is at most 1e-9 * max(1, s0), s0 the first. Both come from scatter
    eigenvalues. The full scatter's own second eigenvalue carries an error
    near 1e-8 of s0, above that bound, so where it puts s1 at or below
    1e-4 * max(1, s0), s1 is taken again by _projected_s1. Elsewhere the
    coarse s1 decides: by Cauchy interlacing the projected scatter's top
    eigenvalue is at least the full scatter's second, and a coarse s1^2 above
    1e-8 * s0^2 lies about 1e8 above its rounding error, so the precise s1
    could not fall to the bound.
    """
    w = active.astype(float)
    count = table.segment_sum(w)
    scale = np.maximum(count, 1.0)[:, None]
    cq, cp = table.segment_sum(table.q, w) / scale, table.segment_sum(table.p, w) / scale
    source = table.q - np.repeat(cq, table.sizes, axis=0)
    moments = table.outer_operator(w, source)
    cross, scatter = moments(table.p - np.repeat(cp, table.sizes, axis=0)), moments(source)
    # moments of coordinates from about 1e154 on overflow, and LAPACK may not
    # return on a non-finite matrix, so such a constraint is fitted to zeros
    overflow = ~(np.isfinite(cross).all(axis=(1, 2)) & np.isfinite(scatter).all(axis=(1, 2)))
    cross[overflow] = scatter[overflow] = 0.0
    U, _, Vt = np.linalg.svd(cross)
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    d = np.sign(np.linalg.det(V @ Ut))
    rots = (V * np.stack([np.ones_like(d), np.ones_like(d), d], axis=-1)[:, None, :]) @ Ut

    spread, axes = np.linalg.eigh(scatter)
    s0 = np.sqrt(np.maximum(spread[:, 2], 0.0))
    s1 = np.sqrt(np.maximum(spread[:, 1], 0.0))
    # a constraint with too few matches, or whose moments overflow, has its
    # reason already (and the points of the latter are not finite)
    near = (s1 <= 1e-4 * np.maximum(1.0, s0)) & (count >= 3) & ~overflow
    if near.any():
        rows = np.repeat(near, table.sizes)
        s1[near] = _projected_s1(table.subset(near), w[rows], source[rows], axes[near, :, 2])
    failures = {}
    for c in np.flatnonzero((count < 3) | overflow | (s1 <= 1e-9 * np.maximum(1.0, s0))):
        if count[c] < 3:
            failures[int(c)] = f"only {int(count[c])} matches survive trimming (need 3)"
        elif overflow[c]:
            failures[int(c)] = "match coordinates too large to fit (their moments overflow)"
        else:
            failures[int(c)] = "surviving matches are degenerate (collinear or coincident)"
    return rots, cp - np.einsum("cab,cb->ca", rots, cq), failures


def _segment_medians(table: MatchTable, values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The median of values over each constraint's active matches, as
    np.median gives it while fewer than half of them are NaN or inf: the
    middle ranks of a sort by (constraint, value) in which inactive matches
    are held as inf, after every active value but NaN, and equal keys keep
    match order, as np.lexsort ranks them.

    The order is a sort by value, then a stable sort by constraint, whose
    ids are cast to int16 where they fit, which numpy sorts by radix. Equal
    finite keys read the same value in either order, so only the inf and
    NaN keys, whose values differ, are ranked stably, apart from the rest."""
    key = np.where(active, values, np.inf)
    plain = key < np.inf
    head, tail = np.flatnonzero(plain), np.flatnonzero(~plain)
    by_value = np.concatenate([head[np.argsort(key[head])], tail[np.argsort(key[tail], kind="stable")]])
    ids = table.seg.astype(np.int16 if len(table.sizes) <= 1 << 15 else np.int32)[by_value]
    ranked = values[by_value[np.argsort(ids, kind="stable")]]
    count = table.segment_sum(active.astype(float)).astype(np.intp)
    start = table.offsets[:-1]
    lo = np.clip(start + (count - 1) // 2, 0, len(values) - 1)
    hi = np.clip(start + count // 2, 0, len(values) - 1)
    return 0.5 * (ranked[lo] + ranked[hi])


def _robust_fit(table: MatchTable, rounds: int, trim_factor: float):
    """Rigid fit of every constraint with iterative trimming of matches above
    trim_factor * their constraint's median residual, for at most rounds + 2
    fits. A constraint's fit, median and trim depend on its active matches
    alone, so each round refits only the constraints whose active set the last
    trim changed, over a table of their own, and the trimming ends at its
    fixed point, once no set changes. Returns the rotations, the translations
    and, by constraint, the first reason its fit failed."""
    rots, trans = np.empty((len(table.sizes), 3, 3)), np.empty((len(table.sizes), 3))
    active = np.ones(len(table), dtype=bool)
    changed = np.ones(len(table.sizes), dtype=bool)
    failures: dict[int, str] = {}
    # a constraint whose coordinates overflow is reported as failed, so numpy
    # is not asked to warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rounds + 2):
            index, rows = np.flatnonzero(changed), np.repeat(changed, table.sizes)
            sub, sub_active = table.subset(changed), active[rows]
            sub_rots, sub_trans, sub_failures = _fit_rigid(sub, sub_active)
            rots[index], trans[index] = sub_rots, sub_trans
            for c, reason in sub_failures.items():
                failures.setdefault(int(index[c]), reason)
            if r == rounds + 1 or len(failures) == len(table.sizes):
                break
            moved = np.einsum("mab,mb->ma", np.repeat(sub_rots, sub.sizes, axis=0), sub.q)
            moved += np.repeat(sub_trans, sub.sizes, axis=0)
            resid = np.linalg.norm(moved - sub.p, axis=1)
            med = _segment_medians(sub, resid, sub_active)
            # absolute floor keeps exact matches from trimming each other at med == 0
            trimmed = resid <= np.repeat(np.maximum(trim_factor * med, 1e-9), sub.sizes)
            changed[index] = np.bincount(sub.seg[trimmed != sub_active], minlength=len(index)) > 0
            if not changed.any():
                break
            active[rows] = trimmed
    return rots, trans, failures


def fit_rigid_transform(source: np.ndarray, target: np.ndarray) -> Pose:
    """Least-squares rigid transform with target ~ R @ source + t (SVD closed form)."""
    table = MatchTable.from_constraints([LoopClosureConstraint(0, 1, target, source)])
    rots, trans, _ = _fit_rigid(table, np.ones(len(table), dtype=bool))
    return Pose(se3.matrix_to_quat(rots[0]), trans[0])


def initialize_poses(graph: ProblemGraph) -> tuple[np.ndarray, np.ndarray]:
    """Initial fragment poses as (N, 4) quaternion and (N, 3) translation
    arrays: explicit initial poses verbatim when present, else a chain from
    T_0 = identity of robust closed-form alignments of the last odometry
    constraint for each i up to the first gap, all fitted at once over their
    rows of graph.table and composed in ceil(log2 N) batched rounds; the
    error names the lowest constraint that cannot be aligned."""
    if graph.initial_poses is not None:
        return se3.stack(graph.initial_poses)
    last = {c.i: k for k, c in enumerate(graph.odometry)}  # odometry leads graph.table's rows
    chain = []
    while len(chain) < graph.num_fragments - 1 and len(chain) in last:
        chain.append(last[len(chain)])
    keep = np.isin(np.arange(len(graph.table.sizes)), chain)
    rots, steps, failures = _robust_fit(graph.table.subset(keep), 3, 3.0)
    if failures:
        i = min(failures)
        raise AlignmentError(f"odometry constraint {i}->{i + 1}: {failures[i]}")
    if len(chain) < graph.num_fragments - 1:
        i = len(chain)
        raise AlignmentError(f"no odometry constraint between {i} and {i + 1}")
    # residual model is T_i p - T_{i+1} q, so each fit maps frame i+1 into frame i,
    # and T_k = step_0 ... step_{k-1}: a prefix scan, where round d composes
    # each pose with the one d before it, so ceil(log2 N) rounds give every T_k
    quats = np.concatenate([[[1.0, 0.0, 0.0, 0.0]], se3.matrix_to_quat(rots)])
    trans = np.concatenate([np.zeros((1, 3)), steps])
    d = 1
    while d < len(quats):
        quats[d:], trans[d:] = se3.compose_arrays(quats[:-d], trans[:-d], quats[d:], trans[d:])
        d *= 2
    return quats, trans
