"""Problem data model: fragments, feature-match constraints, and the constraint graph.

A constraint stores its match set as two (k, 3) arrays: row m of `p` lives in
the first fragment's local frame and pairs with row m of `q` in the second
fragment's frame. Graphs are immutable after construction; constraints are
kept in canonical order (odometry by i, loops by (i, j)). A MatchTable stacks
the match sets of many constraints into flat arrays; the E-step, theta
learning and the pose solver all read a graph through the one table
ProblemGraph.table builds, and the initialization fits every odometry
constraint at once over a table of its own. The table evaluates each match
in its constraint's frame i, p - T_i^-1 T_j q, from one relative pose per
constraint, so no match point is carried to the world frame, whose origin
may lie a kilometre or more from the fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from . import se3
from .se3 import Pose


def _as_points(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must be (k, 3), got {out.shape}")
    return out


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


@dataclass(frozen=True)
class MatchTable:
    """The match sets of a list of constraints, stacked flat.

    Constraint c couples poses pairs[c] and owns the matches whose segment id
    seg[m] equals c; those are contiguous and in the constraint's own order.
    Every per-constraint sum is one product with a (C, M) indicator of the
    segments, held in compressed sparse row form: row c has a nonzero at each
    match of constraint c. A row sums its matches in order, as np.bincount
    over seg does, so either gives the same bits.
    """

    pairs: np.ndarray  # (C, 2) pose indices (i, j)
    sizes: np.ndarray  # (C,) match count per constraint
    seg: np.ndarray  # (M,) constraint index of each match
    p: np.ndarray  # (M, 3) points in frame i
    q: np.ndarray  # (M, 3) points in frame j

    @classmethod
    def from_constraints(cls, constraints) -> MatchTable:
        sizes = np.array([c.size for c in constraints], dtype=np.intp)
        return cls(
            pairs=np.array([c.pair for c in constraints], dtype=np.intp).reshape(-1, 2),
            sizes=sizes,
            seg=np.repeat(np.arange(len(sizes)), sizes),
            p=np.concatenate([np.zeros((0, 3)), *(c.p for c in constraints)]),
            q=np.concatenate([np.zeros((0, 3)), *(c.q for c in constraints)]),
        )

    @classmethod
    def from_graph(cls, graph: ProblemGraph) -> MatchTable:
        """Odometry constraints first, then loops, each in graph order."""
        return cls.from_constraints([*graph.odometry, *graph.loops])

    def __len__(self) -> int:
        return len(self.seg)

    @cached_property
    def offsets(self) -> np.ndarray:
        """(C + 1,) start of each constraint's matches, then M."""
        return np.concatenate([[0], np.cumsum(self.sizes)])

    @cached_property
    def _summer_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and row pointers of the (C, M) segment indicator."""
        return np.arange(len(self.seg), dtype=np.int32), self.offsets.astype(np.int32)

    @cached_property
    def _outer_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The same for the (3C, M) operator whose row (a, c) is constraint
        c's row of the indicator."""
        columns, starts = self._summer_index
        count = len(self.seg)
        return np.tile(columns, 3), np.concatenate(
            [starts[:-1], starts[:-1] + count, starts[:-1] + 2 * count, [3 * count]]
        ).astype(np.int32)

    def residuals(self, rots: np.ndarray, trans: np.ndarray):
        """Per-match residual e_i = T_i^-1 (T_i p - T_j q) = p - R_ij q - t_ij in
        constraint frame i and its squared norm s, for poses given as (N, 3, 3)
        rotations and (N, 3) translations. The relative pose R_ij = R_i^T R_j,
        t_ij = R_i^T (t_j - t_i) is formed once per constraint, so no point is
        carried to the world frame and the residuals do not depend on where the
        world origin lies. Poses far enough apart overflow to inf, which the
        caller reports, so numpy is not asked to warn of it."""
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            rij = np.einsum("cba,cbd->cad", rots[i], rots[j])
            tij = np.einsum("cba,cb->ca", rots[i], trans[j] - trans[i])
            ei = self.p - np.einsum("mab,mb->ma", np.repeat(rij, self.sizes, axis=0), self.q)
            ei -= np.repeat(tij, self.sizes, axis=0)
            return ei, np.einsum("ma,ma->m", ei, ei)

    def segment_sum(self, values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Sum per-match rows (M, ...), each times its weight when weights (M,)
        are given, over each constraint's matches; an empty constraint sums to
        zero."""
        data = np.ones(len(self.seg)) if weights is None else weights
        summer = csr_matrix((data, *self._summer_index), shape=(len(self.sizes), len(self.seg)))
        flat = values.reshape(len(values), math.prod(values.shape[1:]))
        return (summer @ flat).reshape((len(self.sizes),) + values.shape[1:])

    def outer_sum(self, weights: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(C, 3, K) sums over each constraint's matches of weights y x^T, for
        weights (M,), y (M, 3) and x (M, K), with no per-match (3, K) product:
        row (a, c) of a (3C, M) operator holds weights * y[:, a] over the
        matches of constraint c."""
        num, count = len(self.sizes), len(self.seg)
        data = np.multiply(y.T, weights, order="C").ravel()
        rows = csr_matrix((data, *self._outer_index), shape=(3 * num, count))
        return (rows @ x).reshape(3, num, x.shape[1]).transpose(1, 0, 2)


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
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be at least 1")
        if self.mode not in ("cauchy", "gaussian"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.gaussian_calibration not in ("rms", "literal"):
            raise ValueError(f"unknown gaussian_calibration {self.gaussian_calibration!r}")
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
    for i in range(n - 1):
        if i not in seen_odo:
            out.append(Violation("missing_odometry", (i,), f"no constraint between {i} and {i + 1}"))

    seen_loops: set[tuple[int, int]] = set()
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
            if pair not in seen_loops:
                out.append(Violation("label_without_loop", pair, "label refers to no declared loop"))
    return out


class AlignmentError(Exception):
    """Closed-form alignment failed (too few usable matches or degenerate geometry)."""


def _fit_rigid(table: MatchTable, active: np.ndarray):
    """Per constraint, the least-squares rigid transform (R, t) with
    p ~ R q + t over its active matches, by the SVD closed form: (C, 3, 3)
    rotations, (C, 3) translations, and by constraint the reason its active
    matches cannot fix a transform: fewer than 3, or degenerate ones.

    Degenerate means the second singular value of the centered q points is at
    most 1e-9 * max(1, the first). Both come from scatter eigenvalues; the
    second is the top eigenvalue of the scatter left once the dominant
    direction is projected out, which resolves it to the precision of an SVD
    of the points. The full scatter's own second eigenvalue carries an error
    near 1e-8 of the first singular value, above the threshold.
    """
    w = active.astype(float)
    count = table.segment_sum(w)
    scale = np.maximum(count, 1.0)[:, None]
    cq, cp = table.segment_sum(table.q, w) / scale, table.segment_sum(table.p, w) / scale
    source = table.q - cq[table.seg]
    cross = table.outer_sum(w, source, table.p - cp[table.seg])
    scatter = table.outer_sum(w, source, source)
    # moments of coordinates from about 1e154 on overflow, and LAPACK may not
    # return on a non-finite matrix, so such a constraint is fitted to zeros
    overflow = ~(np.isfinite(cross).all(axis=(1, 2)) & np.isfinite(scatter).all(axis=(1, 2)))
    cross[overflow] = scatter[overflow] = 0.0
    U, _, Vt = np.linalg.svd(cross)
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    d = np.sign(np.linalg.det(V @ Ut))
    rots = (V * np.stack([np.ones_like(d), np.ones_like(d), d], axis=-1)[:, None, :]) @ Ut

    spread, axes = np.linalg.eigh(scatter)
    axis = axes[:, :, 2][table.seg]
    rest = source - np.einsum("ma,ma->m", source, axis)[:, None] * axis
    rest_scatter = table.outer_sum(w, rest, rest)
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


def _segment_medians(table: MatchTable, values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """np.median of values over each constraint's active matches, from one
    sort by (constraint, value) with inactive matches last in their segment."""
    order = np.lexsort((np.where(active, values, np.inf), table.seg))
    ranked = values[order]
    count = table.segment_sum(active.astype(float)).astype(np.intp)
    start = table.offsets[:-1]
    lo = np.clip(start + (count - 1) // 2, 0, len(values) - 1)
    hi = np.clip(start + count // 2, 0, len(values) - 1)
    return 0.5 * (ranked[lo] + ranked[hi])


def _robust_fit(table: MatchTable, rounds: int, trim_factor: float):
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


def fit_rigid_transform(source: np.ndarray, target: np.ndarray) -> Pose:
    """Least-squares rigid transform with target ~ R @ source + t (SVD closed form)."""
    table = MatchTable.from_constraints([LoopClosureConstraint(0, 1, target, source)])
    rots, trans, _ = _fit_rigid(table, np.ones(len(table), dtype=bool))
    return se3.from_matrix(rots[0], trans[0])


def initialize_poses(graph: ProblemGraph) -> list[Pose]:
    """Initial fragment poses: explicit initial poses verbatim when present,
    otherwise a chain of robust closed-form alignments of the odometry match
    sets, anchored at T_0 = identity. All alignments are fitted at once; the
    error names the lowest constraint that cannot be aligned."""
    if graph.initial_poses is not None:
        return [p.copy() for p in graph.initial_poses]
    by_index = {c.i: c for c in graph.odometry}
    chain = []
    while len(chain) < graph.num_fragments - 1 and len(chain) in by_index:
        chain.append(by_index[len(chain)])
    poses = [se3.identity()]
    if chain:
        rots, trans, failures = _robust_fit(MatchTable.from_constraints(chain), 3, 3.0)
        if failures:
            i = min(failures)
            raise AlignmentError(f"odometry constraint {i}->{i + 1}: {failures[i]}")
        # residual model is T_i p - T_{i+1} q, so each fit maps frame i+1 into frame i
        for rot, t in zip(rots, trans):
            poses.append(se3.compose(poses[-1], se3.from_matrix(rot, t)))
    if len(poses) < graph.num_fragments:
        i = len(chain)
        raise AlignmentError(f"no odometry constraint between {i} and {i + 1}")
    return poses
