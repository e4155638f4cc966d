"""Problem data model: fragments, feature-match constraints, and the constraint graph.

A constraint stores its match set as two (k, 3) arrays: row m of `p` lives in
the first fragment's local frame and pairs with row m of `q` in the second
fragment's frame. Graphs are immutable after construction; constraints are
kept in canonical order (odometry by i, loops by (i, j)). A MatchTable stacks
the match sets of many constraints into flat arrays; the E-step, theta
learning and the pose solver all read a graph through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    def residuals(self, rots: np.ndarray, trans: np.ndarray):
        """Per-match world points y_i = T_i p, y_j = T_j q, residual e = y_i - y_j
        and its squared norm s, for poses given as (N, 3, 3) rotations and (N, 3)
        translations."""
        i, j = self.pairs[self.seg, 0], self.pairs[self.seg, 1]
        yi = np.einsum("mab,mb->ma", rots[i], self.p) + trans[i]
        yj = np.einsum("mab,mb->ma", rots[j], self.q) + trans[j]
        e = yi - yj
        return yi, yj, e, np.einsum("ma,ma->m", e, e)

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum per-match rows (M, ...) over each constraint's matches; an empty
        constraint sums to zero."""
        flat = values.reshape(len(values), math.prod(values.shape[1:]))
        sums = [np.bincount(self.seg, weights=col, minlength=len(self.sizes)) for col in flat.T]
        return np.stack(sums, axis=-1).reshape((len(self.sizes),) + values.shape[1:])


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
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.p_hat < 1.0:
            raise ValueError("p_hat must lie in (0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be at least 1")
        if self.mode not in ("cauchy", "gaussian"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.gaussian_calibration not in ("rms", "literal"):
            raise ValueError(f"unknown gaussian_calibration {self.gaussian_calibration!r}")


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


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.kind}{self.where}: {self.detail}"


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
            out.append(Violation("empty_odometry", (c.i,), "constraint has no matches"))
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
            out.append(Violation("empty_loop", (c.i, c.j), "constraint has no matches"))
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


def fit_rigid_transform(source: np.ndarray, target: np.ndarray) -> Pose:
    """Least-squares rigid transform with target ~ R @ source + t (SVD closed form)."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    cs = source.mean(axis=0)
    ct = target.mean(axis=0)
    H = (source - cs).T @ (target - ct)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return se3.from_matrix(R, ct - R @ cs)


def robust_fit_rigid_transform(
    source: np.ndarray,
    target: np.ndarray,
    rounds: int = 3,
    trim_factor: float = 3.0,
    context: str = "alignment",
) -> Pose:
    """Rigid fit with iterative trimming of matches above trim_factor * median residual."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    active = np.ones(len(source), dtype=bool)
    pose = None
    for _ in range(rounds + 1):
        _check_fit_points(source[active], context, int(active.sum()))
        pose = fit_rigid_transform(source[active], target[active])
        resid = np.linalg.norm(se3.transform_points(pose, source) - target, axis=1)
        med = float(np.median(resid[active]))
        # absolute floor keeps exact matches from trimming each other at med == 0
        active = resid <= max(trim_factor * med, 1e-9)
    _check_fit_points(source[active], context, int(active.sum()))
    return fit_rigid_transform(source[active], target[active])


def _check_fit_points(pts: np.ndarray, context: str, count: int):
    if count < 3:
        raise AlignmentError(f"{context}: only {count} matches survive trimming (need 3)")
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[1] <= 1e-9 * max(1.0, s[0]):
        raise AlignmentError(f"{context}: surviving matches are degenerate (collinear or coincident)")


def initialize_poses(graph: ProblemGraph) -> list[Pose]:
    """Initial fragment poses: explicit initial poses verbatim when present,
    otherwise a chain of robust closed-form alignments of the odometry match
    sets, anchored at T_0 = identity."""
    if graph.initial_poses is not None:
        return [p.copy() for p in graph.initial_poses]
    poses = [se3.identity()]
    by_index = {c.i: c for c in graph.odometry}
    for i in range(graph.num_fragments - 1):
        c = by_index.get(i)
        if c is None:
            raise AlignmentError(f"no odometry constraint between {i} and {i + 1}")
        # residual model is T_i p - T_{i+1} q, so rel maps frame i+1 into frame i
        rel = robust_fit_rigid_transform(c.q, c.p, context=f"odometry constraint {i}->{i + 1}")
        poses.append(se3.compose(poses[i], rel))
    return poses
