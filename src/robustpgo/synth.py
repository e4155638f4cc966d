"""Synthetic ground-truth scenes with controlled outlier injection, plus metrics.

Trajectories revisit themselves by construction (the circle runs four laps,
the figure-eight crosses itself), so genuine loop closures exist. True loops
connect a keyframe to its spatially nearest non-adjacent fragments; on the
circle those partners sit at several lap offsets, which knits the whole
trajectory into one rigid web instead of a single ladder between two laps.
False loops connect far-apart fragments with entirely random correspondences.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import se3
from .model import (
    LoopClosureConstraint,
    OdometryConstraint,
    ProblemGraph,
    fit_rigid_transform,
)
from .se3 import Pose

SHAPES = ("line", "circle", "figure-eight")


class ScenarioError(Exception):
    pass


@dataclass
class ScenarioConfig:
    num_fragments: int = 100
    shape: str = "circle"
    spacing: float = 10.0  # m between consecutive fragments
    matches_per_constraint: int = 50
    loops_per_keyframe: int = 5
    keyframe_stride: int = 5
    match_noise: float = 0.05  # m, isotropic, applied to the q side of inlier matches
    outlier_match_fraction: float = 0.3
    outlier_displacement: float = 5.0  # m, ball radius for displaced matches
    outlier_loop_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("num_fragments", "matches_per_constraint", "loops_per_keyframe", "keyframe_stride", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ScenarioError(f"{name} must be an integer")
        if self.num_fragments < 2:
            raise ScenarioError("need at least 2 fragments")
        if self.shape not in SHAPES:
            raise ScenarioError(f"unknown shape {self.shape!r}")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ScenarioError("spacing must be positive and finite")
        if self.matches_per_constraint < 3:
            raise ScenarioError("need at least 3 matches per constraint")
        for name in ("match_noise", "outlier_displacement"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ScenarioError(f"{name} must be finite and >= 0")
        for name in ("outlier_match_fraction", "outlier_loop_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{name} must lie in [0, 1]")
        if self.keyframe_stride < 1 or self.loops_per_keyframe < 1:
            raise ScenarioError("keyframe_stride and loops_per_keyframe must be >= 1")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")


@dataclass
class EvalResult:
    mean_translation_error: float  # m, after aligning on the first five poses
    precision: float  # tp / (tp + fp), 1.0 when no loop is classified inlier
    recall: float  # tp / (tp + fn), 1.0 when no loop is an oracle inlier
    tp: int  # loops classified inlier that are oracle inliers
    fp: int  # loops classified inlier that are oracle outliers
    fn: int  # oracle inliers classified outlier
    confusion: list[tuple[int, int, bool, bool]] = field(default_factory=list)
    # rows are (i, j, predicted inlier, oracle inlier)
    full_alignment_ate: float = math.nan  # m, after one rigid alignment over all poses


def _yaw_quats(yaws) -> np.ndarray:
    """Canonical (N, 4) quaternions of turns by each yaw about z. Each angle
    goes through math's cos and sin, whose roundings numpy's need not share."""
    return se3._canonical_quats([[math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)] for yaw in yaws])


def _trajectory(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth poses as canonical (N, 4) quaternions and (N, 3)
    translations, each fragment facing along the path."""
    n, d = config.num_fragments, config.spacing
    if config.shape == "line":
        return _yaw_quats([0.0] * n), np.array([[k * d, 0.0, 0.0] for k in range(n)], dtype=float)
    if config.shape == "circle":
        # several laps: fragment k revisits k + m*n/laps, giving loop partners
        # at multiple offsets that knit the whole trajectory together; small
        # scenes drop to two laps so the circle stays wide enough for false
        # loops (pairs farther than 3x spacing) to exist at all
        laps = 4 if n >= 48 else 2
        radius = n * d / (2.0 * laps * math.pi)
        angles = [2.0 * laps * math.pi * k / n for k in range(n)]
        trans = np.array([[radius * math.cos(a), radius * math.sin(a), 0.0] for a in angles])
        return _yaw_quats([a + 0.5 * math.pi for a in angles]), trans
    # figure-eight: Gerono lemniscate resampled to uniform arc length
    t = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
    xy = np.stack([np.sin(t), np.sin(t) * np.cos(t)], axis=1)
    seg = np.linalg.norm(np.diff(xy, axis=0, append=xy[:1]), axis=1)
    length_unit = float(seg.sum())
    scale = n * d / length_unit
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    targets = np.arange(n) * (length_unit / n)
    idx = np.searchsorted(cumulative, targets, side="right") - 1
    trans = scale * np.concatenate([xy[idx], np.zeros((n, 1))], axis=1)
    heading = xy[(idx + 1) % len(xy)] - xy[idx]
    return _yaw_quats([math.atan2(dy, dx) for dx, dy in heading.tolist()]), trans


def _ball(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform draws from a solid ball."""
    try:
        direction = rng.normal(size=(count, 3))
    except (ValueError, MemoryError) as err:  # numpy's size check, or an allocation that fails
        raise ScenarioError(f"cannot draw {count} match points: {err}") from None
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)
    return direction * r


def _points(count: int) -> np.ndarray:
    """An uninitialized (count, 3) array of match points."""
    try:
        return np.empty((count, 3))
    except (ValueError, MemoryError) as err:  # numpy's size check, or an allocation that fails
        raise ScenarioError(f"cannot hold {count} match points: {err}") from None


def _in_frame(fragment: tuple[np.ndarray, np.ndarray], world: np.ndarray) -> np.ndarray:
    """World points in the frame of a fragment given by its (quat, trans) rows."""
    quat, trans = se3.inverse_arrays(*fragment)
    return world @ se3.quat_to_matrix(quat).T + trans


def _match_set(
    rng: np.random.Generator,
    config: ScenarioConfig,
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    point_radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Inlier-style matches between fragments a and b, each given by its
    (quat, trans) rows: shared world points near the two fragments, noise on
    the q side, and the configured fraction displaced into outliers."""
    k = config.matches_per_constraint
    center = 0.5 * (a[1] + b[1])
    world = center + _ball(rng, k, point_radius)
    p = _in_frame(a, world)
    q = _in_frame(b, world)
    if config.match_noise > 0:
        q = q + rng.normal(scale=config.match_noise, size=(k, 3))
    n_out = round(config.outlier_match_fraction * k)
    if n_out:
        which = rng.choice(k, size=n_out, replace=False)
        q[which] = _in_frame(b, world[which]) + _ball(rng, n_out, config.outlier_displacement)
    return p, q


def _false_match_set(
    rng: np.random.Generator,
    config: ScenarioConfig,
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    point_radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Random correspondences: each side samples points near its own fragment."""
    k = config.matches_per_constraint
    world_a = a[1] + _ball(rng, k, point_radius)
    world_b = b[1] + _ball(rng, k, point_radius)
    return _in_frame(a, world_a), _in_frame(b, world_b)


# a pair only counts as a revisit when the chain index gap is too large for
# plain forward travel to explain the spatial proximity (radius is 2.5x the
# spacing, so anything within 3 steps could just be chain overlap)
_MIN_REVISIT_GAP = 4


def _revisit_partners(
    translations: np.ndarray, k: int, radius: float
) -> list[tuple[float, int]]:
    """Genuinely revisited fragments within radius of fragment k, nearest first."""
    dist = np.linalg.norm(translations - translations[k], axis=1)
    near = np.flatnonzero((np.abs(np.arange(len(translations)) - k) >= _MIN_REVISIT_GAP) & (dist <= radius))
    return sorted((float(dist[j]), int(j)) for j in near)


def plan_loops(config: ScenarioConfig, translations: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Unique true-loop pairs from keyframe revisits of the (N, 3) ground-truth
    translations, plus the false-loop count that realizes the configured
    outlier-loop ratio exactly (within rounding)."""
    n = config.num_fragments
    k2 = config.loops_per_keyframe
    f_out = config.outlier_loop_fraction
    keyframes = list(range(0, n, config.keyframe_stride))
    revisit_radius = 2.5 * config.spacing

    if f_out == 1.0:
        return [], k2 * len(keyframes)

    per_kf = round((1.0 - f_out) * k2)
    if per_kf < 1:
        raise ScenarioError(
            "outlier_loop_fraction too close to 1: true loops per keyframe rounds to 0"
        )
    true_pairs: set[tuple[int, int]] = set()
    for k in keyframes:
        # keyframes without revisits (e.g. straight stretches) contribute none
        for _, j in _revisit_partners(translations, k, revisit_radius)[:per_kf]:
            true_pairs.add((min(k, j), max(k, j)))
    n_true = len(true_pairs)
    if n_true == 0:
        raise ScenarioError(
            f"config requests true loops (outlier_loop_fraction {f_out} < 1) but the "
            f"trajectory offers 0 revisit pairs"
        )
    n_false = round(n_true * f_out / (1.0 - f_out))
    return sorted(true_pairs), n_false


def generate(config: ScenarioConfig) -> ProblemGraph:
    """Deterministic scene for a given config; carries ground truth and oracle labels."""
    rng = np.random.default_rng(config.seed)
    # a trajectory past the float range is rejected here, so numpy is not asked to warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        quats, translations = _trajectory(config)
        span = np.ptp(translations, axis=0)
        # every squared distance the scene is built from stays finite, as do the solver's residuals
        if not span @ span < math.inf:
            raise ScenarioError(f"spacing {config.spacing:g} puts the scene's squared size past the float range")
    n = config.num_fragments
    point_radius = 1.5 * config.spacing
    fragments = list(zip(quats, translations))

    true_pairs, n_false = plan_loops(config, translations)
    # the pairs (i, j) with j - i >= 2 that are no true loop bound the false loops sampling can find
    free = (n - 1) * (n - 2) // 2 - len(true_pairs)
    if n_false > free:
        raise ScenarioError(f"{n_false} false loops asked for; {free} pairs with j - i >= 2 are not true loops")
    # every match set is drawn into its run of rows of one p and one q, in the
    # graph's table order (odometry by i, then loops by (i, j)), which its
    # MatchTable then shares
    k = config.matches_per_constraint
    count = (n - 1 + len(true_pairs) + n_false) * k
    p, q = _points(count), _points(count)

    def drawn(c: int, maker, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(c * k, (c + 1) * k)
        p[rows], q[rows] = maker(rng, config, fragments[i], fragments[j], point_radius)
        return p[rows], q[rows]

    odometry = [OdometryConstraint(i, *drawn(i, _match_set, i, i + 1)) for i in range(n - 1)]

    false_pairs: set[tuple[int, int]] = set()
    taken = set(true_pairs)
    guard = 0
    while len(false_pairs) < n_false:
        guard += 1
        if guard > 100 * max(n_false, 1) + 1000:
            raise ScenarioError("could not sample enough far-apart false loop pairs")
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        if j - i < 2 or (i, j) in taken:
            continue
        if np.linalg.norm(translations[i] - translations[j]) <= 3.0 * config.spacing:
            continue
        false_pairs.add((i, j))
        taken.add((i, j))

    loops = []
    labels: dict[tuple[int, int], bool] = {}
    true_set = set(true_pairs)
    for c, (i, j) in enumerate(sorted(taken), start=n - 1):
        truth = (i, j) in true_set
        loops.append(LoopClosureConstraint(i, j, *drawn(c, _match_set if truth else _false_match_set, i, j)))
        labels[(i, j)] = truth
    # as with the spacing, squares stay finite: each constraint's summed squared
    # coordinates, which bound the moments solve fits its match set from
    with np.errstate(over="ignore", invalid="ignore"):
        squares = [np.einsum("ma,ma->", c.p, c.p) + np.einsum("ma,ma->", c.q, c.q) for c in (*odometry, *loops)]
    if not all(square < math.inf for square in squares):
        raise ScenarioError(
            "match_noise or outlier_displacement puts a constraint's summed squared match point "
            "coordinates past the float range"
        )

    return ProblemGraph(
        num_fragments=n,
        odometry=odometry,
        loops=loops,
        initial_poses=None,
        ground_truth=se3.unstack(quats, translations),
        oracle_labels=labels,
    )


def _aligned_error(poses: list[Pose], ground_truth: list[Pose], fitted: int, scored: slice) -> float:
    """Mean translation error of the scored poses after the rigid fit that
    aligns the first `fitted` estimated positions onto ground truth (m).
    Each error's length is a nested hypot, which squares nothing, so the
    mean is inf, with no warning, only where some length is. Finite lengths
    whose sum passes the float range are averaged again as fractions of the
    largest; every mean whose sum stays finite keeps its bits."""
    est = np.stack([p.trans for p in poses])
    gt = np.stack([p.trans for p in ground_truth])
    with np.errstate(over="ignore", invalid="ignore"):
        aligned = se3.transform_points(fit_rigid_transform(est[:fitted], gt[:fitted]), est)
        x, y, z = (aligned[scored] - gt[scored]).T
        lengths = np.hypot(np.hypot(x, y), z)
        mean = lengths.mean()
        if np.isinf(mean) and np.isfinite(lengths).all():
            top = lengths.max()
            mean = (lengths / top).mean() * top
        return float(mean)


def anchored_ate(poses: list[Pose], ground_truth: list[Pose]) -> float:
    """Mean translation error of poses 5.. after the rigid fit that aligns the
    first five estimated positions onto ground truth (m), with the overflow
    handling of _aligned_error."""
    return _aligned_error(poses, ground_truth, 5, slice(5, None))


def full_alignment_ate(poses: list[Pose], ground_truth: list[Pose]) -> float:
    """Mean translation error of every pose after one rigid fit of all the
    estimated positions onto ground truth (m), by model.fit_rigid_transform
    (Horn 1987; the ATE of Sturm et al. 2012), as perfbench's ate_full_m. A
    trajectory that is the truth moved rigidly scores 0, however far from
    the first five poses the motion carries it."""
    return _aligned_error(poses, ground_truth, len(poses), slice(None))


def loop_scores(graph: ProblemGraph, labels) -> tuple[float, float, int, int, int, list]:
    """Precision, recall, true positives, false positives, false negatives
    and the confusion rows of predicted inlier `labels`, booleans aligned
    with graph.loops, against the graph's oracle labels, as EvalResult holds them."""
    labels = np.asarray(labels, dtype=bool).reshape(-1)
    if len(labels) != len(graph.loops):
        raise ScenarioError(f"{len(labels)} labels for {len(graph.loops)} loops")
    unlabelled = [c.pair for c in graph.loops if c.pair not in graph.oracle_labels]
    if unlabelled:
        raise ScenarioError(f"graph carries no oracle label for loop {unlabelled[0]}")
    confusion = [(c.i, c.j, bool(p), bool(graph.oracle_labels[c.pair])) for c, p in zip(graph.loops, labels)]
    tp = sum(p and o for *_, p, o in confusion)
    fp = sum(p and not o for *_, p, o in confusion)
    fn = sum(o and not p for *_, p, o in confusion)
    return tp / (tp + fp) if (tp + fp) else 1.0, tp / (tp + fn) if (tp + fn) else 1.0, tp, fp, fn, confusion


def evaluate(poses: list[Pose], graph: ProblemGraph, labels) -> EvalResult:
    """Trajectory error after aligning the first five poses and after aligning
    all of them, and the loop_scores of `labels`, predicted inlier booleans
    aligned with graph.loops, against the graph's oracle labels."""
    if graph.ground_truth is None:
        raise ScenarioError("graph carries no ground truth")
    if graph.oracle_labels is None:
        raise ScenarioError("graph carries no oracle loop labels")
    n = graph.num_fragments
    if n < 6:
        raise ScenarioError("need at least 6 fragments to evaluate (5 for alignment)")
    if len(poses) != n:
        raise ScenarioError(f"{len(poses)} poses for {n} fragments")
    ate = anchored_ate(poses, graph.ground_truth)
    return EvalResult(ate, *loop_scores(graph, labels), full_alignment_ate(poses, graph.ground_truth))
