r"""Line-oriented text format for constraint graphs, poses, and run reports.

Graph grammar (whitespace-separated, '#' starts a comment):

    PCG 1 <N>                          header: format version, fragment count
    INIT <id> tx ty tz qw qx qy qz     optional initial pose
    GT <id> tx ty tz qw qx qy qz       optional ground-truth pose
    ODOM <i> <k>                       followed by exactly k M lines
    LOOP <i> <j> <k>                   followed by exactly k M lines
    M px py pz qx qy qz                one feature match (p then q)
    LABEL <i> <j> <0|1>                oracle label for a declared loop

Lines end at '\n'; a '\r' before it, and any other whitespace inside a line
(`str.isspace`), separates tokens, so a lone '\r' is whitespace. Numbers are
written with 17 significant digits so every float round-trips exactly;
writers emit records in canonical order (by id, then by (i, j)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .em import EmTrace
from .model import LoopClosureConstraint, OdometryConstraint, ProblemGraph
from .se3 import Pose


class ParseError(Exception):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pose_fields(p: Pose) -> str:
    t, q = p.trans, p.quat
    return " ".join(_fmt(v) for v in (t[0], t[1], t[2], q[0], q[1], q[2], q[3]))


def _parse_pose(parts: list[str], line_no: int) -> Pose:
    vals = [_float(v, line_no) for v in parts]
    if not np.isfinite(vals).all():
        raise ParseError(line_no, "pose values must be finite")
    try:
        return Pose(np.array(vals[3:7]), np.array(vals[0:3]))
    except ValueError as err:  # a zero quaternion has no rotation
        raise ParseError(line_no, str(err)) from None


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected integer, got {token!r}") from None


def _float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(line_no, f"expected number, got {token!r}") from None


class _Lines:
    r"""Token stream over non-empty, comment-stripped lines, which end at '\n'.
    `raw` holds them and `at` the index of the next one to read; `rows`
    yields (line number, tokens) from that cursor, splitting each line only
    when it reaches it. A record's M rows are split and converted as one
    block (`_read_block`), which moves the same cursor; a block that holds a
    comment, a blank line or an error goes through `rows` instead."""

    def __init__(self, text: str):
        self.raw = text.split("\n")
        if not self.raw[-1]:  # the empty piece after a final '\n', or of ""
            self.raw.pop()
        self.at = 0
        self.last_no = len(self.raw) + 1
        self.rows = self._rows()

    def _rows(self):
        raw = self.raw
        while self.at < len(raw):
            line = raw[self.at]
            self.at += 1
            if parts := line.split("#", 1)[0].split():
                yield self.at, parts


def _read_matches(lines: _Lines, count: int, what: str, header_no: int):
    """The `count` M rows after a record's header, on line header_no, as
    C-contiguous (count, 3) arrays p and q. The rows are read as one block
    when they can be; otherwise each row is checked and converted as it is
    read, so errors keep line order: a bad number on an earlier row is
    reported before a short or missing later row."""
    if count < 0:
        raise ParseError(header_no, f"negative match count {count}")
    vals = _read_block(lines, count)
    if vals is None:
        vals = np.array(_read_rows(lines, count, what))
    vals = vals.reshape(count, 6)
    return np.ascontiguousarray(vals[:, :3]), np.ascontiguousarray(vals[:, 3:])


def _read_block(lines: _Lines, count: int) -> np.ndarray | None:
    """The next `count` raw lines' numbers, 6 a line, if each line is `M`
    and 6 numbers `float` accepts; then the cursor moves past them. Else
    None, and nothing is consumed. A blank line has no 7 tokens, and a '#'
    would sit in the first token, which is then not `M`, or in one that
    `float` refuses. So a block that passes holds no blank line or comment,
    and `rows` would yield exactly these lines and tokens."""
    block = lines.raw[lines.at : lines.at + count]
    if len(block) != count:  # nothing sized by count is built before this
        return None
    rows = list(map(str.split, block))
    if list(map(len, rows)) != [7] * count:
        return None
    flat = list(chain.from_iterable(rows))
    if flat[::7] != ["M"] * count:
        return None
    del flat[::7]
    try:
        vals = np.fromiter(map(float, flat), float, count=6 * count)
    except ValueError:
        return None
    lines.at += count
    return vals


def _read_rows(lines: _Lines, count: int, what: str) -> list[float]:
    """The numbers of the next `count` M rows, each checked and converted as
    it is read; a ParseError names the first bad row or number in line order."""
    vals: list[float] = []
    # zip draws on range(count) first, so it stops without taking a row too
    # many, and range takes counts past sys.maxsize, which islice does not
    for k, (no, parts) in zip(range(count), lines.rows):
        if parts[0] != "M":
            raise ParseError(no, f"expected M record {k + 1} of {count} for {what}")
        if len(parts) != 7:
            raise ParseError(no, f"M record needs 6 numbers, got {len(parts) - 1}")
        vals += [_float(v, no) for v in parts[1:]]
    if len(vals) < 6 * count:
        raise ParseError(lines.last_no, f"expected M record {len(vals) // 6 + 1} of {count} for {what}")
    return vals


def parse(text: str) -> ProblemGraph:
    """Parse a graph document; raises ParseError with the offending line number.

    Only syntax is enforced here; semantic rules (missing odometry, short
    loops, duplicates) are left to model.validate.
    """
    lines = _Lines(text)
    row = next(lines.rows, None)
    if row is None:
        raise ParseError(1, "empty document, expected PCG header")
    no, parts = row
    if parts[0] != "PCG" or len(parts) != 3:
        raise ParseError(no, "expected header: PCG 1 <num_fragments>")
    if _int(parts[1], no) != 1:
        raise ParseError(no, f"unsupported format version {parts[1]}")
    n = _int(parts[2], no)
    if n < 1:
        raise ParseError(no, f"fragment count must be positive, got {n}")

    init: dict[int, Pose] = {}
    gt: dict[int, Pose] = {}
    odometry: list[OdometryConstraint] = []
    loops: list[LoopClosureConstraint] = []
    labels: dict[tuple[int, int], bool] = {}

    for no, parts in lines.rows:
        kind = parts[0]
        if kind in ("INIT", "GT"):
            if len(parts) != 9:
                raise ParseError(no, f"{kind} record needs id plus 7 numbers")
            idx = _int(parts[1], no)
            if not 0 <= idx < n:
                raise ParseError(no, f"{kind} id {idx} out of range [0, {n - 1}]")
            store = init if kind == "INIT" else gt
            if idx in store:
                raise ParseError(no, f"duplicate {kind} record for fragment {idx}")
            store[idx] = _parse_pose(parts[2:], no)
        elif kind == "ODOM":
            if len(parts) != 3:
                raise ParseError(no, "ODOM record needs <i> <match count>")
            i = _int(parts[1], no)
            p, q = _read_matches(lines, _int(parts[2], no), f"ODOM {i}", no)
            odometry.append(OdometryConstraint(i, p, q))
        elif kind == "LOOP":
            if len(parts) != 4:
                raise ParseError(no, "LOOP record needs <i> <j> <match count>")
            i = _int(parts[1], no)
            j = _int(parts[2], no)
            p, q = _read_matches(lines, _int(parts[3], no), f"LOOP {i} {j}", no)
            loops.append(LoopClosureConstraint(i, j, p, q))
        elif kind == "LABEL":
            if len(parts) != 4:
                raise ParseError(no, "LABEL record needs <i> <j> <0|1>")
            i = _int(parts[1], no)
            j = _int(parts[2], no)
            if parts[3] not in ("0", "1"):
                raise ParseError(no, f"LABEL value must be 0 or 1, got {parts[3]!r}")
            if (i, j) in labels:
                raise ParseError(no, f"duplicate LABEL for loop ({i}, {j})")
            labels[(i, j)] = parts[3] == "1"
        elif kind == "M":
            raise ParseError(no, "stray M record outside ODOM/LOOP")
        else:
            raise ParseError(no, f"unknown record kind {kind!r}")

    def _collect(store: dict[int, Pose], kind: str) -> list[Pose] | None:
        if not store:
            return None
        # ids lie in [0, n), so the lowest missing one is at most len(store)
        missing = min(set(range(len(store) + 1)) - store.keys())
        if missing < n:
            raise ParseError(lines.last_no, f"{kind} records incomplete: missing fragment {missing}")
        return [store[i] for i in range(n)]

    return ProblemGraph(
        num_fragments=n,
        odometry=odometry,
        loops=loops,
        initial_poses=_collect(init, "INIT"),
        ground_truth=_collect(gt, "GT"),
        oracle_labels=labels or None,
    )


def write_graph(graph: ProblemGraph) -> str:
    out = [f"PCG 1 {graph.num_fragments}"]
    if graph.initial_poses is not None:
        for i, p in enumerate(graph.initial_poses):
            out.append(f"INIT {i} {_pose_fields(p)}")
    if graph.ground_truth is not None:
        for i, p in enumerate(graph.ground_truth):
            out.append(f"GT {i} {_pose_fields(p)}")
    for c in sorted(graph.odometry, key=lambda c: c.i):
        out.append(f"ODOM {c.i} {c.size}")
        out.extend(_match_lines(c.p, c.q))
    for c in sorted(graph.loops, key=lambda c: (c.i, c.j)):
        out.append(f"LOOP {c.i} {c.j} {c.size}")
        out.extend(_match_lines(c.p, c.q))
    if graph.oracle_labels is not None:
        for (i, j), flag in sorted(graph.oracle_labels.items()):
            out.append(f"LABEL {i} {j} {1 if flag else 0}")
    return "\n".join(out) + "\n"


def _match_lines(p: np.ndarray, q: np.ndarray) -> list[str]:
    return [
        "M " + " ".join(_fmt(v) for v in (*pi, *qi)) for pi, qi in zip(p, q)
    ]


def write_poses(poses: list[Pose]) -> str:
    return "".join(f"POSE {i} {_pose_fields(p)}\n" for i, p in enumerate(poses))


def parse_poses(text: str) -> list[Pose]:
    lines = _Lines(text)
    store: dict[int, Pose] = {}
    for no, parts in lines.rows:
        if parts[0] != "POSE" or len(parts) != 9:
            raise ParseError(no, "expected: POSE <id> tx ty tz qw qx qy qz")
        idx = _int(parts[1], no)
        if idx in store:
            raise ParseError(no, f"duplicate POSE record for fragment {idx}")
        store[idx] = _parse_pose(parts[2:], no)
    missing = [i for i in range(len(store)) if i not in store]
    if missing:
        raise ParseError(lines.last_no, f"missing POSE record {missing[0]}")
    return [store[i] for i in range(len(store))]


def write_poses_csv(poses: list[Pose]) -> str:
    rows = ["id,tx,ty,tz"]
    rows.extend(
        f"{i},{_fmt(p.trans[0])},{_fmt(p.trans[1])},{_fmt(p.trans[2])}"
        for i, p in enumerate(poses)
    )
    return "\n".join(rows) + "\n"


@dataclass
class RunReport:
    """Everything needed to audit a run: per-loop errors and posteriors at the
    final poses, the learned constant per iteration, the trace, and final
    metrics when ground truth was available."""

    mode: str
    pairs: list[tuple[int, int]]
    errors: np.ndarray  # per-loop error functional at the final poses
    posteriors: np.ndarray
    labels: np.ndarray  # predicted inlier booleans
    trace: EmTrace
    metrics: dict[str, float] = field(default_factory=dict)


def write_report(report: RunReport) -> str:
    """The run report's rows: REPORT, MODE and CONVERGED; per EM iteration a
    THETA row, a TRACE row (objective at the start and end, inlier count,
    largest pose update) and a SOLVE row (the M-step's termination, accepted
    steps, factorizations, curvature steps, PCG iterations, trials rejected
    for want of a step and gradient norm); a LOOP row per loop; a METRIC row
    per metric."""
    out = ["REPORT 1", f"MODE {report.mode}", f"CONVERGED {1 if report.trace.converged else 0}"]
    for it, rec in enumerate(report.trace.iterations, start=1):
        out.append(f"THETA {it} {_fmt(rec.theta)}")
    for it, rec in enumerate(report.trace.iterations, start=1):
        out.append(
            f"TRACE {it} {_fmt(rec.objective_start)} {_fmt(rec.objective_end)} "
            f"{rec.inlier_count} {_fmt(rec.max_pose_update)}"
        )
    for it, rec in enumerate(report.trace.iterations, start=1):
        out.append(
            f"SOLVE {it} {rec.termination} {rec.iterations} {rec.factorizations} {rec.curvature_steps} "
            f"{rec.pcg_iterations} {rec.misses} {_fmt(rec.gradient_norm)}"
        )
    for (i, j), err, post, lab in zip(
        report.pairs, report.errors, report.posteriors, report.labels
    ):
        out.append(f"LOOP {i} {j} {_fmt(err)} {_fmt(post)} {1 if lab else 0}")
    for name in sorted(report.metrics):
        out.append(f"METRIC {name} {_fmt(report.metrics[name])}")
    return "\n".join(out) + "\n"


def parse_report_labels(text: str) -> dict[tuple[int, int], bool]:
    """Predicted labels from a report's LOOP rows, read as a graph is ('#'
    starts a comment); a second row for one loop is a ParseError."""
    out: dict[tuple[int, int], bool] = {}
    for no, parts in _Lines(text).rows:
        if parts[0] != "LOOP":
            continue
        if len(parts) != 6 or parts[5] not in ("0", "1"):
            raise ParseError(no, "malformed LOOP report row")
        pair = (_int(parts[1], no), _int(parts[2], no))
        if pair in out:
            raise ParseError(no, f"duplicate LOOP row for loop {pair}")
        out[pair] = parts[5] == "1"
    return out
