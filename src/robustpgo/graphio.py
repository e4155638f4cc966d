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

A document is read in bulk first. That reading makes one pass over the
lines. An ODOM/LOOP record whose k raw lines are plain M rows (after any
leading whitespace, `M` and a space or tab, and no '#') is deferred; after
the pass every deferred row, its `M` dropped, is converted by one
np.loadtxt call, and any other record by the M row reader, which checks and
converts each row as it reads it. Each INIT, GT or POSE row is checked
as it is read and queued; `_Lines.build_poses` builds the queue with one
`se3.unstack`, and one by one only to name a row it refuses: in bulk at the
end of each run of one kind with no '#' on any row, and read row by row
once the reading ends or fails. When the bulk reading raises a ParseError,
or a ValueError from loadtxt, the document is read again row by row, and
every M record goes to the row reader. That reading returns the result or
raises a ParseError that names the first bad line, with its row's reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .em import EmTrace
from .model import LoopClosureConstraint, OdometryConstraint, ProblemGraph
from .se3 import Pose, unstack


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
    r"""Token stream over non-empty, comment-stripped lines, which end at '\n',
    for one reading of a document: in bulk, or row by row. `raw` holds them
    and `at` the index of the next one to read; `rows` yields (line number,
    tokens) from that cursor, splitting each line only when it reaches it. A
    reader that takes a run of raw lines at once moves the same cursor."""

    def __init__(self, text: str, bulk: bool = False):
        self.raw = text.split("\n")
        if not self.raw[-1]:  # the empty piece after a final '\n', or of ""
            self.raw.pop()
        self.last_no = len(self.raw) + 1
        self.bulk = bulk
        self.at = 0
        self.rows = self._rows()
        # pose rows checked and queued, not built yet: (line number, store, id, 7 number tokens)
        self.pending: list[tuple[int, dict, int, list[str]]] = []

    def _rows(self):
        raw = self.raw
        while self.at < len(raw):
            line = raw[self.at]
            self.at += 1
            if parts := line.split("#", 1)[0].split():
                yield self.at, parts

    def build_poses(self) -> None:
        """Builds the queued pose rows into their stores: converted by
        `float`, checked finite and built by one `unstack`, or, where a step
        refuses a row, one by one, so the ParseError names the first row."""
        if not self.pending:
            return
        nos, stores, ids, rows = zip(*self.pending)
        self.pending = []
        try:
            block = np.array([[*map(float, row)] for row in rows])
            if not np.isfinite(block).all():
                raise ValueError
            poses = unstack(block[:, 3:], block[:, :3])
        except ValueError:
            poses = [_pose(no, row) for no, row in zip(nos, rows)]
        for store, idx, pose in zip(stores, ids, poses):
            store[idx] = pose


def _pose(no: int, tokens: list[str]) -> Pose:
    """The pose of the 7 number tokens of line `no`."""
    row = np.array([_float(v, no) for v in tokens])
    if not np.isfinite(row).all():
        raise ParseError(no, "pose values must be finite")
    try:
        return unstack(row[3:], row[:3])[0]
    except ValueError as err:
        raise ParseError(no, str(err)) from None


def _read(reader, text: str):
    """reader(lines) over `text` read in bulk, or, when that reading raises a
    ParseError or a ValueError, over `text` read again row by row. This is
    the one place that decides which reading names an error: the second
    returns the result or raises the first bad line, with its reason."""
    try:
        return reader(_Lines(text, bulk=True))
    except (ParseError, ValueError):
        pass  # the second reading starts once the first one's lines are freed
    lines = _Lines(text)
    try:
        return reader(lines)
    except ParseError:
        lines.build_poses()  # a row it refuses lies on a line before the error's
        raise


_POSE_USAGE = "expected: POSE <id> tx ty tz qw qx qy qz"


def _read_poses(lines: _Lines, no: int, parts: list[str], store: dict[int, Pose], n: int | None) -> None:
    """Queues the run of pose rows that starts with `parts`, the INIT, GT or
    POSE row on line `no` that `lines` read last, each checked as it is read
    and held in `store` until `lines.build_poses` builds it. Read in bulk,
    the run is that row and the raw lines right after it of the same kind,
    none with a '#', built when it ends; read row by row, it is one row.
    `n` is the graph's fragment count, or None for a pose file."""
    kind, raw = parts[0], lines.raw
    at = no
    while True:
        if len(parts) != 9:
            raise ParseError(at, _POSE_USAGE if n is None else f"{kind} record needs id plus 7 numbers")
        idx = _int(parts[1], at)
        if n is None and idx < 0:
            raise ParseError(at, f"POSE id {idx} is negative")
        if n is not None and not 0 <= idx < n:
            raise ParseError(at, f"{kind} id {idx} out of range [0, {n - 1}]")
        if idx in store:
            raise ParseError(at, f"duplicate {kind} record for fragment {idx}")
        store[idx] = None
        lines.pending.append((at, store, idx, parts[2:]))
        if not lines.bulk or "#" in raw[no - 1] or at == len(raw) or "#" in raw[at] or (parts := raw[at].split())[:1] != [kind]:
            break
        at += 1
    lines.at = at
    if lines.bulk:
        lines.build_poses()


def _by_id(store: dict[int, Pose], n: int, no: int, missing: str) -> list[Pose]:
    """The poses of ids 0 to n - 1; a ParseError on line `no` names the lowest
    id `store` lacks, after the words `missing`."""
    # ids are not negative, so the lowest missing one is at most len(store)
    lowest = min(set(range(len(store) + 1)) - store.keys())
    if lowest < n:
        raise ParseError(no, f"{missing} {lowest}")
    return [store[i] for i in range(n)]


@dataclass
class _Matches:
    """The `count` M rows of an ODOM/LOOP record, from raw line `start` on;
    p and q, each (count, 3) and C-contiguous, once they are read."""

    what: str
    start: int
    count: int
    p: np.ndarray | None = None
    q: np.ndarray | None = None


_PLAIN_HEADS = {"M ", "M\t"}
_HEAD = itemgetter(slice(2))


def _read_matches(lines: _Lines, count: int, what: str, header_no: int, deferred: list[_Matches]) -> _Matches:
    """The `count` M rows after a record's header, on line header_no. In a
    bulk reading plain M rows are deferred: after any leading whitespace each
    raw line is `M` and a space or tab, and none holds a '#', so the row
    reader would take exactly these lines, none blank or a comment. The
    cursor moves past them and the record joins `deferred`, which
    `_read_deferred` converts after the pass. Any other rows, and every row
    read row by row, are read now by the row reader."""
    if count < 0:
        raise ParseError(header_no, f"negative match count {count}")
    matches = _Matches(what, lines.at, count)
    seg = lines.raw[lines.at : lines.at + count]
    if (
        lines.bulk
        and count
        and len(seg) == count
        and set(map(_HEAD, map(str.lstrip, seg))) <= _PLAIN_HEADS
        and "#" not in "".join(seg)
    ):
        lines.at += count
        deferred.append(matches)
    else:
        _read_rows(lines, matches)
    return matches


def _read_rows(lines: _Lines, matches: _Matches) -> None:
    """Reads the record's rows from the cursor, each checked and converted as
    it is read; a ParseError names the first bad row or number in line order."""
    count, what = matches.count, matches.what
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
    block = np.array(vals).reshape(count, 6)
    matches.p, matches.q = np.ascontiguousarray(block[:, :3]), np.ascontiguousarray(block[:, 3:])


def _read_deferred(lines: _Lines, deferred: list[_Matches]) -> None:
    r"""Converts the deferred records' rows, their `M` dropped, with one
    np.loadtxt: its C tokenizer splits on the whitespace `str.split` splits
    on, and its correctly rounded conversion gives the bits `float` gives.
    It takes no `usecols`, so a row of 7 numbers fails the shape check.
    When loadtxt refuses the rows (a token only `float` takes, such as
    `1_0`, or a '\r' inside a row) or returns another shape, a ValueError
    ends the bulk reading."""
    if not deferred:
        return  # loadtxt warns on empty input
    raw = lines.raw
    rows = (line.lstrip()[1:] for m in deferred for line in raw[m.start : m.start + m.count])
    vals = np.loadtxt(rows, comments=None, ndmin=2)
    if vals.shape != (sum(m.count for m in deferred), 6):
        raise ValueError(f"M rows of shape {vals.shape}")
    p, q = np.ascontiguousarray(vals[:, :3]), np.ascontiguousarray(vals[:, 3:])
    at = 0
    for m in deferred:
        m.p, m.q = p[at : at + m.count], q[at : at + m.count]
        at += m.count


def parse(text: str) -> ProblemGraph:
    """Parse a graph document; raises ParseError with the offending line number.

    Only syntax is enforced here; semantic rules (missing odometry, short
    loops, duplicates) are left to model.validate.
    """
    return _read(_parse_graph, text)


def _parse_graph(lines: _Lines) -> ProblemGraph:
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
    odometry: list[tuple[int, _Matches]] = []
    loops: list[tuple[int, int, _Matches]] = []
    labels: dict[tuple[int, int], bool] = {}
    deferred: list[_Matches] = []

    for no, parts in lines.rows:
        kind = parts[0]
        if kind in ("INIT", "GT"):
            _read_poses(lines, no, parts, init if kind == "INIT" else gt, n)
        elif kind == "ODOM":
            if len(parts) != 3:
                raise ParseError(no, "ODOM record needs <i> <match count>")
            i = _int(parts[1], no)
            odometry.append((i, _read_matches(lines, _int(parts[2], no), f"ODOM {i}", no, deferred)))
        elif kind == "LOOP":
            if len(parts) != 4:
                raise ParseError(no, "LOOP record needs <i> <j> <match count>")
            i = _int(parts[1], no)
            j = _int(parts[2], no)
            loops.append((i, j, _read_matches(lines, _int(parts[3], no), f"LOOP {i} {j}", no, deferred)))
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
    _read_deferred(lines, deferred)
    lines.build_poses()

    def _collect(store: dict[int, Pose], kind: str) -> list[Pose] | None:
        return _by_id(store, n, lines.last_no, f"{kind} records incomplete: missing fragment") if store else None

    return ProblemGraph(
        num_fragments=n,
        odometry=[OdometryConstraint(i, m.p, m.q) for i, m in odometry],
        loops=[LoopClosureConstraint(i, j, m.p, m.q) for i, j, m in loops],
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
    for c in graph.odometry:
        out.append(f"ODOM {c.i} {c.size}")
        out.extend(_match_lines(c.p, c.q))
    for c in graph.loops:
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
    return _read(_parse_poses, text)


def _parse_poses(lines: _Lines) -> list[Pose]:
    store: dict[int, Pose] = {}
    for no, parts in lines.rows:
        if parts[0] != "POSE":
            raise ParseError(no, _POSE_USAGE)
        _read_poses(lines, no, parts, store, None)
    lines.build_poses()
    return _by_id(store, len(store), lines.last_no, "missing POSE record")


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
