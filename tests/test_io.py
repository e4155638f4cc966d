import tracemalloc

import numpy as np
import pytest

from robustpgo import se3
from robustpgo.em import EmIteration, EmTrace
from robustpgo.graphio import (
    ParseError,
    RunReport,
    parse,
    parse_poses,
    parse_report_labels,
    write_graph,
    write_poses,
    write_poses_csv,
    write_report,
)
from robustpgo.model import LoopClosureConstraint, OdometryConstraint, ProblemGraph
from robustpgo.synth import ScenarioConfig, generate

MINIMAL = """# two fragments, one odometry constraint
PCG 1 2
ODOM 0 3
M 0 0 0  0 0 0
M 1 0 0  1 0 0
M 0 1 0  0 1 0
"""


def graphs_equal(a: ProblemGraph, b: ProblemGraph) -> bool:
    if a.num_fragments != b.num_fragments:
        return False
    if len(a.odometry) != len(b.odometry) or len(a.loops) != len(b.loops):
        return False
    for ca, cb in zip(a.odometry, b.odometry):
        if ca.i != cb.i or not np.array_equal(ca.p, cb.p) or not np.array_equal(ca.q, cb.q):
            return False
    for ca, cb in zip(a.loops, b.loops):
        if ca.pair != cb.pair or not np.array_equal(ca.p, cb.p) or not np.array_equal(ca.q, cb.q):
            return False
    for pa, pb in ((a.initial_poses, b.initial_poses), (a.ground_truth, b.ground_truth)):
        if (pa is None) != (pb is None):
            return False
        if pa is not None:
            for x, y in zip(pa, pb):
                if not (np.array_equal(x.quat, y.quat) and np.array_equal(x.trans, y.trans)):
                    return False
    return a.oracle_labels == b.oracle_labels


def random_graph(rng) -> ProblemGraph:
    n = int(rng.integers(2, 12))
    odometry = []
    for i in range(n - 1):
        k = int(rng.integers(1, 6))
        odometry.append(OdometryConstraint(i, rng.normal(size=(k, 3)), rng.normal(size=(k, 3))))
    loops = []
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    rng.shuffle(pairs)
    for i, j in pairs[: int(rng.integers(0, min(4, len(pairs)) + 1))]:
        k = int(rng.integers(1, 5))
        loops.append(LoopClosureConstraint(i, j, rng.normal(size=(k, 3)), rng.normal(size=(k, 3))))

    def rand_poses():
        return [
            se3.exp(np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(-9, 9, 3)]))
            for _ in range(n)
        ]

    labels = {c.pair: bool(rng.integers(0, 2)) for c in loops} if loops and rng.random() < 0.7 else None
    return ProblemGraph(
        num_fragments=n,
        odometry=odometry,
        loops=loops,
        initial_poses=rand_poses() if rng.random() < 0.5 else None,
        ground_truth=rand_poses() if rng.random() < 0.5 else None,
        oracle_labels=labels,
    )


class TestParse:
    def test_minimal_document(self):
        graph = parse(MINIMAL)
        assert graph.num_fragments == 2
        assert len(graph.odometry) == 1 and graph.odometry[0].size == 3
        assert graph.loops == [] and graph.initial_poses is None

    def test_comments_and_blank_lines_ignored(self):
        doc = "\n# hello\nPCG 1 2   # trailing comment\n\nODOM 0 1\nM 1 2 3 4 5 6\n"
        graph = parse(doc)
        np.testing.assert_array_equal(graph.odometry[0].p, [[1.0, 2.0, 3.0]])

    def test_round_trip_generated_scenario(self):
        graph = generate(ScenarioConfig(num_fragments=100, seed=5))
        assert graphs_equal(parse(write_graph(graph)), graph)

    def test_write_parse_write_fixpoint(self):
        graph = generate(ScenarioConfig(num_fragments=40, keyframe_stride=2, seed=8))
        once = write_graph(graph)
        assert write_graph(parse(once)) == once

    def test_crlf_document_parses_like_its_lf_twin(self):
        text = write_graph(generate(ScenarioConfig(num_fragments=20, seed=1)))
        assert graphs_equal(parse(text.replace("\n", "\r\n")), parse(text))

    def test_match_arrays_are_c_contiguous(self):
        graph = parse(write_graph(generate(ScenarioConfig(num_fragments=20, seed=1))))
        for c in graph.odometry + graph.loops:
            assert c.p.flags.c_contiguous and c.q.flags.c_contiguous

    def test_peak_memory_stays_within_three_times_the_text(self):
        """The parse splits one line at a time and holds one record's tokens,
        so its traced peak stays near the line list's size (about twice the
        text), not that of every line's tokens at once (7x)."""
        text = write_graph(generate(ScenarioConfig(num_fragments=100, seed=0)))
        tracemalloc.start()
        try:
            parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_fuzzed_round_trips(self):
        """100 random valid graphs survive parse(write(g)) == g."""
        rng = np.random.default_rng(123)
        for _ in range(100):
            graph = random_graph(rng)
            assert graphs_equal(parse(write_graph(graph)), graph)


MALFORMED = [
    ("", 1, "empty document"),
    ("FOO 1 2\n", 1, "expected header"),
    ("PCG 2 3\n", 1, "unsupported format version"),
    ("PCG 1 x\n", 1, "expected integer"),
    ("PCG 1 0\n", 1, "fragment count"),
    ("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\n", 4, "expected M record 2 of 2"),
    ("PCG 1 2\nODOM 0 1\nM 1 2 3 4 5\n", 3, "needs 6 numbers"),
    ("PCG 1 2\nM 1 2 3 4 5 6\n", 2, "stray M record"),
    ("PCG 1 2\nODOM 0 1\nM 1 2 3 4 5 six\n", 3, "expected number"),
    ("PCG 1 2\nODOM 0 -1\n", 2, "negative match count"),
    ("PCG 1 2\nINIT 0 1 2 3\n", 2, "INIT record needs"),
    ("PCG 1 2\nINIT 5 0 0 0 1 0 0 0\n", 2, "out of range"),
    ("PCG 1 2\nINIT 0 0 0 0 1 0 0 0\nINIT 0 0 0 0 1 0 0 0\n", 3, "duplicate INIT"),
    ("PCG 1 2\nINIT 0 0 0 0 1 0 0 0\n", 3, "INIT records incomplete"),
    ("PCG 1 3\nLABEL 0 2 5\n", 2, "LABEL value"),
    ("PCG 1 3\nLABEL 0 2 1\nLABEL 0 2 0\n", 3, "duplicate LABEL"),
    ("PCG 1 3\nEDGE 0 1\n", 2, "unknown record kind"),
    ("PCG 1 2\nODOM 0 1 9\n", 2, "ODOM record needs"),
    ("PCG 1 4\nLOOP 0 2\n", 2, "LOOP record needs"),
    # a record's numbers are converted in one batch, after its rows are read:
    # the first error in line order still wins
    ("PCG 1 2\nODOM 0 3\nM 1 2 x 4 5 6\nM 1 2 3 4 5 6\nM 1 2 3 4 5\n", 3, "expected number, got 'x'"),
    ("PCG 1 2\nODOM 0 3\nM 1 2 3 4 5 6\nM 1 2 3 4 5 y\n", 4, "expected number, got 'y'"),
    ("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\nM 1 2 3 4 5\nM 1 2 3 4 5 z\n", 4, "needs 6 numbers"),
    ("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\nLOOP 0 1 1\n", 4, "expected M record 2 of 2"),
    (
        "PCG 1 2\nODOM 0 3\n\nM 1 2 3 4 5 6\n# a comment\n   \nM 1 2 3 4 5 6  # tail\n\nM 1 2 3 4 five 6\n",
        9,
        "expected number, got 'five'",
    ),
    ("PCG 1 2\r\nODOM 0 2\r\nM 1 2 3 4 5 6\r\n\r\nM 1 2 3 4 5\r\n", 5, "needs 6 numbers"),
    ("PCG 1 2\nODOM 0 100000000000000000000\nM 1 2 3 4 5 6\n", 4, "expected M record 2 of"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("doc,line,fragment", MALFORMED, ids=range(len(MALFORMED)))
    def test_line_accurate_errors(self, doc, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert exc.value.line_no == line
        assert fragment in exc.value.reason

    def test_semantic_problems_defer_to_validate(self):
        # short loop parses fine; validate is the one to reject it
        doc = "PCG 1 3\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\nLOOP 0 1 1\nM 0 0 0 0 0 0\n"
        graph = parse(doc)
        from robustpgo.model import validate

        assert any(v.kind == "loop_too_short" for v in validate(graph))


class TestPoseIO:
    def test_identity_pose_lines(self):
        text = write_poses([se3.identity(), se3.identity()])
        assert text.splitlines()[0] == "POSE 0 0 0 0 1 0 0 0"

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        poses = [se3.exp(rng.uniform(-2, 2, 6)) for _ in range(7)]
        back = parse_poses(write_poses(poses))
        for a, b in zip(poses, back):
            np.testing.assert_array_equal(a.quat, b.quat)
            np.testing.assert_array_equal(a.trans, b.trans)

    def test_csv_export(self):
        rows = write_poses_csv([se3.identity()]).splitlines()
        assert rows[0] == "id,tx,ty,tz" and rows[1] == "0,0,0,0"

    def test_missing_pose_record(self):
        with pytest.raises(ParseError, match="missing POSE"):
            parse_poses("POSE 0 0 0 0 1 0 0 0\nPOSE 2 0 0 0 1 0 0 0\n")

    def test_duplicate_pose_record(self):
        with pytest.raises(ParseError, match="duplicate POSE"):
            parse_poses("POSE 0 0 0 0 1 0 0 0\nPOSE 0 0 0 0 1 0 0 0\n")

    def test_malformed_pose_line(self):
        with pytest.raises(ParseError) as exc:
            parse_poses("POSE 0 0 0 0 1 0 0\n")
        assert exc.value.line_no == 1


class TestReport:
    def make_report(self, pairs, labels):
        trace = EmTrace(
            iterations=[
                EmIteration(
                    iterations=2, objective_start=10.0, objective_end=8.0, termination="objective",
                    gradient_norm=0.0, errors=np.zeros(0), objective_path=[9.5, 8.0],
                    theta=9.0, inlier_count=len(pairs), max_pose_update=0.1,
                )
            ],
            converged=True,
        )
        return RunReport(
            mode="cauchy",
            pairs=pairs,
            errors=np.arange(len(pairs), dtype=float),
            posteriors=np.linspace(0.1, 0.9, len(pairs)),
            labels=np.asarray(labels, dtype=bool),
            trace=trace,
            metrics={"ate_mean": 0.25},
        )

    def test_zero_loops_zero_rows(self):
        text = write_report(self.make_report([], []))
        assert not any(line.startswith("LOOP") for line in text.splitlines())
        assert "CONVERGED 1" in text

    def test_loop_rows_and_label_parse(self):
        report = self.make_report([(0, 5), (2, 9)], [False, True])
        text = write_report(report)
        loops = [l for l in text.splitlines() if l.startswith("LOOP")]
        assert len(loops) == 2
        assert parse_report_labels(text) == {(0, 5): False, (2, 9): True}

    def test_theta_and_trace_rows(self):
        text = write_report(self.make_report([(0, 5)], [True]))
        lines = text.splitlines()
        assert any(l.startswith("THETA 1 ") for l in lines)
        assert any(l.startswith("TRACE 1 ") for l in lines)
        assert "METRIC ate_mean 0.25" in text
