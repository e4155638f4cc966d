import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpgo import graphio, se3
from robustpgo.em import EmIteration, EmTrace, classify_loops, run_em
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
from robustpgo.model import Hyperparams, LoopClosureConstraint, OdometryConstraint, ProblemGraph
from robustpgo.synth import ScenarioConfig, generate
from test_fuzz import BASES, EVAL_BASE, edits, mutate, spaces
from test_se3 import near_unit_quats

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
            se3.Pose(*se3.exp_arrays(np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(-9, 9, 3)])))
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
        """The parse holds the text's line list and the numbers of every M
        row, which one np.loadtxt call converts after the pass, and never
        every line's tokens at once (7x), so its traced peak stays near
        2.4 times the text."""
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


def with_comments(text: str) -> str:
    r"""`text` with ' # x' after every M row, which sends each record's rows
    to the row reader; lines end at '\n', and a '\r' before it is kept."""
    out = []
    for line in text.split("\n"):
        body = line.rstrip("\r")
        out.append(body + " # x" + line[len(body):] if body.split()[:1] == ["M"] else line)
    return "\n".join(out)


def parse_tracking_bulk(text: str):
    """parse(text), and per ODOM/LOOP record of the reading that returned the
    graph whether its M rows were converted in bulk, by the one np.loadtxt
    call, and not by the row reader. A document that the bulk reading
    refuses is read again row by row; each reading makes its own `_Lines`."""
    records, by_rows = [], []
    read_matches, read_rows, new_lines = graphio._read_matches, graphio._read_rows, graphio._Lines

    def spy_lines(*args, **kwargs):
        records.clear()
        by_rows.clear()
        return new_lines(*args, **kwargs)

    def spy_matches(*args):
        records.append(read_matches(*args))
        return records[-1]

    def spy_rows(lines, matches):
        by_rows.append(id(matches))
        read_rows(lines, matches)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_read_matches", spy_matches)
        mp.setattr(graphio, "_read_rows", spy_rows)
        mp.setattr(graphio, "_Lines", spy_lines)
        graph = parse(text)
    return graph, [id(m) not in by_rows for m in records]


def parse_error(text: str) -> tuple[int, str]:
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value.line_no, exc.value.reason


def match_bytes(graph: ProblemGraph) -> list[bytes]:
    return [c.p.tobytes() + c.q.tobytes() for c in graph.odometry + graph.loops]


SPACES = ["\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u2029"]
LINE_RULE_DOC = (
    "PCG 1 3\nODOM 0 2\nM 1 2 3 4 5 6\nM 1 2 3{row}4 5 6\n# a{comment}ODOM is here\n{between}\n"
    "ODOM 1 1\nM 0.5 1 1.5 2 2.5 3\nLOOP 0 2 1\nM 1 1 1 2 2 2\n"
)


class TestBlockReader:
    """A record whose raw lines are plain M rows waits for the one np.loadtxt
    call after the pass; when loadtxt refuses the rows, the row reader reads
    every waiting record. Each document is parsed as written and with a
    comment on every M row, which is never converted in bulk: both must give
    the same graph, or the same error."""

    def assert_readers_agree(self, text: str, bulk: bool = True):
        graph, taken = parse_tracking_bulk(text)
        commented, taken_commented = parse_tracking_bulk(with_comments(text))
        assert taken and all(taken) == bulk and not any(taken_commented)
        assert write_graph(graph) == write_graph(commented) and match_bytes(graph) == match_bytes(commented)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda line: line,
            lambda line: line.replace(" ", "\t"),
            lambda line: "   " + line.replace(" ", " \t "),
            lambda line: line + "\r",
        ],
        ids=["as-written", "tabs", "leading-space", "crlf"],
    )
    def test_fuzzed_documents(self, layout):
        rng = np.random.default_rng(7)
        texts = [write_graph(random_graph(rng)) for _ in range(30)]
        texts.append(write_graph(generate(ScenarioConfig(num_fragments=30, keyframe_stride=1, seed=2))))
        for text in texts:
            self.assert_readers_agree("".join(layout(line) + "\n" for line in text.splitlines()))

    def test_a_comment_glued_to_a_number(self):
        text = write_graph(generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=4)))
        glued = "".join(f"{line}#c\n" if line.startswith("M ") else f"{line}\n" for line in text.splitlines())
        self.assert_readers_agree(glued, bulk=False)
        assert graphs_equal(parse(glued), parse(text))

    @pytest.mark.parametrize("token", ["1_0", "+.5", "-0", "inf", "-Infinity", "nan", "1E5", "\u0661\u0662"])
    def test_tokens_float_accepts(self, token):
        """loadtxt takes the tokens `float` takes, but for underscores and
        digits outside ASCII, which send the rows to the row reader."""
        text = f"PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\nM 1 {token} 3 4 5 {token}\n"
        self.assert_readers_agree(text, bulk=token.isascii() and "_" not in token)
        odom = parse(text).odometry[0]
        row = np.concatenate([odom.p[1], odom.q[1]])
        assert np.array_equal(row, [1, float(token), 3, 4, 5, float(token)], equal_nan=True)

    @pytest.mark.parametrize("space", SPACES, ids=ascii)
    @pytest.mark.parametrize("where", ["row", "comment", "between"])
    def test_whitespace_that_ends_no_line(self, where, space):
        r"""A character `str.isspace` accepts, other than '\n', inside an M
        row, inside a comment or on a line of its own between two records
        reads as a plain space there, and line numbers count '\n' only.
        loadtxt ends a line at a '\r', so one inside a row sends the rows to
        the row reader."""
        slots = {"row": " ", "comment": " ", "between": " "}
        plain = LINE_RULE_DOC.format(**slots)
        text = LINE_RULE_DOC.format(**{**slots, where: space})
        self.assert_readers_agree(text, bulk=(where, space) != ("row", "\r"))
        assert write_graph(parse(text)) == write_graph(parse(plain))
        for doc in (text, with_comments(text)):
            with pytest.raises(ParseError) as exc:
                parse(doc + "M 1 2 3 4 5 6\n")
            assert (exc.value.line_no, exc.value.reason) == (11, "stray M record outside ODOM/LOOP")

    @pytest.mark.parametrize("token", ["0x1p3", "1__0", "_1", "1_"])
    def test_tokens_float_refuses(self, token):
        text = f"PCG 1 2\nODOM 0 3\nM 1 2 3 4 5 6\nM 1 2 {token} 4 5 6\nM 1 2 3 4 5 6\n"
        errors = []
        for doc in (text, with_comments(text)):
            with pytest.raises(ParseError) as exc:
                parse(doc)
            errors.append((exc.value.line_no, exc.value.reason))
        assert errors == [(4, f"expected number, got {token!r}")] * 2

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\u0661\u0662", 12.0), ("\r", None)])
    def test_one_record_that_loadtxt_refuses(self, token, value):
        """One record among many whose row holds a token only `float` takes,
        or a '\r' inside it, sends every waiting record to the row reader,
        and the document parses as its commented twin does."""
        lines = write_graph(generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=6))).split("\n")
        at = [k for k, line in enumerate(lines) if line.startswith("M ")][40]
        row = lines[at].split()
        if value is None:  # a separator
            lines[at] = " ".join(row[:3]) + token + " ".join(row[3:])
        else:
            lines[at] = " ".join(row[:3] + [token] + row[4:])
        text = "\n".join(lines)
        graph, taken = parse_tracking_bulk(text)
        commented, _ = parse_tracking_bulk(with_comments(text))
        assert len(taken) > 20 and not any(taken)
        assert write_graph(graph) == write_graph(commented) and match_bytes(graph) == match_bytes(commented)
        if value is not None:
            assert value in np.concatenate([c.p for c in graph.odometry + graph.loops])

    def test_a_bad_row_before_a_bad_header(self):
        """A bad number in the 3rd record is reported, not the malformed
        header after the 5th that stops the pass with the 3rd still waiting."""
        doc = "PCG 1 7\n" + "".join(f"ODOM {i} 2\nM 1 2 3 4 5 6\nM 1 2 3 4 5 6\n" for i in range(6))
        lines = doc.split("\n")
        lines[8] = "M 1 2 3 4 5 x"  # line 9, the 3rd record's first row
        lines[16] = "ODOM 5"  # line 17, the 6th record's header
        doc = "\n".join(lines)
        for text in (doc, with_comments(doc)):
            assert parse_error(text) == (9, "expected number, got 'x'")

    def test_rows_of_seven_numbers(self):
        """Every row holds 7 numbers: loadtxt reads them all, as it takes no
        `usecols`, and the shape sends them to the row reader, which fails
        the first, as before."""
        doc = "PCG 1 3\nODOM 0 2\nM 1 2 3 4 5 6 7\nM 1 2 3 4 5 6 7\nODOM 1 1\nM 1 2 3 4 5 6 7\n"
        for text in (doc, with_comments(doc)):
            assert parse_error(text) == (3, "M record needs 6 numbers, got 7")


I = "0 0 0 1 0 0 0"  # the identity pose's fields
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
    # a record's rows are checked and converted in line order: the first
    # error in line order wins
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
    # the first missing pose is found from the records, not by a scan of the header's count
    ("PCG 1 2000000000\nGT 0 0 0 0 1 0 0 0\nGT 2 0 0 0 1 0 0 0\n", 4, "GT records incomplete: missing fragment 1"),
    ("PCG 1 2000000000\nINIT 1 0 0 0 1 0 0 0\n", 3, "INIT records incomplete: missing fragment 0"),
    # a record's rows are first tried as one block; each case here fails that
    # block's checks and is decided, as before, row by row. The tokens of
    # these two rows line up in sevens, but the first row has 7 numbers:
    ("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6 M\n1 2 3 4 5 6\n", 3, "needs 6 numbers, got 7"),
    # a form feed inside a row, or a line separator inside a comment, is
    # whitespace: lines end at '\n' only
    ("PCG 1 2\nODOM 0 1\nM 1 2 3\x0c4 5\n", 3, "needs 6 numbers, got 5"),
    ("PCG 1 2\n# a\u2028b\nODOM 0 2\nM 1 2 3 4 5 6\nM 1 2 3 4 5\n", 5, "needs 6 numbers, got 5"),
    # a row of 7 tokens whose first is not M
    ("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\nm 1 2 3 4 5 6\n", 4, "expected M record 2 of 2 for ODOM 0"),
    # the block runs into the next record's header
    ("PCG 1 3\nODOM 0 2\nM 1 2 3 4 5 6\nODOM 1 1\nM 1 2 3 4 5 6\n", 4, "expected M record 2 of 2 for ODOM 0"),
    # a run of INIT or GT rows fails a check at a later row, and the error
    # names that row
    (f"PCG 1 3\nGT 0 {I}\nGT 1 0 0 0 1 0 0\n", 3, "GT record needs id plus 7 numbers"),
    (f"PCG 1 3\nINIT 0 {I}\nINIT 1 {I}\nINIT one {I}\n", 4, "expected integer, got 'one'"),
    (f"PCG 1 3\nGT 0 {I}\nGT 3 {I}\n", 3, "GT id 3 out of range [0, 2]"),
    (f"PCG 1 3\nINIT 0 {I}\nINIT 1 {I}\nINIT 1 {I}\n", 4, "duplicate INIT record for fragment 1"),
    (f"PCG 1 3\nINIT 0 {I}\nGT 0 {I}\nINIT 0 {I}\n", 4, "duplicate INIT record for fragment 0"),
    (f"PCG 1 3\nGT 0 {I}\nGT 1 0 0 nan 1 0 0 0\n", 3, "pose values must be finite"),
    (f"PCG 1 3\nINIT 0 {I}\nINIT 1 0 0 0 0 0 0 0\n", 3, "quaternion norm too small to normalize"),
    (f"PCG 1 3\nGT 0 {I}\nGT 1 {I}\nGT 2 0 0 0 1e200 0 0 0\n", 4, "quaternion norm too large to normalize"),
    # a refused quaternion is found when its run is built, and still comes
    # before an error on a later row of that run
    (f"PCG 1 4\nGT 0 {I}\nGT 1 0 0 0 0 0 0 0\nGT two {I}\n", 3, "quaternion norm too small to normalize"),
    (f"PCG 1 4\nGT 0 {I}\nGT 1 0 0 0 0 0 0 0\nGT 1 {I}\n", 3, "quaternion norm too small to normalize"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("doc,line,fragment", MALFORMED, ids=range(len(MALFORMED)))
    def test_line_accurate_errors(self, doc, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert exc.value.line_no == line
        assert fragment in exc.value.reason

    def test_form_feed_in_a_comment_is_whitespace(self):
        graph = parse("PCG 1 2\n# a\x0cODOM is here\nODOM 0 1\nM 1 2 3 4 5 6\n")
        assert len(graph.odometry) == 1 and graph.odometry[0].size == 1

    def test_line_numbers_count_newlines_only(self):
        with pytest.raises(ParseError) as exc:
            parse("PCG 1 2\n# note\x85\nODOM 0 1\nM 1 2 3 4 5\n")
        assert exc.value.line_no == 4 and exc.value.reason == "M record needs 6 numbers, got 5"

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
        poses = [se3.Pose(*se3.exp_arrays(rng.uniform(-2, 2, 6))) for _ in range(7)]
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

    def test_negative_pose_record(self):
        with pytest.raises(ParseError) as exc:
            parse_poses("POSE -1 0 0 0 1 0 0 0\nPOSE 0 0 0 0 1 0 0 0\n")
        assert (exc.value.line_no, exc.value.reason) == (1, "POSE id -1 is negative")

    def test_a_refused_quaternion_before_a_negative_id(self):
        with pytest.raises(ParseError) as exc:
            parse_poses("POSE 0 0 0 0 1 0 0 0\nPOSE 1 0 0 0 1e200 0 0 0\nPOSE -1 0 0 0 1 0 0 0\n")
        assert (exc.value.line_no, exc.value.reason) == (2, "quaternion norm too large to normalize")

    def test_duplicate_pose_record(self):
        with pytest.raises(ParseError, match="duplicate POSE"):
            parse_poses("POSE 0 0 0 0 1 0 0 0\nPOSE 0 0 0 0 1 0 0 0\n")

    def test_malformed_pose_line(self):
        with pytest.raises(ParseError) as exc:
            parse_poses("POSE 0 0 0 0 1 0 0\n")
        assert exc.value.line_no == 1


@st.composite
def pose_runs(draw):
    """Fields of 1 to 12 poses as write_poses writes them, in a random id
    order, with quaternions as `near_unit_quats` draws them."""
    n = draw(st.integers(1, 12))
    quats = [draw(near_unit_quats()) for _ in range(n)]
    trans = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return [f"{i} " + " ".join(map(graphio._fmt, [*trans[i], *quats[i]])) for i in order]


def parse_counting_batches(parse_fn, text: str):
    """parse_fn(text), and how many times it called `unstack`."""
    calls = []
    unstack = graphio.unstack

    def spy(*args):
        calls.append(args[0])
        return unstack(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "unstack", spy)
        return parse_fn(text), len(calls)


def pose_bytes(poses) -> bytes:
    return b"".join(p.quat.tobytes() + p.trans.tobytes() for p in poses)


class TestPoseRuns:
    @settings(max_examples=60, deadline=None)
    @given(pose_runs(), pose_runs())
    def test_a_run_is_one_batch_with_the_bits_of_its_rows(self, init, gt):
        """An INIT, GT or POSE run's poses are built by one `unstack` call; a
        comment on every row makes each row a run of its own, and the poses
        are the same, bit for bit."""
        n = min(len(init), len(gt))
        init = [row for row in init if int(row.split()[0]) < n]
        gt = [row for row in gt if int(row.split()[0]) < n]
        plain = f"PCG 1 {n}\n" + "".join(f"INIT {r}\n" for r in init) + "".join(f"GT {r}\n" for r in gt)
        commented = plain.replace("\n", " # c\n")
        graph, batches = parse_counting_batches(parse, plain)
        by_rows, all_batches = parse_counting_batches(parse, commented)
        assert (batches, all_batches) == (2, 2 * n)
        assert pose_bytes(graph.initial_poses) == pose_bytes(by_rows.initial_poses)
        assert pose_bytes(graph.ground_truth) == pose_bytes(by_rows.ground_truth)
        text = "".join(f"POSE {r}\n" for r in init)
        poses, batches = parse_counting_batches(parse_poses, text)
        by_rows, all_batches = parse_counting_batches(parse_poses, text.replace("\n", "#\n"))
        assert (batches, all_batches) == (1, n)
        assert pose_bytes(poses) == pose_bytes(by_rows) == pose_bytes(graph.initial_poses)

    def test_a_duplicate_at_the_end_of_a_long_run(self):
        """Read row by row, each row is checked as it is read, and the rows
        read are built with one `unstack`, not one a row."""
        text = "PCG 1 5000\n" + "".join(f"GT {i} {I}\n" for i in range(5000)) + f"GT 0 {I}\n"
        error, batches = parse_counting_batches(parse_error, text)
        assert error == (5002, "duplicate GT record for fragment 0")
        assert batches <= 2

    @pytest.mark.parametrize("after", ["", f"GT 0 {I}\n", "M 1 2 3 4 5 6\n"])
    def test_a_quaternion_refused_before_a_later_error_is_the_one_named(self, after):
        """Read row by row, the rows are built once the reading ends or
        fails, and one by one where a quaternion is refused: the first bad
        line is named, as if each row were built as it was read."""
        rows = [f"GT {i} {I}" for i in range(6)]
        rows[2] = "GT 2 0 0 0 0 0 0 0"
        rows[4] = "GT 4 0 0 0 1e200 1e200 0 0"
        text = "PCG 1 6\n" + "".join(f"{row}\n" for row in rows) + after
        assert parse_error(text) == (4, "quaternion norm too small to normalize")
        assert parse_error(text.replace("GT 2 0 0 0 0 0 0 0", f"GT 2 {I}")) == (6, "quaternion norm too large to normalize")

    @pytest.mark.parametrize(
        "rows, batches",
        [
            ([f"INIT {i} {I}" + (" # c" if i == 2 else "") for i in range(6)], 3),
            ([f"INIT {i} {I}" + (" # c" if i == 0 else "") for i in range(6)], 2),
            ([f"INIT {i} {I}" + (" # c" if i == 5 else "") for i in range(6)], 2),
            ([f"INIT 0 {I}", f"INIT 1 {I}", "", f"INIT 2 {I}", f"INIT 3 {I}"], 2),
            ([f"INIT 0 {I}", f"INIT 1 {I}", "# c", f"INIT 2 {I}", f"INIT 3 {I}"], 2),
            ([f"{kind} {i} {I}" for i in range(3) for kind in ("INIT", "GT")], 6),
            ([f"INIT 0 {I}", "ODOM 0 1", "M 1 2 3 4 5 6", f"INIT 1 {I}", f"INIT 2 {I}"], 2),
            ([f"INIT 0 {I}", f"  INIT 1 {I}", f"\tINIT 2 {I}", f"   INIT 3 {I}"], 1),
            ([f"POSE {i} {I}" + (" # c" if i in (1, 2) else "") for i in range(5)], 4),
        ],
        ids=["comment-mid", "comment-first", "comment-last", "blank-line", "comment-line",
             "interleaved", "odom-between", "leading-space", "pose-file"],
    )
    def test_a_run_is_adjacent_rows_of_one_kind_with_no_comment(self, rows, batches):
        """Read in bulk, a run of pose rows ends at a row of another kind, at
        any line that is not a pose row of its kind, and at a '#': a row
        with a comment is a run of its own. Each run is one `unstack`."""
        text = "".join(f"{row}\n" for row in rows)
        if rows[0].startswith("POSE"):
            assert parse_counting_batches(parse_poses, text)[1] == batches
        else:
            n = sum(row.lstrip().startswith("INIT") for row in rows)
            assert parse_counting_batches(parse, f"PCG 1 {n}\n{text}")[1] == batches


def count_readings(parse_fn, text: str) -> int:
    """How many times parse_fn(text) reads the document: each reading makes
    its own `_Lines`."""
    made = []
    new_lines = graphio._Lines

    def spy(*args, **kwargs):
        made.append(1)
        return new_lines(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphio, "_Lines", spy)
        parse_fn(text)
    return len(made)


# `mutate` token edits to numbers `float` takes: loadtxt refuses the first two
NUMBERS = st.tuples(st.just("token"), st.integers(0, 999), st.integers(0, 9), st.sampled_from(["1_0", "\u0661", "2.5"]))


class TestReadingRule:
    """A document is read in bulk; when that reading fails, it is read again
    row by row, and that reading returns the result or names the error."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.sampled_from([0, 1, 2]),
        st.lists(
            st.one_of(spaces(), edits("token", "zero_quat", "delete", "duplicate", "split", "extra"), NUMBERS),
            min_size=1, max_size=2,
        ),
    )
    def test_a_bulk_reading_gives_what_the_row_reading_gives(self, base, changes):
        """Fuzzed graphs and POSE files: the bulk reading fails, or gives the
        graph text, match bytes and poses that the row-by-row reading gives."""
        if base == 2:
            read, bits = graphio._parse_poses, pose_bytes
        else:
            read, bits = graphio._parse_graph, lambda g: (write_graph(g), match_bytes(g))
        text = mutate([*BASES, EVAL_BASE[1]][base], changes)
        try:
            bulk = read(graphio._Lines(text, bulk=True))
        except (ParseError, ValueError):
            return
        assert bits(read(graphio._Lines(text))) == bits(bulk)

    def test_documents_read_twice_are_the_ones_bulk_refuses(self):
        r"""A valid document is read once, in bulk, as written, with a comment
        on every M row, or with CRLF line ends, whose '\r' loadtxt takes at
        a row's end; one token that only `float` takes makes two readings."""
        graph = generate(ScenarioConfig(num_fragments=100, seed=0))
        text = write_graph(graph)
        lines = text.split("\n")
        at = next(k for k, line in enumerate(lines) if line.startswith("M "))
        lines[at] = " ".join(lines[at].split()[:-1] + ["1_0"])
        docs = [text, with_comments(text), text.replace("\n", "\r\n"), "\n".join(lines)]
        assert [count_readings(parse, doc) for doc in docs] == [1, 1, 1, 2]
        assert count_readings(parse_poses, write_poses(graph.ground_truth)) == 1


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

    def test_label_parse_reads_comments_as_the_graph_does(self):
        lines = write_report(self.make_report([(0, 5), (2, 9)], [False, True])).splitlines()
        text = "".join(f"{line}  # checked\n" if line.startswith("LOOP") else f"{line}\n" for line in lines)
        assert parse_report_labels(text) == {(0, 5): False, (2, 9): True}

    def test_label_parse_rejects_a_repeated_loop(self):
        """A second LOOP row for a pair is an error, as a second LABEL record
        is, not a row that silently wins."""
        text = write_report(self.make_report([(0, 5), (2, 9)], [False, True])) + "LOOP 0 5 0 0.9 1\n"
        with pytest.raises(ParseError) as exc:
            parse_report_labels(text)
        assert exc.value.line_no == len(text.splitlines())
        assert exc.value.reason == "duplicate LOOP row for loop (0, 5)"

    def test_theta_and_trace_rows(self):
        text = write_report(self.make_report([(0, 5)], [True]))
        lines = text.splitlines()
        assert any(l.startswith("THETA 1 ") for l in lines)
        assert any(l.startswith("TRACE 1 ") for l in lines)
        assert "METRIC ate_mean 0.25" in text

    def test_solve_rows_round_trip(self):
        """One SOLVE row per EM iteration holds its M-step's termination and
        counts and its gradient norm, which reads back bit for bit; the label
        parse still reads only the LOOP rows."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        poses, state, trace = run_em(graph, Hyperparams())
        labels = classify_loops(state)
        pairs = [c.pair for c in graph.loops]
        text = write_report(RunReport("cauchy", pairs, state.posteriors, state.posteriors, labels, trace))
        rows = [line.split() for line in text.splitlines() if line.startswith("SOLVE ")]
        assert len(trace) > 1 and len(rows) == len(trace)
        for it, (row, rec) in enumerate(zip(rows, trace.iterations), start=1):
            assert row[:8] == [
                "SOLVE", str(it), rec.termination, str(rec.iterations), str(rec.factorizations),
                str(rec.curvature_steps), str(rec.pcg_iterations), str(rec.misses),
            ]
            assert len(row) == 9 and float(row[8]) == rec.gradient_norm
        assert parse_report_labels(text) == dict(zip(pairs, labels.tolist()))
