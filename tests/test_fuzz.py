"""Mutation fuzzing of `robustpgo solve` and `robustpgo eval`: small valid
graph files, and POSE files for eval, with tokens, counts and values replaced
(NaN, inf, 1e308, 1e200, a ten-digit count, zero quaternions), lines dropped
or repeated, match rows split or joined, POSE rows added, and whitespace
that ends no line, or a lone carriage return, put inside a line; and of
`robustpgo simulate`, with each field of a small scenario config set to a
value out of its range or type. Every outcome must be a documented exit code,
with no uncaught exception and no warning."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpgo import cli, se3
from robustpgo.graphio import write_graph, write_poses
from robustpgo.model import LoopClosureConstraint, OdometryConstraint, ProblemGraph
from robustpgo.synth import ScenarioConfig, generate
from oracle import in_frame

DOCUMENTED = {0, 2, 3, 4, 5, 6, 7}
VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-1e200", "0", "-3", "2", "7", "2000000000", "x"]
SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"]


def base_graph(with_poses: bool) -> str:
    """Four fragments 10 m apart, exact odometry, one true and one false loop;
    with INIT, GT and LABEL records, or with none so the solve initializes
    from the odometry."""
    rng = np.random.default_rng(0)
    truth = [se3.Pose(*se3.exp_arrays(np.array([0.0, 0.0, 0.2 * k, 10.0 * k, 0.0, 0.0]))) for k in range(4)]

    def matches(i, j, k=4):
        world = truth[i].trans + rng.uniform(-3.0, 3.0, (k, 3))
        return (
            in_frame(truth[i], world),
            in_frame(truth[j], world),
        )

    odometry = [OdometryConstraint(i, *matches(i, i + 1)) for i in range(3)]
    true_loop = LoopClosureConstraint(0, 2, *matches(0, 2))
    false_loop = LoopClosureConstraint(1, 3, rng.uniform(-3, 3, (3, 3)), rng.uniform(-3, 3, (3, 3)))
    graph = ProblemGraph(
        4,
        odometry,
        [true_loop, false_loop],
        initial_poses=[se3.retract(p, np.full(6, 0.01)) for p in truth] if with_poses else None,
        ground_truth=truth if with_poses else None,
        oracle_labels={(0, 2): True, (1, 3): False} if with_poses else None,
    )
    return write_graph(graph)


BASES = [base_graph(True), base_graph(False)]


def eval_base() -> tuple[str, str, str]:
    """A 20-fragment scene with ground truth and oracle labels, its true
    poses, and a report that labels every loop an inlier."""
    graph = generate(ScenarioConfig(num_fragments=20, matches_per_constraint=3, seed=0))
    report = "".join(f"LOOP {c.i} {c.j} 0 0 1\n" for c in graph.loops)
    return write_graph(graph), write_poses(graph.ground_truth), report


EVAL_BASE = eval_base()


def edits(*kinds):
    return st.tuples(st.sampled_from(kinds), st.integers(0, 999), st.integers(0, 9), st.sampled_from(VALUES))


def spaces():
    """Edits that put one of SPACES at a column of a line."""
    return st.tuples(st.just("space"), st.integers(0, 999), st.integers(0, 999), st.sampled_from(SPACES))


def mutate(text: str, changes) -> str:
    lines = text.splitlines()
    for kind, k, j, value in changes:
        at = k % len(lines)
        if kind == "token":
            tokens = lines[at].split()
            tokens[j % len(tokens)] = value
            lines[at] = " ".join(tokens)
        elif kind == "zero_quat":
            poses = [n for n, line in enumerate(lines) if line.startswith(("INIT", "GT", "POSE"))]
            if poses:
                at = poses[k % len(poses)]
                lines[at] = " ".join(lines[at].split()[:5] + ["0"] * 4)
        elif kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "extra":
            lines.append(f"POSE {len(lines) + j} 0 0 0 1 0 0 0")
        elif kind == "space":
            column = j % (len(lines[at]) + 1)
            lines[at] = lines[at][:column] + value + lines[at][column:]
        elif kind == "split":
            rows = [n for n, line in enumerate(lines) if line.startswith("M ")]
            if rows:
                at = rows[k % len(rows)]
                if j < 6:  # the row's tokens after the first 1 + j go on a line of their own
                    tokens = lines[at].split()
                    lines[at : at + 1] = [" ".join(tokens[: 1 + j]), " ".join(tokens[1 + j :])]
                elif at + 1 < len(lines):  # the row and the next line become one
                    lines[at : at + 2] = [lines[at] + " " + lines[at + 1]]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.pcg"


def test_bases_solve_cleanly(graph_path):
    for text in BASES:
        graph_path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--in", str(graph_path)]) == cli.EXIT_OK


def run_quietly(argv):
    """The CLI's exit code, the warnings it raised and its stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse and I/O failures exit directly
                code = exc.code
    return code, [str(w.message) for w in caught], err.getvalue()


def assert_documented(argv):
    start = time.perf_counter()
    code, caught, err = run_quietly(argv)
    assert time.perf_counter() - start < 5.0  # no input costs more than its records
    assert code in DOCUMENTED
    assert caught == []
    assert "Warning" not in err and "Traceback" not in err


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from([0, 1]), st.sampled_from(["cauchy", "gaussian"]),
    st.lists(edits("token", "token", "zero_quat", "delete", "duplicate"), min_size=1, max_size=3),
)
def test_solve_exits_with_a_documented_code(graph_path, base, mode, changes):
    graph_path.write_text(mutate(BASES[base], changes))
    assert_documented(["solve", "--in", str(graph_path), "--mode", mode])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([0, 1]), st.lists(edits("split", "split", "token", "delete"), min_size=1, max_size=3))
def test_split_match_rows_exit_with_a_documented_code(graph_path, base, changes):
    """Match rows cut in two or joined to the next line, beside bad values:
    such a record goes to the row reader, and its errors reach the CLI as
    exit 3."""
    graph_path.write_text(mutate(BASES[base], changes))
    assert_documented(["solve", "--in", str(graph_path)])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([0, 1]), st.lists(spaces(), min_size=1, max_size=3))
def test_whitespace_in_lines_exits_with_a_documented_code(graph_path, base, changes):
    r"""Whitespace that ends no line in the parser, and a lone '\r', which the
    CLI's universal-newline read makes a line end, at random columns."""
    graph_path.write_text(mutate(BASES[base], changes), encoding="utf-8")
    assert_documented(["solve", "--in", str(graph_path)])


@pytest.fixture(scope="module")
def eval_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_eval")
    paths = [root / "graph.pcg", root / "poses.txt", root / "report.txt"]
    for path, text in zip(paths, EVAL_BASE):
        path.write_text(text)
    return paths


def eval_argv(paths):
    graph, poses, report = map(str, paths)
    return ["eval", "--graph", graph, "--poses", poses, "--labels-from-report", report]


def test_eval_base_scores_cleanly(eval_paths):
    assert run_quietly(eval_argv(eval_paths)) == (cli.EXIT_OK, [], "")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(edits("token", "token", "zero_quat", "delete", "duplicate", "extra"), min_size=1, max_size=3))
def test_eval_exits_with_a_documented_code(eval_paths, changes):
    """POSE files with rows dropped, repeated or added, and values replaced
    by NaN, inf, overflowing numbers or zero quaternions."""
    eval_paths[1].write_text(mutate(EVAL_BASE[1], changes))
    assert_documented(eval_argv(eval_paths))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([0, 1, 2]), st.lists(spaces(), min_size=1, max_size=3))
def test_eval_whitespace_in_lines_exits_with_a_documented_code(eval_paths, which, changes):
    """The same whitespace in the graph, POSE or report file of eval."""
    try:
        eval_paths[which].write_text(mutate(EVAL_BASE[which], changes), encoding="utf-8")
        assert_documented(eval_argv(eval_paths))
    finally:
        eval_paths[which].write_text(EVAL_BASE[which])


def test_huge_match_coordinate_solves_cleanly(tmp_path):
    """A match coordinate of 1e154 puts s / sigma^2 past the float range,
    where the cauchy kernel is still ~710: every objective stays finite, so
    EM converges, with no warning even under -W error."""
    lines = BASES[0].splitlines()
    first_match = next(n for n, line in enumerate(lines) if line.startswith("M "))
    tokens = lines[first_match].split()
    tokens[1] = "1e154"
    lines[first_match] = " ".join(tokens)
    path = tmp_path / "huge_match.pcg"
    path.write_text("\n".join(lines) + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "robustpgo.cli", "solve", "--in", str(path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == cli.EXIT_OK
    assert done.stderr == ""
    assert "converged: True" in done.stdout


SCENARIO_FLOATS = ["spacing", "match_noise", "outlier_match_fraction", "outlier_displacement", "outlier_loop_fraction"]
SCENARIO_COUNTS = ["num_fragments", "matches_per_constraint", "loops_per_keyframe", "keyframe_stride", "seed"]
HUGE_INT = 10**400  # a JSON number that no float holds


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name in SCENARIO_FLOATS for v in (math.nan, math.inf, -math.inf, 1e308, HUGE_INT, 0.0, -1.0)]
    + [(name, v) for name in SCENARIO_COUNTS for v in (0, -1, 2.5, True, "x")]
    + [("matches_per_constraint", v) for v in (10**18, 10**20)],
    ids=lambda v: "10**400" if v is HUGE_INT else None,
)
def test_simulate_exits_with_a_documented_code(tmp_path, name, value):
    """A 20-fragment, 3-match scene with one field out of its range or
    type: non-finite or huge floats, an integer past the float range,
    counts that are zero, negative, fractional, boolean or a string, and
    match counts whose arrays numpy refuses to allocate, by their size in
    bytes or by their length."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"num_fragments": 20, "matches_per_constraint": 3, name: value}))
    assert_documented(["simulate", "--config", str(config), "--out", str(tmp_path / "scene.pcg")])
