"""Mutation fuzzing of `robustpgo solve`: small valid graph files with tokens,
counts and values replaced (NaN, inf, 1e308, 1e200, zero quaternions), lines
dropped or repeated. Every outcome must be a documented exit code, with no
uncaught exception and no warning."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpgo import cli, se3
from robustpgo.graphio import write_graph
from robustpgo.model import LoopClosureConstraint, OdometryConstraint, ProblemGraph

DOCUMENTED = {0, 2, 3, 4, 5, 6, 7}
VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-1e200", "0", "-3", "2", "7", "x"]


def base_graph(with_poses: bool) -> str:
    """Four fragments 10 m apart, exact odometry, one true and one false loop;
    with INIT, GT and LABEL records, or with none so the solve initializes
    from the odometry."""
    rng = np.random.default_rng(0)
    truth = [se3.exp(np.array([0.0, 0.0, 0.2 * k, 10.0 * k, 0.0, 0.0])) for k in range(4)]

    def matches(i, j, k=4):
        world = truth[i].trans + rng.uniform(-3.0, 3.0, (k, 3))
        return (
            se3.transform_points(se3.inverse(truth[i]), world),
            se3.transform_points(se3.inverse(truth[j]), world),
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

edits = st.tuples(
    st.sampled_from(["token", "token", "zero_quat", "delete", "duplicate"]),
    st.integers(0, 999),
    st.integers(0, 9),
    st.sampled_from(VALUES),
)


def mutate(text: str, changes) -> str:
    lines = text.splitlines()
    for kind, k, j, value in changes:
        at = k % len(lines)
        if kind == "token":
            tokens = lines[at].split()
            tokens[j % len(tokens)] = value
            lines[at] = " ".join(tokens)
        elif kind == "zero_quat":
            poses = [n for n, line in enumerate(lines) if line.startswith(("INIT", "GT"))]
            if poses:
                at = poses[k % len(poses)]
                lines[at] = " ".join(lines[at].split()[:5] + ["0"] * 4)
        elif kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.pcg"


def test_bases_solve_cleanly(graph_path):
    for text in BASES:
        graph_path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--in", str(graph_path)]) == cli.EXIT_OK


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from([0, 1]), st.sampled_from(["cauchy", "gaussian"]), st.lists(edits, min_size=1, max_size=3))
def test_solve_exits_with_a_documented_code(graph_path, base, mode, changes):
    graph_path.write_text(mutate(BASES[base], changes))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(["solve", "--in", str(graph_path), "--mode", mode])
            except SystemExit as exc:  # argparse and I/O failures exit directly
                code = exc.code
    assert code in DOCUMENTED
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
