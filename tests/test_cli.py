import argparse
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from robustpgo import cli, solver
from robustpgo.model import Hyperparams
from robustpgo.graphio import parse_poses, write_graph, write_poses
from robustpgo.synth import ScenarioConfig, generate


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse and I/O failures exit directly
        return exc.code


@pytest.fixture
def scenario_file(tmp_path):
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
    path = tmp_path / "scene.pcg"
    path.write_text(write_graph(graph))
    return path


class TestSolve:
    def test_default_options_are_the_default_hyperparams(self):
        args = cli.build_parser().parse_args(["solve", "--in", "x"])
        assert cli._hyperparams(args) == Hyperparams()

    def test_end_to_end(self, tmp_path, scenario_file, capsys):
        poses = tmp_path / "poses.txt"
        report = tmp_path / "report.txt"
        csv = tmp_path / "traj.csv"
        code = run_cli(
            [
                "solve",
                "--in",
                str(scenario_file),
                "--out-poses",
                str(poses),
                "--out-report",
                str(report),
                "--out-csv",
                str(csv),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "inlier loops" in captured.out and "ate_mean" in captured.out and "ate_full" in captured.out
        assert "warning" not in captured.err
        assert len(parse_poses(poses.read_text())) == 20
        assert csv.read_text().startswith("id,tx,ty,tz")
        assert any(l.startswith("LOOP") for l in report.read_text().splitlines())

    def test_measures_the_anchored_ate_once(self, tmp_path, scenario_file, monkeypatch, capsys):
        """With oracle labels, the ATE solve prints is the one synth.evaluate measured."""
        from robustpgo import synth

        calls = []
        real = synth.anchored_ate

        def spy(poses, ground_truth):
            calls.append(real(poses, ground_truth))
            return calls[-1]

        monkeypatch.setattr(synth, "anchored_ate", spy)
        code = run_cli(["solve", "--in", str(scenario_file), "--out-poses", str(tmp_path / "p.txt")])
        assert code == 0 and len(calls) == 1
        assert f"{calls[0]:.6f}" in capsys.readouterr().out

    def test_bit_reproducible(self, tmp_path, scenario_file):
        outs = []
        for tag in ("a", "b"):
            poses = tmp_path / f"poses_{tag}.txt"
            report = tmp_path / f"report_{tag}.txt"
            assert (
                run_cli(
                    ["solve", "--in", str(scenario_file), "--out-poses", str(poses),
                     "--out-report", str(report)]
                )
                == 0
            )
            outs.append((poses.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.pcg"
        bad.write_text("PCG 1 2\nODOM 0 2\nM 1 2 3 4 5 6\n")
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_PARSE

    def test_validate_error_exit_code(self, tmp_path):
        bad = tmp_path / "invalid.pcg"
        # references fragment 5 in a 3-fragment graph
        bad.write_text(
            "PCG 1 3\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\n"
            "LOOP 0 5 1\nM 0 0 0 0 0 0\n"
        )
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_VALIDATE

    @pytest.mark.parametrize(
        "doc, line",
        [
            ("PCG 1 1\n", "bad_fragment_count(1,): need at least 2 fragments"),
            (
                "PCG 1 3\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\n"
                "ODOM 5 3\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\n",
                "odometry_index(5,): i must lie in [0, 1]",
            ),
            ("PCG 1 2\nODOM 0 0\n", "empty_odometry(0,): constraint has no matches"),
            (
                "PCG 1 4\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\nODOM 2 1\nM 0 0 0 0 0 0\n"
                "LOOP 3 1 3\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\n",
                "loop_order(3, 1): loops must have i < j",
            ),
            (
                "PCG 1 4\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\nODOM 2 1\nM 0 0 0 0 0 0\n"
                "LABEL 0 3 1\n",
                "label_without_loop(0, 3): label refers to no declared loop",
            ),
            # a label on a loop that is declared but invalid names that loop's violation alone
            (
                "PCG 1 4\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\nODOM 2 1\nM 0 0 0 0 0 0\n"
                "LOOP 3 1 3\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nLABEL 3 1 1\n",
                "loop_order(3, 1): loops must have i < j",
            ),
            (
                "PCG 1 4\nODOM 0 1\nM 0 0 0 0 0 0\nODOM 1 1\nM 0 0 0 0 0 0\nODOM 2 1\nM 0 0 0 0 0 0\n"
                "LOOP 0 9 3\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nM 0 0 0 0 0 0\nLABEL 0 9 1\n",
                "loop_index(0, 9): fragment index out of [0, 3]",
            ),
        ],
    )
    def test_each_violation_a_file_can_hold_is_named(self, tmp_path, capsys, doc, line):
        path = tmp_path / "invalid.pcg"
        path.write_text(doc)
        assert run_cli(["solve", "--in", str(path)]) == cli.EXIT_VALIDATE
        assert capsys.readouterr().err.splitlines() == [f"error: invalid graph: {line}"]

    def test_unwritable_output_exit_code(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "missing" / "poses.txt"
        assert run_cli(["solve", "--in", str(scenario_file), "--out-poses", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_a_graph_without_labels_prints_ate_alone(self, tmp_path, capsys):
        """simulate's seed-0 scene with its LABEL rows removed: solve prints
        both ATEs, and no precision or recall."""
        path = tmp_path / "scene.pcg"
        assert run_cli(["simulate", "--seed", "0", "--out", str(path)]) == cli.EXIT_OK
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("LABEL")))
        capsys.readouterr()
        assert run_cli(["solve", "--in", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "ate_full: 0.032642" in out and "ate_mean: 0.178437" in out
        assert not any(l.startswith(("precision", "recall")) for l in out)

    @pytest.mark.parametrize(
        "doc, code",
        [
            ("PCG 1 2000000000\n", cli.EXIT_VALIDATE),
            ("PCG 1 2000000000\nINIT 0 0 0 0 1 0 0 0\n", cli.EXIT_PARSE),
        ],
    )
    def test_a_ten_digit_fragment_count_ends_at_once(self, tmp_path, capsys, doc, code):
        """With no odometry, one violation names the whole missing run; with
        one INIT record, the parse names the first missing one."""
        path = tmp_path / "huge.pcg"
        path.write_text(doc)
        start = time.perf_counter()
        assert run_cli(["solve", "--in", str(path)]) == code
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        expected = "missing_odometry(0, 1999999998)" if code == cli.EXIT_VALIDATE else "missing fragment 1"
        assert len(err) == 1 and expected in err[0]

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli(["solve", "--in", str(tmp_path / "nope.pcg")]) == cli.EXIT_IO

    def test_input_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pcg"
        bad.write_bytes(b"PCG 1 2\nODOM 0 1\nM 1 2 3 4 5 \xff\n")
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 29: invalid start byte"]

    def test_cr_and_crlf_scenes_write_the_same_report(self, tmp_path, scenario_file):
        r"""The CLI reads with universal newlines: a scene whose lines end in
        '\r' or '\r\n' solves to the same report, byte for byte."""
        text = scenario_file.read_text()
        reports = []
        for end in ("\n", "\r", "\r\n"):
            scene, report = tmp_path / "scene.txt", tmp_path / f"report{len(reports)}.txt"
            scene.write_bytes(text.replace("\n", end).encode())
            assert run_cli(["solve", "--in", str(scene), "--out-report", str(report)]) == cli.EXIT_OK
            reports.append(report.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_require_converged(self, tmp_path, scenario_file):
        code = run_cli(
            ["solve", "--in", str(scenario_file), "--max-em-iters", "1", "--require-converged"]
        )
        assert code == cli.EXIT_NOT_CONVERGED

    @pytest.mark.parametrize("kind", ["INIT", "GT"])
    def test_zero_quaternion_exit_code(self, tmp_path, capsys, kind):
        bad = tmp_path / "zero_quat.pcg"
        bad.write_text(f"PCG 1 2\n{kind} 0 0 0 0 0 0 0 0\nODOM 0 1\nM 0 0 0 0 0 0\n")
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "record",
        ["INIT 0 0 0 0 nan 0 0 0", "INIT 0 inf 0 0 1 0 0 0", "GT 0 0 0 0 1 nan 0 0", "GT 0 0 -inf 0 1 0 0 0"],
    )
    def test_nonfinite_pose_exit_code(self, tmp_path, capsys, record):
        kind = record.split()[0]
        bad = tmp_path / "nonfinite.pcg"
        bad.write_text(
            f"PCG 1 2\n{record}\n{kind} 1 0 0 0 1 0 0 0\n"
            "ODOM 0 3\nM 0 0 0 0 0 0\nM 1 0 0 1 0 0\nM 0 1 0 0 1 0\n"
        )
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and "finite" in err and "Traceback" not in err

    def test_overflowing_residual_is_a_solver_error_and_nothing_else(self, tmp_path, capsys):
        bad = tmp_path / "far.pcg"
        bad.write_text(
            "PCG 1 2\nINIT 0 1e308 0 0 1 0 0 0\nINIT 1 -1e308 0 0 1 0 0 0\n"
            "ODOM 0 3\nM 0 0 0 0 0 0\nM 1 0 0 1 0 0\nM 0 1 0 0 1 0\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_SOLVER
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: solver: ")

    def test_overflowing_match_moments_are_a_solver_error(self, tmp_path):
        """A match coordinate of 1e200 overflows the alignment's moments; the
        fit must fail without handing LAPACK a non-finite matrix, on which it
        may never return, so the CLI runs in a process with a time limit."""
        bad = tmp_path / "huge_match.pcg"
        bad.write_text(
            "PCG 1 2\nODOM 0 5\nM 0 0 0 0 0 0\nM 1 0 0 1 0 0\nM 0 1 0 0 1 0\n"
            "M 0 0 1 0 0 1\nM 1e200 0 0 -1e200 0 0\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "robustpgo.cli", "solve", "--in", str(bad)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == cli.EXIT_SOLVER
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: solver: odometry constraint 0->1")

    @pytest.mark.parametrize("mode, code", [("cauchy", cli.EXIT_SOLVER), ("gaussian", cli.EXIT_OK)])
    def test_huge_initial_translations(self, tmp_path, capsys, mode, code):
        """Poses 1e100 m apart: theta learning would overflow exp(2A), so cauchy
        mode is a solver error; gaussian mode takes no theta from them, and
        its LM trials that overflow are rejected without a numpy warning."""
        far = tmp_path / "far.pcg"
        matches = "M 1 0 0 1 0 0\nM 0 2 0 0 2 0\nM 0 0 3 0 0 3\nM 1 1 1 1 1 1\n"
        far.write_text(
            "PCG 1 3\nINIT 0 1e100 0 0 1 0 0 0\nINIT 1 -1e100 0 0 1 0 0 0\n"
            f"INIT 2 0 1e100 0 1 0 0 0\nODOM 0 4\n{matches}ODOM 1 4\n{matches}"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["solve", "--in", str(far), "--mode", mode]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        if code == cli.EXIT_SOLVER:
            assert len(err) == 1 and err[0].startswith("error: solver: ")
        else:
            assert err == []

    def test_theta_past_the_float_range_is_a_solver_error(self, tmp_path, capsys):
        """At sigma = 3.3e-78 this scene's median odometry A lies near 353.87,
        where exp(2A) is finite but theta at the default p_hat = 0.9 is not:
        exit 5 with a solver error, not a run that weighs every loop as an
        inlier."""
        scene = tmp_path / "scene.pcg"
        scene.write_text(write_graph(generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))))
        report = tmp_path / "report.txt"
        code = run_cli(["solve", "--in", str(scene), "--sigma", "3.3e-78", "--out-report", str(report)])
        assert code == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("error: solver:") and "too large to learn theta from" in err
        assert "Traceback" not in err and not report.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "-1"),
            ("--p-hat", "1.5"),
            ("--p-hat", "0"),
            ("--epsilon", "0"),
            ("--max-em-iters", "0"),
            ("--sigma", "inf"),
            ("--sigma", "1e-200"),  # sigma^2 underflows to 0
            ("--sigma", "1e200"),  # sigma^2 overflows
            ("--epsilon", "inf"),
            ("--epsilon", "1e-100"),  # epsilon^4 of the default rms calibration underflows to 0
            ("--epsilon", "1e100"),  # epsilon^4 overflows
            ("--em-tol", "nan"),  # no relative change is below NaN: EM ran all its iterations
            ("--em-tol", "-1"),
            ("--em-tol", "inf"),
            ("--threshold", "nan"),  # no posterior is above NaN: every loop was an outlier
            ("--threshold", "2"),
            ("--threshold", "-0.5"),
        ],
    )
    def test_bad_hyperparameter_is_usage_error(self, scenario_file, capsys, flag, value):
        assert run_cli(["solve", "--in", str(scenario_file), flag, value]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            # p_hat * epsilon^2 / (1 - p_hat) underflows to 0
            ["--gaussian-calibration", "literal", "--epsilon", "1e-3", "--p-hat", "1e-320"],
            # p_hat * epsilon^4 / (1 - p_hat) overflows to inf
            ["--p-hat", "0.9999999999999999", "--epsilon", "1e77"],
        ],
    )
    def test_gaussian_constant_out_of_float_range_is_usage_error(self, scenario_file, capsys, flags):
        assert run_cli(["solve", "--in", str(scenario_file), "--mode", "gaussian", *flags]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: in gaussian mode p_hat")

    def test_degenerate_odometry_is_solver_error(self, tmp_path, capsys):
        bad = tmp_path / "collinear.pcg"
        bad.write_text("PCG 1 2\nODOM 0 3\nM 0 0 0 0 0 0\nM 1 0 0 1 0 0\nM 2 0 0 2 0 0\n")
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "odometry constraint 0->1" in err and "Traceback" not in err

    def test_warns_when_lm_cap_stops_an_m_step(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        assert run_cli(["solve", "--in", str(scenario_file), "--max-em-iters", "2"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning:") and "EM iteration 1, 2" in err

    def test_lm_cap_fails_require_converged(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", 1)
        args = ["solve", "--in", str(scenario_file), "--max-em-iters", "2"]
        assert run_cli([*args, "--require-converged"]) == cli.EXIT_NOT_CONVERGED
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: the LM iteration cap stopped the M-step of EM iteration 1, 2"

    def test_reports_the_last_m_steps_errors(self, tmp_path, scenario_file, monkeypatch, capsys):
        """The report's loop errors are the last M-step's, so the final poses
        are evaluated once: one residual evaluation at the initial poses and
        one per LM trial."""
        from robustpgo import em
        from robustpgo.model import MatchTable

        report = tmp_path / "report.txt"
        args = ["solve", "--in", str(scenario_file), "--out-report", str(report)]
        assert run_cli(args) == 0
        expected = report.read_text()
        traces, calls = [], []
        real_run_em, real_residuals = em.run_em, MatchTable.frame_residuals

        def run_em(graph, params):
            traces.append(real_run_em(graph, params))
            return traces[-1]

        def residuals(self, rots, trans):
            calls.append(None)
            return real_residuals(self, rots, trans)

        monkeypatch.setattr(em, "run_em", run_em)
        monkeypatch.setattr(MatchTable, "frame_residuals", residuals)
        assert run_cli(args) == 0
        trace = traces[0][2]
        assert len(calls) == sum(rec.factorizations for rec in trace.iterations) + 1
        assert report.read_text() == expected

    def test_gaussian_mode_flags(self, tmp_path, scenario_file):
        code = run_cli(
            ["solve", "--in", str(scenario_file), "--mode", "gaussian",
             "--gaussian-calibration", "literal", "--epsilon", "0.1"]
        )
        assert code == 0

    def test_partial_oracle_labels_are_invalid(self, tmp_path, scenario_file, capsys):
        """A graph with LABEL records for only some loops is an invalid
        graph, reported before the solve, not a KeyError in the evaluation."""
        partial = tmp_path / "partial.pcg"
        partial.write_text(_drop_first_label(scenario_file.read_text()))
        code = run_cli(["solve", "--in", str(partial), "--out-poses", str(tmp_path / "p.txt")])
        assert code == cli.EXIT_VALIDATE
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("error: invalid graph: ") for line in err)
        assert "loop_without_label" in err[0] and not (tmp_path / "p.txt").exists()

    def test_runs_as_a_module(self):
        """`python -m robustpgo` is the CLI."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "robustpgo", "--help"], capture_output=True, text=True, timeout=60, env=env
        )
        assert done.returncode == cli.EXIT_OK
        assert done.stdout.startswith("usage: robustpgo") and "check-grad" in done.stdout

    def test_the_package_leaves_scipy_special_unloaded(self):
        """A fresh interpreter that imports the CLI loads no scipy.special: the
        package calls only scipy.sparse (with .linalg and .csgraph) and
        scipy.linalg.lapack, and those alone may load it on some scipy."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys; import scipy.sparse, scipy.sparse.linalg, scipy.sparse.csgraph, scipy.linalg.lapack; "
            "print('scipy.special' in sys.modules); import robustpgo, robustpgo.cli; "
            "print('scipy.special' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        by_scipy, by_package = done.stdout.split()
        if by_scipy == "True":
            pytest.skip("scipy's sparse and lapack modules load scipy.special themselves")
        assert by_package == "False"


class TestSimulate:
    def test_simulate_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_fragments": 20, "keyframe_stride": 1}))
        out = tmp_path / "scene.pcg"
        assert run_cli(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        text = out.read_text()
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        assert text == write_graph(graph)

    def test_bad_json_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert (
            run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
            == cli.EXIT_PARSE
        )

    def test_config_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 1, "shape": "\xe9"}')
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "position 22" in err and "Traceback" not in err
        assert not (tmp_path / "o.pcg").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": "helix"}))
        assert (
            run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
            == cli.EXIT_VALIDATE
        )

    @pytest.mark.parametrize("num_fragments", [0, -5, 1])
    def test_too_few_fragments_exit_code(self, tmp_path, capsys, num_fragments):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_fragments": num_fragments}))
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
        assert code == cli.EXIT_VALIDATE
        err = capsys.readouterr().err
        assert "at least 2 fragments" in err and "Traceback" not in err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert run_cli(["simulate", "--seed", "-3", "--out", str(tmp_path / "o.pcg")]) == cli.EXIT_VALIDATE
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc", ["[1, 2]", "3", '"circle"', "null"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        code = run_cli(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o.pcg")])
        assert code == cli.EXIT_VALIDATE
        err = capsys.readouterr().err
        assert "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", [{"outlier_displacement": 1e308}, {"match_noise": 1e300}])
    def test_scene_whose_moments_overflow_is_refused(self, tmp_path, capsys, field):
        """A scene whose match sets' summed squared coordinates pass the float
        range, which solve could not fit (its moments overflow), fails the
        config with no warning and writes nothing."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_fragments": 20, **field}))
        out = tmp_path / "o.pcg"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VALIDATE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario config:") and "squared" in err
        assert "Warning" not in err and not out.exists()

    @pytest.mark.parametrize(
        "field, reason",
        [
            ({"match_noise": 1e150}, "too large to learn theta from"),
            ({"outlier_displacement": 1e150}, "surviving matches are degenerate"),
        ],
    )
    def test_scene_with_noise_far_above_the_spacing_is_refused_by_solve(self, tmp_path, capsys, field, reason):
        """Noise or displacement far above the spacing, yet below the overflow
        rule, makes a scene that simulate writes and solve refuses: exit 5,
        with a solver error and no traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_fragments": 20, **field}))
        scene = tmp_path / "scene.pcg"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(scene)]) == cli.EXIT_OK
        capsys.readouterr()
        assert run_cli(["solve", "--in", str(scene), "--out-poses", str(tmp_path / "p.txt")]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("error: solver:") and reason in err and "Traceback" not in err

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laps": 7}))
        assert (
            run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
            == cli.EXIT_VALIDATE
        )


def _drop_first_label(text: str) -> str:
    """A graph document without its first LABEL record."""
    lines = text.splitlines(keepends=True)
    first = next(k for k, line in enumerate(lines) if line.startswith("LABEL "))
    return "".join(lines[:first] + lines[first + 1 :])


class TestEval:
    def test_partial_oracle_labels_exit_code(self, tmp_path, scenario_file, capsys):
        """Scoring against a graph that labels only some loops is an invalid
        graph, not a KeyError."""
        poses, report = tmp_path / "poses.txt", tmp_path / "report.txt"
        assert run_cli(["solve", "--in", str(scenario_file), "--out-poses", str(poses),
                        "--out-report", str(report)]) == cli.EXIT_OK
        partial = tmp_path / "partial.pcg"
        partial.write_text(_drop_first_label(scenario_file.read_text()))
        capsys.readouterr()
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(partial),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_VALIDATE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: graph carries no oracle label for loop (")

    def test_missing_label_exit_code(self, tmp_path, scenario_file):
        poses = tmp_path / "poses.txt"
        report = tmp_path / "report.txt"
        run_cli(["solve", "--in", str(scenario_file), "--out-poses", str(poses),
                 "--out-report", str(report)])
        # drop one LOOP row from the report
        lines = report.read_text().splitlines()
        pruned = [l for i, l in enumerate(lines) if not l.startswith("LOOP") or i % 2]
        report.write_text("\n".join(pruned) + "\n")
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(scenario_file),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_VALIDATE

    def test_eval_pipeline(self, tmp_path, scenario_file, capsys):
        poses = tmp_path / "poses.txt"
        report = tmp_path / "report.txt"
        run_cli(
            ["solve", "--in", str(scenario_file), "--out-poses", str(poses),
             "--out-report", str(report)]
        )
        capsys.readouterr()
        code = run_cli(
            ["eval", "--poses", str(poses), "--graph", str(scenario_file),
             "--labels-from-report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ate_mean" in out and "ate_full" in out and "precision" in out and "recall" in out


    def test_zero_quaternion_pose_exit_code(self, tmp_path, scenario_file, capsys):
        poses = tmp_path / "poses.txt"
        poses.write_text("POSE 0 0 0 0 1 0 0 0\nPOSE 1 1 0 0 0 0 0 0\n")
        report = tmp_path / "report.txt"
        report.write_text("")
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(scenario_file),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_negative_pose_id_exit_code(self, tmp_path, scenario_file, capsys):
        """A negative POSE id is refused at its own line, not as a missing
        record at the end of the file."""
        poses = tmp_path / "poses.txt"
        poses.write_text("POSE -1 0 0 0 1 0 0 0\nPOSE 0 0 0 0 1 0 0 0\n")
        report = tmp_path / "report.txt"
        report.write_text("")
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(scenario_file),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [f"error: {poses}: line 1: POSE id -1 is negative"]


    @pytest.mark.parametrize("count", [3, 96, 101])
    def test_wrong_pose_count_exit_code(self, tmp_path, capsys, count):
        """POSE rows for fewer or more fragments than the graph holds are an
        invalid input, not a crash."""
        graph = generate(ScenarioConfig(num_fragments=100, seed=0))
        scene = tmp_path / "scene.pcg"
        scene.write_text(write_graph(graph))
        poses = tmp_path / "poses.txt"
        poses.write_text(write_poses((graph.ground_truth + graph.ground_truth)[:count]))
        report = tmp_path / "report.txt"
        report.write_text("".join(f"LOOP {c.i} {c.j} 0 0 1\n" for c in graph.loops))
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(scene),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_VALIDATE
        err = capsys.readouterr().err
        assert f"{count} poses for 100 fragments" in err and "Traceback" not in err

    def test_repeated_report_loop_exit_code(self, tmp_path, scenario_file, capsys):
        """A report that labels one loop twice is a parse error, as a graph
        with two LABEL records for it is; a row's trailing comment is not."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        poses = tmp_path / "poses.txt"
        poses.write_text(write_poses(graph.ground_truth))
        rows = [f"LOOP {c.i} {c.j} 0 0 1  # labelled inlier\n" for c in graph.loops]
        report = tmp_path / "report.txt"
        args = ["eval", "--poses", str(poses), "--graph", str(scenario_file), "--labels-from-report", str(report)]
        report.write_text("".join(rows))
        assert run_cli(args) == cli.EXIT_OK
        report.write_text("".join(rows + rows[:1]))
        capsys.readouterr()
        assert run_cli(args) == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        c = graph.loops[0]
        assert err == [f"error: {report}: line {len(rows) + 1}: duplicate LOOP row for loop ({c.i}, {c.j})"]

    @pytest.mark.parametrize(
        "which, bad, reason",
        [
            ("--poses", "POSE 0 0 0 0 1 0 0\n", "expected: POSE <id> tx ty tz qw qx qy qz"),
            ("--labels-from-report", "LOOP 0 2 0 0 yes\n", "malformed LOOP report row"),
        ],
        ids=["poses", "report"],
    )
    def test_parse_error_names_its_file(self, tmp_path, scenario_file, capsys, which, bad, reason):
        """A parse error in any of eval's three inputs names that file."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        files = {
            "--poses": tmp_path / "poses.txt",
            "--graph": scenario_file,
            "--labels-from-report": tmp_path / "report.txt",
        }
        files["--poses"].write_text(write_poses(graph.ground_truth))
        files["--labels-from-report"].write_text("".join(f"LOOP {c.i} {c.j} 0 0 1\n" for c in graph.loops))
        text = files[which].read_text() + bad
        files[which].write_text(text)
        args = ["eval"] + [part for flag, path in files.items() for part in (flag, str(path))]
        assert run_cli(args) == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {files[which]}: line {text.count(chr(10))}: {reason}"]

    @pytest.mark.parametrize("which", ["--poses", "--graph", "--labels-from-report"])
    def test_input_that_is_not_utf8_exit_code(self, tmp_path, scenario_file, capsys, which):
        """Each of eval's three inputs is read as UTF-8; a byte that is not
        is a parse error that names the file and the byte's offset."""
        graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=3))
        files = {
            "--poses": tmp_path / "poses.txt",
            "--graph": scenario_file,
            "--labels-from-report": tmp_path / "report.txt",
        }
        files["--poses"].write_text(write_poses(graph.ground_truth))
        files["--labels-from-report"].write_text("".join(f"LOOP {c.i} {c.j} 0 0 1\n" for c in graph.loops))
        files[which].write_bytes(files[which].read_bytes() + b"# \xc3\n")
        args = ["eval"] + [part for flag, path in files.items() for part in (flag, str(path))]
        assert run_cli(args) == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {files[which]}: 'utf-8' codec can't decode byte 0xc3")

    @pytest.mark.parametrize("pose", ["1 nan 0 0 1 0 0 0", "1 1 0 0 1 0 0 inf"])
    def test_nonfinite_pose_exit_code(self, tmp_path, scenario_file, capsys, pose):
        poses = tmp_path / "poses.txt"
        poses.write_text(f"POSE 0 0 0 0 1 0 0 0\nPOSE {pose}\n")
        report = tmp_path / "report.txt"
        report.write_text("")
        code = run_cli(["eval", "--poses", str(poses), "--graph", str(scenario_file),
                        "--labels-from-report", str(report)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "line 2" in err and "finite" in err and "Traceback" not in err


class TestCheckGrad:
    def test_passes(self, capsys):
        assert run_cli(["check-grad", "--seed", "1", "--blocks", "50"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_problem_to_check_is_usage_error(self, capsys, count):
        assert run_cli(["check-grad", "--blocks", count]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["check-grad", "--seed", "-1", "--blocks", "1"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("count", ["10001", "1000000000000000000"])
    def test_count_past_the_limit_is_usage_error(self, capsys, monkeypatch, count):
        """A count past 10,000 is refused before any problem is drawn, so
        nothing of its size is allocated."""

        def refuse(*args):
            raise AssertionError("check-grad drew problems for a count past its limit")

        monkeypatch.setattr(cli, "_derivative_errors", refuse)
        assert run_cli(["check-grad", "--blocks", count]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("fault", ["gradient_sign", "transposed_h_ij"])
    def test_fails_on_a_faulty_assembly(self, capsys, monkeypatch, fault):
        """check-grad checks the gradient and H that LM assembles: a sign
        flipped in the gradient's translation part, or the off-diagonal
        blocks H_ij and H_ji each transposed, fails it."""
        real = solver._assemble

        def faulty(*args, **kwargs):
            grad, entries = real(*args, **kwargs)
            if fault == "gradient_sign":
                grad = grad.copy()
                grad.reshape(-1, 6)[:, 3:] *= -1.0
            else:
                off = len(entries) // 2  # H_ii, H_jj, then H_ij, H_ji of every constraint
                entries = np.concatenate([entries[:off], entries[off:, solver._TRANSPOSED]])
            return grad, entries

        monkeypatch.setattr(solver, "_assemble", faulty)
        assert run_cli(["check-grad", "--seed", "1", "--blocks", "20"]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith("error:")


    def test_checks_the_objective_of_lm_trials(self, capsys, monkeypatch):
        """check-grad evaluates its difference points as LM evaluates a
        trial, with the anchor of the state being checked: a squared-kernel
        trial objective off by 1% fails it, though the anchor's own
        evaluation is exact."""
        real = solver._anchored_sums

        def faulty(*args):
            return 1.01 * real(*args)

        monkeypatch.setattr(solver, "_anchored_sums", faulty)
        assert run_cli(["check-grad", "--seed", "1", "--blocks", "20"]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith("error:")


class TestReadme:
    """README's CLI section keeps up with the parser and the exit codes."""

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def paragraph(self, start: str) -> str:
        """README's text from `start` to the end of its paragraph."""
        at = self.readme.index(start)
        end = self.readme.find("\n\n", at)
        return self.readme[at : end if end >= 0 else None]

    def test_every_solve_option_is_documented(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = [
            name for action in sub.choices["solve"]._actions for name in action.option_strings
            if name.startswith("--") and name != "--help"
        ]
        text = self.paragraph("`solve` options:").split("Exit codes:")[0]
        assert len(options) > 10
        assert [name for name in options if not re.search(rf"`{name}[` ]", text)] == []

    def test_every_exit_code_is_documented(self):
        listed = cli.__doc__.split("Exit codes")[1]
        codes = {int(c) for c in re.findall(r"(?:^ +| {2,})(\d) ", listed, flags=re.MULTILINE)}
        assert codes == {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
        text = self.paragraph("`solve` options:").split("Exit codes:")[1]
        documented = {int(c) for c in re.findall(r"(?:^|,) (\d) ", text)}
        assert codes <= documented
