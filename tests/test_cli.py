import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from robustpgo import cli, solver
from robustpgo.graphio import parse_poses, write_graph
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
        assert "inlier loops" in captured.out and "ate_mean" in captured.out
        assert "warning" not in captured.err
        assert len(parse_poses(poses.read_text())) == 20
        assert csv.read_text().startswith("id,tx,ty,tz")
        assert any(l.startswith("LOOP") for l in report.read_text().splitlines())

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

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli(["solve", "--in", str(tmp_path / "nope.pcg")]) == cli.EXIT_IO

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "-1"),
            ("--p-hat", "1.5"),
            ("--p-hat", "0"),
            ("--epsilon", "0"),
            ("--max-em-iters", "0"),
        ],
    )
    def test_bad_hyperparameter_is_usage_error(self, scenario_file, capsys, flag, value):
        assert run_cli(["solve", "--in", str(scenario_file), flag, value]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_degenerate_odometry_is_solver_error(self, tmp_path, capsys):
        bad = tmp_path / "collinear.pcg"
        bad.write_text("PCG 1 2\nODOM 0 3\nM 0 0 0 0 0 0\nM 1 0 0 1 0 0\nM 2 0 0 2 0 0\n")
        assert run_cli(["solve", "--in", str(bad)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert "odometry constraint 0->1" in err and "Traceback" not in err

    def test_warns_when_lm_cap_stops_an_m_step(self, scenario_file, capsys, monkeypatch):
        monkeypatch.setattr(solver, "solve", functools.partial(solver.solve, max_iterations=1))
        assert run_cli(["solve", "--in", str(scenario_file), "--max-em-iters", "2"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning:") and "EM iteration 1, 2" in err

    def test_gaussian_mode_flags(self, tmp_path, scenario_file):
        code = run_cli(
            ["solve", "--in", str(scenario_file), "--mode", "gaussian",
             "--gaussian-calibration", "literal", "--epsilon", "0.1"]
        )
        assert code == 0


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

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shape": "helix"}))
        assert (
            run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
            == cli.EXIT_VALIDATE
        )

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laps": 7}))
        assert (
            run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.pcg")])
            == cli.EXIT_VALIDATE
        )


class TestEval:
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
        assert "ate_mean" in out and "precision" in out and "recall" in out


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
