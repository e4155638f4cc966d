import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from robustpgo import cli, solver
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
            ("--sigma", "inf"),
            ("--sigma", "1e-200"),  # sigma^2 underflows to 0
            ("--sigma", "1e200"),  # sigma^2 overflows
            ("--epsilon", "inf"),
            ("--epsilon", "1e-100"),  # epsilon^4 of the default rms calibration underflows to 0
            ("--epsilon", "1e100"),  # epsilon^4 overflows
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
            grad, blocks = real(*args, **kwargs)
            if fault == "gradient_sign":
                grad = grad.copy()
                grad.reshape(-1, 6)[:, 3:] *= -1.0
            else:
                off = len(blocks) // 2  # H_ii, H_jj, then H_ij, H_ji of every constraint
                blocks = np.concatenate([blocks[:off], np.swapaxes(blocks[off:], 1, 2)])
            return grad, blocks

        monkeypatch.setattr(solver, "_assemble", faulty)
        assert run_cli(["check-grad", "--seed", "1", "--blocks", "20"]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith("error:")
