"""The scene runs of tools/scale.py."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location("scale", Path(__file__).resolve().parent.parent / "tools" / "scale.py")
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


def test_a_20_fragment_run_reports_its_counts_and_quality(tmp_path):
    out = tmp_path / "scale.json"
    assert scale.main(["--scene", "cauchy:20:0", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["parent"] is None and list(record["scenes"]) == ["cauchy:20:0"]
    run = record["scenes"]["cauchy:20:0"]["change"]
    assert "error" not in run
    assert run["msteps"] == len(run["inliers"]) >= 1 and run["capped"] == 0
    assert run["factor_calls"] == run["factorizations"] >= run["accepted"] >= 1 and run["redos"] >= 0
    assert len(run["steps"]) == run["msteps"] and [step["inlier_count"] for step in run["steps"]] == run["inliers"]
    for name in ("factorizations", "misses", "redos"):
        assert sum(step[name] for step in run["steps"]) == run[name]
    assert run["tp"] + run["fn"] >= 1 and 0.0 <= run["precision"] <= 1.0 and 0.0 <= run["recall"] <= 1.0
    assert run["ate_full_m"] >= 0.0 and run["run_em_s"] > 0.0 and 0.0 < run["import_rss_mb"] <= run["peak_rss_mb"]


def test_counts_are_read_from_the_result_or_counted_for_an_older_tree():
    rows = [(0, 2, True, True), (0, 3, True, False), (1, 4, False, True), (1, 5, False, False)]
    assert scale.counts(SimpleNamespace(confusion=rows)) == {"tp": 1, "fp": 1, "fn": 1}
    assert scale.counts(SimpleNamespace(tp=7, fp=0, fn=2, confusion=rows)) == {"tp": 7, "fp": 0, "fn": 2}


@pytest.mark.parametrize("text", ["cauchy:20", "huber:20:0", "cauchy:1:0", "cauchy:20:-1", "gaussian:x:0"])
def test_a_malformed_scene_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        scale.scene(text)


def test_outside_a_git_checkout_the_change_is_unknown_and_a_parent_is_refused(tmp_path, monkeypatch, capsys):
    def no_git(*args):
        raise subprocess.CalledProcessError(128, ["git", *args], stderr="fatal: not a git repository")

    monkeypatch.setattr(scale, "git", no_git)
    out = tmp_path / "scale.json"
    with pytest.raises(SystemExit) as refused:
        scale.main(["--parent", "HEAD", "--scene", "cauchy:20:0", "--out", str(out)])
    assert refused.value.code == 2 and "--parent HEAD" in capsys.readouterr().err and not out.exists()
    assert scale.main(["--scene", "cauchy:20:0", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["change"] == "unknown" and record["parent"] is None
    assert "error" not in record["scenes"]["cauchy:20:0"]["change"]
