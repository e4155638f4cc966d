"""The pair statistics of tools/bench_pairs.py."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_a_gain_needs_nine_pairs_in_ten_and_medians_past_the_quartile_spread():
    lower = {"name": "setup_s", "better": "lower", "bound": 0.25}
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    out = bench_pairs.compare(lower, parent, [0.8] * 9 + [1.05])
    assert (out["change_won_pairs"], out["change_lost_pairs"], out["gain"]) == (9, 1, True)
    assert out["parent_stats"]["median"] == 1.0 and out["change_stats"]["median"] == 0.8
    assert out["relative_change"] == pytest.approx(-0.2) and out["within_bound"]
    assert not bench_pairs.compare(lower, parent, [0.8] * 8 + [1.05] * 2)["gain"]
    assert not bench_pairs.compare(lower, parent, [p - 0.001 for p in parent])["gain"]  # inside the spread


def test_higher_is_better_and_ties_count_for_neither():
    higher = {"name": "recall", "better": "higher", "bound": 0.01}
    out = bench_pairs.compare(higher, [1.0, 0.9, 1.0], [1.0, 0.95, 0.98])
    assert (out["change_won_pairs"], out["change_lost_pairs"]) == (1, 1)
    assert out["relative_change"] == pytest.approx(-0.02) and not out["within_bound"]


def test_outside_a_git_checkout_a_parent_is_refused(tmp_path, monkeypatch, capsys):
    def no_git(*args):
        raise subprocess.CalledProcessError(128, ["git", *args], stderr="fatal: not a git repository")

    monkeypatch.setattr(bench_pairs, "git", no_git)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--parent", "HEAD", "--workload", "circle-100", "--seed", "0", "--out", str(out)])
    assert refused.value.code == 2 and "--parent HEAD" in capsys.readouterr().err and not out.exists()
