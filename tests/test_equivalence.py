"""The digests of tools/equivalence.py."""

import copy
import dataclasses
import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robustpgo import em, graphio
from robustpgo.model import Hyperparams
from robustpgo.synth import ScenarioConfig, generate

_spec = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def test_a_one_ulp_change_to_a_pose_changes_the_run_digest():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    params = Hyperparams()
    result = em.run_em(graph, params)

    def digest(nudge: bool) -> str:
        def run_em(g, p):
            poses, state, trace = copy.deepcopy(result)
            if nudge:
                poses[5].trans[1] = np.nextafter(poses[5].trans[1], np.inf)
            return poses, state, trace

        return equivalence.run_digest(SimpleNamespace(run_em=run_em, loop_errors=em.loop_errors), graph, params)

    assert digest(False) == equivalence.run_digest(em, graph, params)
    assert digest(True) != digest(False)


def test_a_one_ulp_change_to_a_match_changes_the_graph_digest():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    before = equivalence.graph_digest(graph)
    assert equivalence.graph_digest(copy.deepcopy(graph)) == before
    graph.loops[0].q[2, 0] = np.nextafter(graph.loops[0].q[2, 0], -np.inf)
    assert equivalence.graph_digest(graph) != before


def test_a_failed_run_is_digested_by_its_error():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))

    def run_em(g, p):
        raise ValueError("no")

    stub = SimpleNamespace(run_em=run_em, loop_errors=em.loop_errors)
    assert equivalence.run_digest(stub, graph, Hyperparams()) == equivalence.digest("raised", "ValueError", "no")


def test_a_one_ulp_change_to_a_pose_changes_the_poses_digest():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    poses = copy.deepcopy(graph.ground_truth)
    before = equivalence.poses_digest(graphio, graph, poses)
    assert equivalence.poses_digest(graphio, graph, copy.deepcopy(poses)) == before
    poses[7].quat[2] = np.nextafter(poses[7].quat[2], np.inf)
    assert equivalence.poses_digest(graphio, graph, poses) != before


def test_a_one_ulp_change_to_the_ground_truth_changes_the_scene_digest():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    before = equivalence.scene_digest(graphio, graph)
    assert equivalence.scene_digest(graphio, copy.deepcopy(graph)) == before
    graph.ground_truth[3].quat[3] = np.nextafter(graph.ground_truth[3].quat[3], np.inf)
    assert equivalence.scene_digest(graphio, graph) != before


def test_a_run_that_differs_is_sized_by_its_largest_differences():
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    poses, state, trace = em.run_em(graph, Hyperparams())
    before = equivalence.run_values(poses, state, trace)
    poses = copy.deepcopy(poses)
    poses[5].trans[1] += 2.0**-20
    poses[3].quat[0] -= 2.0**-30
    after = equivalence.run_values(poses, state, trace)
    assert equivalence.sizes(before, before) == dict.fromkeys(before, 0.0)
    sized = equivalence.sizes(before, after)
    assert sized["trans"] == 2.0**-20 and sized["quat"] == 2.0**-30 and sized["posteriors"] == 0.0
    fewer = dict(after, objective_end=after["objective_end"][:-1])
    assert equivalence.sizes(before, fewer)["objective_end"] == "shapes differ"

    parent = {kind: {"k": "a"} for kind in equivalence.KINDS}
    change = {kind: {"k": "a" if kind in ("graphs", "scenes") else "b"} for kind in equivalence.KINDS}
    parent["values"] = {"runs": {"k": before}, "poses": {}}
    change["values"] = {"runs": {"k": after}, "poses": {}}
    result = equivalence.compare(parent, change)
    assert result["runs"]["differ"] == ["k"] and result["runs"]["sizes"] == {"k": sized}
    assert result["poses"]["differ"] == ["k"] and result["poses"]["sizes"] == {}
    assert result["graphs"]["identical"] == 1 and "sizes" not in result["graphs"]


def test_a_field_only_one_tree_has_is_listed_apart_and_the_shared_ones_compared():
    """A parent whose `EmIteration` lacks a field runs identical on the
    fields both trees have, with the one it lacks listed apart under the
    run's key; a shared field that differs still makes the run differ."""
    graph = generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5))
    params = Hyperparams()
    result = em.run_em(graph, params)
    names = [f.name for f in dataclasses.fields(em.EmIteration) if f.name != "redos"]
    Older = dataclasses.make_dataclass("EmIteration", names)

    def older_em(nudge: bool) -> SimpleNamespace:
        def run_em(g, p):
            poses, state, trace = copy.deepcopy(result)
            iterations = [Older(**{name: getattr(rec, name) for name in names}) for rec in trace.iterations]
            if nudge:
                iterations[-1].theta = np.nextafter(iterations[-1].theta, np.inf)
            return poses, state, em.EmTrace(iterations, trace.converged)

        return SimpleNamespace(run_em=run_em, loop_errors=em.loop_errors)

    def compared(parent_em) -> dict:
        trees = []
        for tree_em in (parent_em, em):
            parts, _, values = equivalence._run(tree_em, graph, params)
            trees.append({kind: {"k": "a"} for kind in equivalence.KINDS})
            trees[-1]["runs"] = {"k": parts}
            trees[-1]["values"] = {"runs": {"k": values}, "poses": {}}
        return equivalence.compare(*trees)["runs"]

    same = compared(older_em(False))
    assert (same["identical"], same["differ"]) == (1, [])
    assert same["apart"] == {"k": {"parent": [], "change": ["iteration redos"]}}
    moved = compared(older_em(True))
    assert moved["differ"] == ["k"] and moved["apart"] == same["apart"]
    assert moved["sizes"]["k"]["posteriors"] == 0.0


def test_outside_a_git_checkout_a_parent_is_refused(monkeypatch, capsys):
    def no_git(*args):
        raise subprocess.CalledProcessError(128, ["git", *args], stderr="fatal: not a git repository")

    monkeypatch.setattr(equivalence, "git", no_git)
    with pytest.raises(SystemExit) as refused:
        equivalence.main(["--parent", "HEAD"])
    assert refused.value.code == 2 and "--parent HEAD" in capsys.readouterr().err
