"""Bit-identity of scenes, parsed graphs and EM runs: a parent commit against the working tree.

Run from the repository root:

    python3 tools/equivalence.py --parent HEAD

The parent commit is exported with `bench_pairs.export` into a temporary
directory, so `--parent` needs a git checkout: outside one it is a usage
error (exit 2). In each tree, a fresh interpreter (single-threaded BLAS, no
bytecode written) makes the text of every perfbench scene with its match
rows shuffled by seed 0 and by seed 1 (`harness.scene_text`), parses it, and
runs `em.run_em` on the graph with its workload's hyperparameters. Three
sha256 digests are kept per perfbench scene and seed:

- the parsed graph: fragment count, every constraint's pair and match bytes,
  INIT and GT poses, and the oracle labels;
- the run, in parts: one for its poses, posteriors, theta, `converged`,
  iteration count and `em.loop_errors` at the returned poses (or the error
  a run raised), and one for each `EmIteration` field over the iterations;
- the run's poses read back from text four ways: from a pose file
  (`write_poses`, then `parse_poses`) as written and with a '#' on every
  row, which makes each row a run of its own, and as the INIT rows
  of the scene's graph (`write_graph` with those poses as its initial
  poses, then `parse`) as written and with one M row's last token written
  `1_0`, which `float` takes and loadtxt refuses, so `parse` reads that
  document row by row.

perfbench's scenes are all circles, so a fourth digest is kept for every
shape `synth.SHAPES` names, at 20 and 100 fragments (a circle below 48
fragments runs two laps, not four) and seeds 0 and 1: the `write_graph`
text of `synth.generate`'s scene and the bytes of its ground truth.

The digests of the two trees are compared key by key, and the result is
printed as one JSON object; the exit status is 1 when any digest differs.
A run is compared over the parts both trees hold, so a field that only one
tree's `EmIteration` has is listed apart, under the run's key, and does not
make the run differ.
Each `runs` or `poses` key that differs is also sized: the largest absolute
difference in the pose quaternions and translations (for `poses`, of the
poses read back from a pose file), and for `runs` in the posteriors and in
each `EmIteration`'s objective_start, objective_end and max_pose_update. So
a change that moves only trailing bits shows how far it moves them.
perfbench is imported read-only; nothing is written into either tree.
Uses the standard library and numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git, run_fresh  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SHUFFLE_SEEDS = (0, 1)
SCENE_SIZES = (20, 100)
SCENE_SEEDS = (0, 1)
KINDS = ("graphs", "runs", "poses", "scenes")


def _feed(h, value) -> None:
    """Add one value to the hash, with its type, shape and every byte, so
    equal digests mean equal values down to the last bit."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, int, str, type(None), np.bool_, np.integer)):
        h.update(f"{type(value).__name__} {value!r}|".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"float {float(value).hex()}|".encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}|".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(f"map {len(value)}|".encode())
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}|".encode())
        _feed(h, {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        _feed(h, value)
    return h.hexdigest()


def graph_digest(graph) -> str:
    """The parsed graph's fragment count, constraints, INIT/GT poses and labels."""
    return digest(
        graph.num_fragments,
        [(c.pair, c.p, c.q) for c in (*graph.odometry, *graph.loops)],
        graph.initial_poses,
        graph.ground_truth,
        graph.oracle_labels,
    )


def run_digest(em, graph, params) -> str:
    """run_em's poses, posteriors, theta, converged flag and iteration count,
    and loop_errors at its poses; or the error the run raised."""
    return _run(em, graph, params)[0]["run"]


def _run(em, graph, params) -> tuple[dict[str, str], list | None, dict | None]:
    """The run's parts: run_digest under "run", and the digest of each
    `EmIteration` field over the iterations under "iteration <field>"; then
    the run's poses and its run_values (None when it raised)."""
    try:
        poses, state, trace = em.run_em(graph, params)
    except Exception as err:  # a run that fails must fail alike in both trees
        return {"run": digest("raised", type(err).__name__, str(err))}, None, None
    its = trace.iterations
    parts = {"run": digest(poses, state, len(its), trace.converged, em.loop_errors(graph, poses, params))}
    for name in {f.name for rec in its for f in dataclasses.fields(rec)}:
        parts[f"iteration {name}"] = digest([getattr(rec, name) for rec in its])
    return parts, poses, run_values(poses, state, trace)


def pose_values(poses) -> dict[str, list]:
    """The poses' quaternions and translations, as lists for JSON."""
    return {"quat": [p.quat.tolist() for p in poses], "trans": [p.trans.tolist() for p in poses]}


def run_values(poses, state, trace) -> dict[str, list]:
    """What a run that differs is sized by: its poses, its posteriors, and
    each iteration's objective at the start and the end of its M-step and
    its largest pose update."""
    return {
        **pose_values(poses),
        "posteriors": state.posteriors.tolist(),
        "objective_start": [rec.objective_start for rec in trace.iterations],
        "objective_end": [rec.objective_end for rec in trace.iterations],
        "max_pose_update": [rec.max_pose_update for rec in trace.iterations],
    }


def sizes(parent: dict[str, list], change: dict[str, list]) -> dict[str, float | str]:
    """The largest absolute difference of each value two trees hold for one
    key, or "shapes differ" (say, when the runs took different numbers of
    EM iterations)."""
    out: dict[str, float | str] = {}
    for name in sorted(parent.keys() & change.keys()):
        a, b = np.asarray(parent[name], dtype=float), np.asarray(change[name], dtype=float)
        out[name] = float(np.abs(a - b).max(initial=0.0)) if a.shape == b.shape else "shapes differ"
    return out


def poses_digest(graphio, graph, poses) -> str:
    """`poses` read back from a pose file, as written and with a '#' on every
    row, and as the INIT rows of `graph`'s text, read in bulk and row by row."""
    text = graphio.write_poses(poses)
    graph_text = graphio.write_graph(dataclasses.replace(graph, initial_poses=poses))
    return digest(
        graphio.parse_poses(text),
        graphio.parse_poses(text.replace("\n", " #\n")),
        graphio.parse(graph_text).initial_poses,
        graphio.parse(refused_by_loadtxt(graph_text)).initial_poses,
    )


def refused_by_loadtxt(text: str) -> str:
    """`text` with the last token of its first M row written `1_0`, which
    `float` takes and loadtxt refuses, so `parse` reads it row by row."""
    lines = text.split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith("M "))
    lines[at] = " ".join(lines[at].split()[:-1] + ["1_0"])
    return "\n".join(lines)


def scene_digest(graphio, graph) -> str:
    """A generated scene's graph text and the bytes of its ground truth."""
    return digest(graphio.write_graph(graph), graph.ground_truth)


def tree_digests(tree: Path) -> dict[str, dict]:
    """Graph, run and poses digests of every perfbench scene and shuffle seed,
    and the digest of every shape's scenes, made with the package and
    perfbench of `tree` (in this process); under "values", the run_values of
    each run and the pose_values of its poses read back from a pose file."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import harness
    from robustpgo import em, graphio, synth

    out: dict[str, dict] = {kind: {} for kind in KINDS}
    values: dict[str, dict] = {"runs": {}, "poses": {}}
    for name, workload in harness.WORKLOADS.items():
        for config in workload.scenes:
            for seed in SHUFFLE_SEEDS:
                key = f"{name} scene {config.seed} shuffle {seed}"
                graph = graphio.parse(harness.scene_text(config, seed))
                out["graphs"][key] = graph_digest(graph)
                out["runs"][key], poses, values["runs"][key] = _run(em, graph, workload.params)
                if poses is None:
                    out["poses"][key] = digest(None)
                else:
                    out["poses"][key] = poses_digest(graphio, graph, poses)
                    values["poses"][key] = pose_values(graphio.parse_poses(graphio.write_poses(poses)))
    for shape in synth.SHAPES:
        # a line never revisits itself, so every loop it has is a false one
        loops = {"outlier_loop_fraction": 1.0} if shape == "line" else {}
        for n in SCENE_SIZES:
            for seed in SCENE_SEEDS:
                config = synth.ScenarioConfig(num_fragments=n, shape=shape, seed=seed, **loops)
                out["scenes"][f"{shape} {n} fragments seed {seed}"] = scene_digest(graphio, synth.generate(config))
    out["values"] = values
    return out


def digests_in(tree: Path) -> dict[str, dict]:
    """tree_digests(tree), computed by a fresh single-threaded interpreter."""
    try:
        return run_fresh("equivalence", "tree_digests", tree)
    except subprocess.CalledProcessError as err:
        raise RuntimeError(f"digests in {tree} failed: {err.stderr.strip()[-2000:]}") from None


def agree(a, b) -> bool:
    """Two digests of one key agree: equal, or, for a run's parts, equal on
    every part both trees hold."""
    if isinstance(a, dict) and isinstance(b, dict):
        return all(a[part] == b[part] for part in a.keys() & b.keys())
    return a == b


def apart(a, b) -> dict[str, list[str]]:
    """The parts of a run that only one tree holds, by tree; {} when none."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return {}
    only = {"parent": sorted(a.keys() - b.keys()), "change": sorted(b.keys() - a.keys())}
    return only if any(only.values()) else {}


def compare(parent: dict, change: dict) -> dict:
    """Per kind, how many keys both trees hold with digests that agree, and
    which differ; for `runs`, the parts each key holds in one tree only; for
    `runs` and `poses`, each differing key's sizes where both trees hold its
    values."""
    out = {}
    for kind in KINDS:
        keys = sorted(parent[kind].keys() | change[kind].keys())
        differ = [k for k in keys if not agree(parent[kind].get(k), change[kind].get(k))]
        out[kind] = {"identical": len(keys) - len(differ), "total": len(keys), "differ": differ}
        if kind == "runs":
            out[kind]["apart"] = {k: only for k in keys if (only := apart(parent[kind].get(k), change[kind].get(k)))}
        if kind in ("runs", "poses"):
            held = parent["values"][kind], change["values"][kind]
            out[kind]["sizes"] = {
                k: sizes(held[0][k], held[1][k]) for k in differ if held[0].get(k) and held[1].get(k)
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    args = parser.parse_args(argv)
    try:
        parent = git("rev-parse", args.parent)
    except (OSError, subprocess.CalledProcessError):  # not a git checkout, e.g. a `git archive` export
        parser.error(f"--parent {args.parent}: not a commit of a git checkout")
    with tempfile.TemporaryDirectory() as tmp:
        export(parent, Path(tmp))
        result = compare(digests_in(Path(tmp)), digests_in(ROOT))
    result["parent"] = parent
    print(json.dumps(result, indent=1))
    return 0 if not any(result[kind]["differ"] for kind in KINDS) else 1


if __name__ == "__main__":
    sys.exit(main())
