"""EM on circle scenes of growing size: counts, quality, time and memory per run.

Run from the repository root:

    python3 tools/scale.py --out scale.json
    python3 tools/scale.py --parent HEAD --out scale.json
    python3 tools/scale.py --scene cauchy:4000:1 --scene gaussian:1000:0 --out scale.json

A scene `mode:N:seed` is `synth.generate(ScenarioConfig(num_fragments=N,
seed=seed))`, a circle, run by `em.run_em` with `Hyperparams(mode=mode)`.
The default grid is cauchy N in {1000, 2000, 4000, 8000} at seeds 0-2, and
gaussian N in {400, 1000} at seed 0. Each run has a fresh interpreter with
single-threaded BLAS that writes no bytecode. It records:

- `msteps`, the EM iterations, each one M-step, and `capped`, the M-steps
  that MAX_INNER_ITERS stopped;
- `accepted` LM steps, `factorizations`, `misses` and `redos` (curvature
  trials redone with the Gauss-Newton H; None for a tree whose reports
  lack it), summed over the M-steps' `SolverReport`s;
- `factor_calls`, the calls to `solver._band_factor` and `solver.splu`, each
  one factorization of a system;
- `inliers`, the inlier count of the posteriors that weighted each M-step;
- `tp`, `fp`, `fn`, `precision` and `recall` of the loops `em.classify_loops`
  keeps, against the scene's oracle labels, and `ate_full_m`
  (`synth.full_alignment_ate`), all from `synth.evaluate` (a tree whose
  result lacks `tp`, `fp` and `fn` has them counted from its confusion rows);
- `run_em_s`, the wall time of `run_em`; `import_rss_mb`, the run's
  interpreter's peak resident set right after it imports the package, before
  the scene is generated; and `peak_rss_mb`, its peak resident set at the
  end, so the run's own growth is their difference.

The record names the working tree's commit, or "unknown" outside a git
checkout. With `--parent REV`, which needs one, the commit is exported with
`bench_pairs.export` into a temporary directory and each scene runs there
too, one run at a time: the parent first at even scenes of the list, the
working tree first at odd ones. The output is one JSON object, with each scene's runs under "scenes"
by tree. Uses the standard library only, and writes nothing into either
tree but `--out`.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git, run_fresh  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODES = ("cauchy", "gaussian")
DEFAULT_SCENES = [f"cauchy:{n}:{seed}" for n in (1000, 2000, 4000, 8000) for seed in range(3)] + [
    "gaussian:400:0",
    "gaussian:1000:0",
]


def scene(text: str) -> str:
    """A `mode:N:seed` scene name, checked: a known mode, N >= 2, seed >= 0."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in MODES or not parts[1].isdigit() or not parts[2].isdigit():
        raise argparse.ArgumentTypeError(f"scene {text!r} is not mode:N:seed with mode in {MODES}")
    if int(parts[1]) < 2:
        raise argparse.ArgumentTypeError(f"scene {text!r} needs at least 2 fragments")
    return f"{parts[0]}:{int(parts[1])}:{int(parts[2])}"


def counts(result) -> dict:
    """TP / FP / FN of a `synth.evaluate` result, from its fields; a tree
    whose EvalResult predates them has them counted from its confusion rows."""
    if hasattr(result, "tp"):
        return {"tp": result.tp, "fp": result.fp, "fn": result.fn}
    rows = result.confusion
    return {
        "tp": sum(p and o for *_, p, o in rows),
        "fp": sum(p and not o for *_, p, o in rows),
        "fn": sum(o and not p for *_, p, o in rows),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB (ru_maxrss is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(tree: Path, name: str) -> dict:
    """One run of the scene with the package of `tree`, in this process."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "src"))
    from robustpgo import em, solver, synth
    from robustpgo.model import Hyperparams

    import_rss_mb = peak_rss_mb()
    calls = [0]

    def counted(real):
        def spy(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        return spy

    for factor in ("_band_factor", "splu"):
        setattr(solver, factor, counted(getattr(solver, factor)))
    mode, n, seed = name.split(":")
    graph = synth.generate(synth.ScenarioConfig(num_fragments=int(n), seed=int(seed)))
    params = Hyperparams(mode=mode)
    start = time.perf_counter()
    poses, state, trace = em.run_em(graph, params)
    seconds = time.perf_counter() - start
    result = synth.evaluate(poses, graph, em.classify_loops(state, params.inlier_threshold))
    reports = trace.iterations
    return {
        "msteps": len(reports),
        "capped": sum(rec.termination == "max_iterations" for rec in reports),
        "accepted": sum(rec.iterations for rec in reports),
        "factorizations": sum(rec.factorizations for rec in reports),
        "factor_calls": calls[0],
        "misses": sum(rec.misses for rec in reports),
        "redos": sum(rec.redos for rec in reports) if all(hasattr(rec, "redos") for rec in reports) else None,
        "inliers": [rec.inlier_count for rec in reports],
        **counts(result),
        "precision": result.precision,
        "recall": result.recall,
        "ate_full_m": result.full_alignment_ate,
        "run_em_s": seconds,
        "import_rss_mb": import_rss_mb,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_in(tree: Path, name: str) -> dict:
    """measure(tree, name) in a fresh single-threaded interpreter, or
    {"error": ...} when it exits non-zero."""
    try:
        return run_fresh("scale", "measure", tree, name)
    except subprocess.CalledProcessError as err:
        return {"error": f"exit {err.returncode}: {err.stderr.strip()[-500:]}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scene", type=scene, action="append", help="mode:N:seed, repeatable; default DEFAULT_SCENES")
    parser.add_argument("--parent", help="commit to run beside the working tree")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    scenes = args.scene or DEFAULT_SCENES
    try:
        change = git("rev-parse", "HEAD") + (" with uncommitted changes" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):  # not a git checkout, e.g. a `git archive` export
        change = "unknown"
    try:
        parent = git("rev-parse", args.parent) if args.parent else None
    except (OSError, subprocess.CalledProcessError):
        parser.error(f"--parent {args.parent}: not a commit of a git checkout")
    record = {"change": change, "parent": parent, "scenes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT}
        if args.parent:
            export(record["parent"], Path(tmp))
            trees["parent"] = Path(tmp)
        for k, name in enumerate(scenes):
            sides = sorted(trees, reverse=k % 2 == 0)  # "parent" first at even scenes
            record["scenes"][name] = {side: run_in(trees[side], name) for side in sides}
            for side in sides:
                print(f"{name} {side}: {record['scenes'][name][side].get('error', 'ok')}", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
