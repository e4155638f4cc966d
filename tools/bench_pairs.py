"""Alternating pairs of benchmark runs: a parent commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload circle-400 --pairs 10 --seed 3200 --out pairs.json

The parent commit is exported with `git archive` into a temporary directory,
so `--parent` needs a git checkout: outside one it is a usage error (exit 2).
For each workload, pair k runs the benchmark command of BENCHMARK.json at
seed `--seed + k` once in that export and once in the working tree, one run
at a time; even pairs run the parent first, odd pairs the change first. For
every end-to-end metric BENCHMARK.json lists, the output holds both sides'
runs, their medians and quartiles (statistics.quantiles, method
"inclusive"), the pairs the change won and lost (ties count for neither),
the relative change of the medians against the metric's bound, and the gain
rule: the change wins at least nine tenths of the pairs, and the medians
differ by more than the distance between the parent's quartiles.

Uses the standard library only, and writes nothing into the repository but
`--out` and the benchmark's own output directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of commit `rev`, as `git archive` gives them, under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_fresh(tool: str, function: str, tree: Path, *args: str):
    """`tool.function(tree, *args)`, with `tool` a module of this directory, run
    in `tree` by a fresh interpreter with single-threaded BLAS that writes
    no bytecode, and returned through JSON; subprocess.CalledProcessError,
    which holds its stderr, when the interpreter exits non-zero."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = (
        f"import json, sys; sys.path.insert(0, sys.argv[1]); import {tool}; from pathlib import Path; "
        f"print(json.dumps({tool}.{function}(Path(sys.argv[2]), *sys.argv[3:])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(tree), *args],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def mstep_counts(trace) -> list[dict]:
    """Per M-step of an EM trace, its discrete `EmIteration` fields: the
    termination, the accepted steps (`iterations`), factorizations,
    curvature steps, PCG iterations, misses, Gauss-Newton redos and inlier
    count, each one the tree's `EmIteration` has."""
    names = (
        "termination", "iterations", "factorizations", "curvature_steps",
        "pcg_iterations", "misses", "redos", "inlier_count",
    )
    return [{name: getattr(rec, name) for name in names if hasattr(rec, name)} for rec in trace.iterations]


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: the JSON object its last stdout line holds,
    or {"error": ...} if the run exits non-zero or prints no such line."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"last line is not JSON: {lines[-1][:200]}"}


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' runs of one end-to-end metric, paired by index."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    ps, cs = summary(parent), summary(change)
    gain = sign * (ps["median"] - cs["median"])
    rel = (cs["median"] - ps["median"]) / abs(ps["median"]) if ps["median"] else 0.0
    return {
        "better": metric["better"],
        "parent": parent,
        "change": change,
        "parent_stats": ps,
        "change_stats": cs,
        "change_won_pairs": won,
        "change_lost_pairs": lost,
        "relative_change": rel,
        "bound": metric["bound"],
        "within_bound": sign * rel <= metric["bound"],
        "gain": won >= 0.9 * len(parent) and gain > ps["q3"] - ps["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k uses seed + k")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    try:
        parent_sha = git("rev-parse", args.parent)
    except (OSError, subprocess.CalledProcessError):  # not a git checkout, e.g. a `git archive` export
        parser.error(f"--parent {args.parent}: not a commit of a git checkout")
    record = {
        "command": " ".join(bench["command"]) + " --workload <w> --seed <s> "
        f"--seconds {args.seconds:g} --trace 0",
        "parent": parent_sha,
        "change": git("rev-parse", "HEAD") + (" with uncommitted changes" if git("status", "--porcelain") else ""),
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(parent_sha, trees["parent"])
        for workload in workloads:
            seeds = list(range(args.seed, args.seed + args.pairs))
            runs = {"parent": [], "change": []}
            order = []
            for k, seed in enumerate(seeds):
                sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                order.append(sides[0])
                for side in sides:
                    runs[side].append(run_once(bench["command"], trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: {runs[side][-1].get('error', 'ok')}", file=sys.stderr)
            entry = {
                "seeds": seeds,
                "first_in_pair": order,
                "errors": {side: [r["error"] for r in rs if "error" in r] for side, rs in runs.items()},
                "attempted": {side: sum(r.get("attempted", 0) for r in rs) for side, rs in runs.items()},
                "failed": {side: sum(r.get("failed", 0) for r in rs) for side, rs in runs.items()},
            }
            if not any(entry["errors"].values()):
                for metric in bench["end_to_end"]:
                    name = metric["name"]
                    values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
                    entry[name] = compare(metric, values["parent"], values["change"])
            record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
