"""Solve-time benchmark of the robustpgo EM back-end.

Run from the repository root:

    python3 perfbench/run.py --workload circle-100 --seed 0 --seconds 20 --trace 0

It prints a readable table, writes the full record to perfbench/out/, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1 runs
with spans around every layer and reports the per-layer metrics. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def print_end_to_end(harness, result, metrics) -> None:
    ok = [o for o in result.outcomes if o.error is None]
    print(f"{'metric':<14}{'value':>14}  {'unit':<6}samples")
    for name, (value, unit) in metrics.items():
        samples = len(result.setups) + len(ok) if name == "setup_s" else len(ok)
        print(f"{name:<14}{value:>14.6g}  {unit:<6}{samples}")
    print(f"{'failed_frac':<14}{harness.failed_frac(result):>14.6g}  {'ratio':<6}{len(result.outcomes)}")
    for name, value in harness.wall_medians(result).items():
        print(f"{name:<14}{value:>14.6g}  {'s':<6}(unscaled wall time)")
    print(f"\n{'scene seed':<12}{'solves':>7}{'solve_s':>10}{'iters':>6}{'precision':>10}"
          f"{'recall':>8}{'ate_mean_m':>12}{'ate_full_m':>12}")
    for k, config in enumerate(result.workload.scenes):
        runs = [o for o in ok if o.scene == k]
        if not runs:
            print(f"{config.seed:<12}{0:>7}")
            continue
        sc = runs[0].scores
        print(f"{config.seed:<12}{len(runs):>7}{statistics.median(o.solve_s for o in runs):>10.4f}{runs[0].iterations:>6}"
              f"{sc['precision']:>10.4f}{sc['recall']:>8.4f}{sc['ate_mean_m']:>12.6f}{sc['ate_full_m']:>12.6f}")


def print_layers(harness, result, metrics) -> None:
    table = harness.span_table(result.tracer)
    solves = table["bench.solve"]["calls"]
    print(f"self time per traced solve ({solves:g} solves)")
    print(f"{'span':<24}{'calls':>10}{'total_s':>11}{'self_s':>11}")
    layers: dict[str, float] = {}
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<24}{row['calls'] / solves:>10.1f}{row['total_s'] / solves:>11.4f}"
              f"{row['self_s'] / solves:>11.4f}")
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"] / solves
    print(f"\n{'layer':<10}{'self_s':>11}")
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<10}{own:>11.4f}")
    print(f"\ntracing overhead: {metrics['trace.overhead_s'][0]:+.4f} s per solve")
    print(f"\n{'metric':<26}{'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<26}{value:>14.6g}  {unit}")


def main(argv: list[str] | None = None) -> int:
    # one BLAS/OpenMP thread; these must be set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "robustpgo" / "__init__.py").is_file():
        print(f"error: robustpgo sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_before = os.getloadavg()
    result = harness.run_benchmark(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    try:
        metrics = harness.per_layer(result) if args.trace else harness.end_to_end(result)
    except harness.CheckFailed as err:
        print(f"error: {err}; failures by type: {dict(result.failures)}", file=sys.stderr)
        return 1
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {len(result.outcomes)}  failed {dict(result.failures)}")
    print("env " + json.dumps(env))
    if args.trace:
        print_layers(harness, result, metrics)
    else:
        print_end_to_end(harness, result, metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "failures": dict(result.failures),
        "wall": {} if args.trace else harness.wall_medians(result),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "solves": [asdict(o) for o in result.outcomes],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if result.tracer is not None:
        result.tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")

    failed = sum(result.failures.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result.outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
