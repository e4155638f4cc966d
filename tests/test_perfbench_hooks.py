"""The benchmark in perfbench/ traces package functions by module and name.
A refactor that renames or removes one fails here, in the package's own
suite, and not only in `python3 -m pytest perfbench -q`."""

import importlib
import sys
from collections import Counter
from pathlib import Path

from robustpgo import em, solver
from robustpgo.model import Hyperparams
from robustpgo.synth import ScenarioConfig, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_point_resolves_to_a_callable(monkeypatch):
    # harness imports its siblings by bare name; nothing is written beside them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    harness = importlib.import_module("harness")
    assert len(harness.TRACE_POINTS) > 0
    missing = [
        f"{point.name}: {point.module.__name__}.{point.attr}"
        for point in harness.TRACE_POINTS
        if not callable(getattr(point.module, point.attr, None))
    ]
    assert not missing, missing
    assert {point.module.__name__.split(".")[0] for point in harness.TRACE_POINTS} == {"robustpgo"}


def test_run_em_calls_the_traced_names(monkeypatch):
    """perfbench's solver.solve and model.initialize_poses spans wrap the
    module attributes run_em calls: solver.solve once per EM iteration and
    em.initialize_poses once per run."""
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(solver, "solve")
    spy(em, "initialize_poses")
    _, _, trace = em.run_em(generate(ScenarioConfig(num_fragments=20, keyframe_stride=1, seed=5)), Hyperparams())
    assert len(trace) >= 2
    assert calls == {"solve": len(trace), "initialize_poses": 1}
