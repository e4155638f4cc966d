"""The benchmark in perfbench/ traces package functions by module and name.
A refactor that renames or removes one fails here, in the package's own
suite, and not only in `python3 -m pytest perfbench -q`."""

import importlib
import sys
from pathlib import Path

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
