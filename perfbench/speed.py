"""Machine-speed probe that rescales measured wall times to a reference speed.

On a shared host the same solve can take 0.7 s in one half-minute and 1.3 s
in the next while the process has a core to itself, because neighbours slow
the core down, not because the process waits. A run then reports whichever
phase it happened to land in. The probe times a fixed kernel of small numpy
calls dispatched from Python, the same mix as the solver's inner loop, at
the start and end of a measured interval and every TICK_S inside it, from a
SIGALRM handler. The interval's wall time, minus the time spent in the probe,
is scaled by REFERENCE_S / (mean kernel time): seconds on a machine where the
kernel takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.25
REFERENCE_S = 1e-3  # kernel time that defines the reference speed

_rng = np.random.default_rng(0)
_ALPHA, _JAC, _RES = _rng.random(50), _rng.random((50, 3, 6)), _rng.random((50, 3))


def kernel_s() -> float:
    """Wall time of 100 gradient-shaped einsum calls on 50 matches."""
    start = perf_counter()
    for _ in range(100):
        np.einsum("n,nab,na->b", _ALPHA, _JAC, _RES)
    return perf_counter() - start


class SpeedProbe:
    """Times the body of a `with` block. After exit, `wall_s` is its wall time
    without the probe's own, and `seconds` that time at reference speed.
    Uses SIGALRM, so it runs in the main thread only."""

    def __enter__(self) -> SpeedProbe:
        self.samples = [kernel_s()]
        self._probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(kernel_s())
        self._probe_s += perf_counter() - start

    def __exit__(self, *exc) -> bool:
        self.wall_s = perf_counter() - self._start - self._probe_s
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_s())
        self.seconds = self.wall_s * REFERENCE_S / statistics.fmean(self.samples)
        return False
