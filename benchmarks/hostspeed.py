"""Host speed probe: a fixed piece of work that uses no extractbench code.

The benchmark runs on shared virtual machines whose CPU speed drifts: the
same loop takes up to twice as long from one minute to the next, and CPU
time moves with wall time, so the drift is not descheduling. The probe
measures that speed next to each timed step of the workload: a timing
divided by the probe seconds around it and multiplied by
``REFERENCE_PROBE_S`` is the timing scaled to a host on which the probe
takes ``REFERENCE_PROBE_S``. The probe is small-array numpy and Python
dispatch, the same mix as the library's engine, and it never calls the
library, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds of the host the scaled figures refer to (about the median
# probe on a 2-CPU Xeon microVM, Python 3.11, numpy 2.4, scipy-openblas
# 0.3.31, where single probes read 16 to 40 ms).
REFERENCE_PROBE_S = 0.02
_STEPS = 3000

_rng = np.random.default_rng(12345)
_W = _rng.standard_normal((64, 64)) / 8.0
_X0 = _rng.standard_normal((16, 64))


def _kernel() -> float:
    """Python steps of small numpy ops, as in the library's engine."""
    x = _X0.copy()
    y = np.empty_like(x)
    acc = 0.0
    for step in range(_STEPS):
        np.matmul(x, _W, out=y)
        np.tanh(y, out=x)
        acc += float(x[step % 16, step % 64]) * 0.5 + step
    return acc


def probe() -> float:
    """Seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


class Probes:
    """A chain of probes: one before the first timed step and one after each.

    Each timed step is scaled by the mean of the probes on either side of it,
    so a host that slows for a few seconds slows the probe next to it too.
    """

    def __init__(self):
        self.samples: list[float] = [probe()]

    def after_step(self) -> float:
        """Probe now; the probe seconds around the step that just ended."""
        self.samples.append(probe())
        return (self.samples[-2] + self.samples[-1]) / 2


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_PROBE_S / probe_s
