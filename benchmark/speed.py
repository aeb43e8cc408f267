"""Host speed probe: a fixed small kernel, timed next to every unit of work.

The CPU speed of a shared host can swing by a factor of two for tens of
seconds at a time.  On a shared 2-vCPU VM, one ``classify`` call took 19 ms
in one stretch and 37 ms in the next, and this probe's kernel slowed down in
step with it.  Every time the benchmark reports is therefore scaled to a
reference speed, the speed at which :func:`probe` takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / (mean probe time around the measurement)

The probe is the benchmark's own code, a Python loop over small numpy
column updates like the program's inner loops, so a change to the program
cannot move it.
"""

import time

import numpy as np

#: Probe time that defines the reference speed.
REFERENCE_S = 0.5e-3

_M = np.arange(64, dtype=float).reshape(8, 8) / 64.0


def probe() -> float:
    """Seconds taken by the fixed kernel right now: the fastest of three tries,
    so that one interrupted try does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = _M.copy()
        for i in range(150):
            col = x[:, i % 8].copy()
            x[:, (i + 1) % 8] = 0.7 * col + 0.3 * x[:, (i + 1) % 8]
        best = min(best, time.perf_counter() - t0)
    return best


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the probe times around it."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
