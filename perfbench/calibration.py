"""Machine-speed calibration that the timings are scaled by.

On a shared virtual machine (2 vCPUs, Xeon at 2.1 GHz) the speed changes
by up to 1.8x within seconds and stays slow or fast for minutes as other
tenants load the host; a 30-s run's median latency then moves by 30 %
between runs of the same code. A fixed kernel, which never touches
``thermocontact``, slows down with it. It mixes the two kinds of work the
workloads do: float arithmetic in the interpreter, and reading numpy scalars
one by one out of a large array, as the grid walk of ``find_chords`` does.
In three trials of 60 to 75 s, over 3-s windows of a fixed ``chord_scan``
operation, the ratio of its time to a float-only kernel spread 1 to 8 %
(the raw time 3 to 23 %); to kernels with the numpy-scalar part, 1 to
1.5 %. So every operation's latency is multiplied by
``REFERENCE_S / kernel time``, the kernel timed right before and right after
the operation: the result is in milliseconds of a machine on which the
kernel takes ``REFERENCE_S``, close to the raw figure on a quiet machine.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
REPEATS = 3
_X = np.linspace(-1.0, 1.0, 5001)
_GRID = np.linspace(-1.0, 1.0, 40001)


def _kernel() -> float:
    acc = 0.0
    for v in _X.tolist():
        acc += math.tanh(v) * v
    d = np.tanh(_GRID)
    for i in range(0, 40000, 24):
        a, c = d[i], d[i + 1]
        if a * c < 0.0:
            acc += 1.0
    return acc


def kernel_s() -> float:
    """Median time of ``REPEATS`` runs of the calibration kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
