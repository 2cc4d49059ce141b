"""Machine-speed calibration.

The benchmark's 2-core machine is shared with other tenants, and its speed
changes in phases of seconds to minutes by up to 1.7x.  A phase slows every
part of a run alike, so the run-to-run spread of plain wall times (0.2 to
0.46 of the median over 10 runs) exceeds any bound a regression gate can
use.  Each repetition is therefore bracketed by samples of a fixed kernel
that belongs to the benchmark, not to the package, and the gated times are
scaled to a machine on which that kernel takes ``REFERENCE_S``.  The kernel
resembles the workload (``small_arrays`` or ``solves``), because contention
slows kinds of work unequally:

    scaled = measured * time average of (REFERENCE_S / kernel time)

with the samples taken just before the measurement, every 200 ms of it
(from a timer, so that stepping, export and trajectory diagnostics are all
sampled) and just after it.  On 10 runs per workload, sampling only before
and after left spreads of 0.10 to 0.27; ``small_arrays`` alone left 0.15 on
run-large and ``solves`` alone 0.18 on trajectory-analysis.

A change to the package does not change the kernel, so it shows in the
scaled times as it does in the plain ones; the plain times are kept in the
result files next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: the kernel time the scaled metrics are expressed against
REFERENCE_S = 1e-3

_X = np.linspace(0.0, 1.0, 129)


def small_arrays():
    """Small-array numpy calls driven from a Python loop, like a time step
    at small N; contention slows it as much as verify-suite and
    trajectory-analysis."""
    acc = 0.0
    for i in range(300):
        y = np.sqrt(_X * (i % 7 + 1.0) + 1.0)
        z = y[1:] - y[:-1]
        acc += float(z @ z) + i * 0.5
    return acc


_N = 4097
_LU = splu(sp.diags([np.full(_N - 2, 1e3), np.full(_N - 1, -4e3), np.full(_N, 1 + 6e3),
                     np.full(_N - 1, -4e3), np.full(_N - 2, 1e3)],
                    [-2, -1, 0, 1, 2], format="csc"))
_B = np.sin(np.linspace(0.0, 3.0, _N))


def solves():
    """Banded LU solves and float formatting at N = 4097, like a run-large
    step and its export; contention slows it less than small_arrays."""
    x = _B
    for _ in range(6):
        x = _LU.solve(x)
    return ",".join("%.17g" % v for v in x[:200])


def timed(kernel=small_arrays):
    """Seconds taken by one run of ``kernel``."""
    t = perf_counter()
    kernel()
    return perf_counter() - t


def scale(samples):
    """Machine speed relative to the reference, averaged over time from
    ``(time, kernel seconds)`` samples by the trapezoid rule, so that a long
    stretch between two samples weighs as much as it lasted;
    ``measured * scale(samples)`` is the time at reference speed."""
    t = np.array([s[0] for s in samples], dtype=float)
    speed = REFERENCE_S / np.array([s[1] for s in samples], dtype=float)
    if len(t) < 2 or t[-1] == t[0]:
        return float(speed.mean())
    return float(np.sum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t)) / (t[-1] - t[0]))
