"""Host-speed correction for times measured on a shared machine.

Other tenants of a shared host slow a process by up to about 2x, for a
few seconds to a few minutes at a time.  On the 2-vCPU VM this benchmark
was written on, that moved the median of a 30 s desk run by 0.33 to 0.55
of itself (IQR over median across 30 s windows), and no statistic of
the run's own units removed it: in a slow phase there are no fast units
to pick.

So every timed piece of work is bracketed by three fixed calibration
kernels, one per kind of work the workloads do: interpreter work (dict
stores in a loop), calls on small arrays (the desk's 20-UE ticks) and
passes over large arrays (the dense ticks).  `slowdown` gives how much
slower than their reference times the kernels ran, as a geometric mean,
and a time divided by it reads as the time at the reference speed.  Over
the same logs that correction cut the spread to at most 0.11 on every
workload and metric; across ten 30 s runs it stayed at or below 0.15.
The kernels are frozen: a change to the program cannot make them
faster or slower.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Median kernel times on the host the benchmark was written on: a 2-vCPU
# x86 KVM guest (Xeon, 2.0 GHz), Python 3.11, numpy 2.4.
REFERENCE_S = {"interpreter": 1.539e-3, "small_arrays": 1.245e-3, "large_arrays": 1.066e-3}

_SMALL = np.arange(20.0)
_LARGE = np.linspace(0.0, 1.0, 14_000).reshape(2000, 7)


def _interpreter() -> None:
    d = {}
    n = 0
    while n < 20_000:
        d[n & 255] = n
        n += 1


def _small_arrays() -> None:
    for _ in range(300):
        float(np.sqrt(_SMALL * _SMALL + 1.0).sum())


def _large_arrays() -> None:
    for _ in range(5):
        (np.log10(_LARGE * _LARGE + 1.0) * 3.0).max(axis=1)


KERNELS = {"interpreter": _interpreter, "small_arrays": _small_arrays, "large_arrays": _large_arrays}


def slowdown() -> float:
    """Geometric mean over the kernels of best-of-3 time over reference
    time: 1.0 at the reference speed, 2.0 at half of it."""
    logs = 0.0
    for name, kernel in KERNELS.items():
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        logs += math.log(best / REFERENCE_S[name])
    return math.exp(logs / len(KERNELS))
