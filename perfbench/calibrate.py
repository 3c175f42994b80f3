"""Host-speed calibration for the reported times.

On a shared host the speed of one virtual CPU drifts: an unchanged operation
measured 1.1 s to 2.3 s within two minutes, and its CPU time tracked its wall
time, so the drift is in the speed of the CPU, not in scheduling.  The
benchmark therefore runs a fixed kernel before the first operation and after
each one, and scales the mean operation time by NOMINAL_S over the mean
kernel time.

The kernel is benchmark code that no change to the package touches.  It
mixes the kinds of work the package does, because the drift hits them
differently: a Python loop over 4x4 arrays (like the RK4 oracle and the
forced sigma loop), an LU-solve step loop at m = 65 (like the midpoint
stepper), an einsum quadratic form over 10^4 rows that streams 5 MB from
memory (like record_trajectory) and 17-digit float formatting (like the CSV
writer).  For workloads whose arrays outgrow the caches, a step loop at
m = 513, which streams a 2 MB factor per step, is added: without it the
memory-bound finest convergence level drifted apart from the kernel.

Import time is scaled the same way, by a fresh interpreter importing numpy
and scipy.linalg, the dependencies the package's import loads.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# Kernel time and dependency-import time on the host the benchmark was
# tuned on (2 vCPUs, x86_64, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  They
# only set the scale: a scaled time reads as seconds on a host where the
# kernel takes NOMINAL_S.
NOMINAL_S = 0.3
NOMINAL_IMPORT_S = 0.45

DEPENDENCY_IMPORT = "import numpy, scipy.linalg"


def _cayley(m: int, rng) -> tuple:
    """LU factors of I - S/2 and a skew-symmetric S of order m.  The step
    v <- (I - S/2)^-1 (I + S/2) v preserves |v|, which keeps the iterates
    away from subnormal numbers, whose arithmetic runs at another speed."""
    mat = rng.standard_normal((m, m)) / m
    skew = mat - mat.T
    return scipy.linalg.lu_factor(np.eye(m) - 0.5 * skew), skew


def _steps(lu, skew, steps: int) -> None:
    v = np.ones(skew.shape[0])
    for _ in range(steps):
        v = scipy.linalg.lu_solve(lu, v + 0.5 * (skew @ v), check_finite=False)


class Kernel:
    """Fixed work; calling it returns the seconds it took.  ``streaming``
    adds the m = 513 step loop."""

    def __init__(self, streaming: bool):
        rng = np.random.default_rng(0)
        tiny = rng.standard_normal((4, 4))
        self._tiny = 0.1 * (tiny - tiny.T)
        self._small = _cayley(65, rng)
        self._large = _cayley(513, rng) if streaming else None
        self._rows = rng.standard_normal((10000, 65))
        self._values = rng.standard_normal(60000).tolist()

    def __call__(self) -> float:
        start = time.perf_counter()
        z = np.ones(4)
        for _ in range(18000):
            z = z + 0.01 * (self._tiny @ z)
        _steps(*self._small, 3000)
        if self._large is not None:
            _steps(*self._large, 150)
        np.einsum("ni,ij,nj->n", self._rows, self._small[1], self._rows)
        ",".join(f"{x:.17g}" for x in self._values)
        return time.perf_counter() - start

