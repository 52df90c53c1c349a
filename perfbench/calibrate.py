"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines that flip between two speeds
about 1.6x apart, with nothing else running in the guest, sometimes every
second or two and sometimes for minutes: a fixed compute loop timed in
20-second windows spreads about 0.2 (interquartile range over median) from
window to window.  A run cannot average that away, so its timings are
reported scaled to a fixed host speed (the caller keeps the raw seconds).

``Calibrator.sample()`` times a fixed kernel that owns all of its data and
calls nothing in the package under test: a CSR matrix-vector product on a
5-point grid with numpy, a clamp, and a Python loop over a list, which is
the mix of work the solvers do.  Since the host may change speed within a
second or two, a run takes a sample right before and right after every
timed stage.  A stage that took ``t`` seconds between samples
``c0`` and ``c1`` is reported as ``t * NOMINAL_S / ((c0 + c1) / 2)``:
seconds at the host speed at which one sample takes ``NOMINAL_S``.  A run
reports medians over its instances, so the few stages during which the
host changed speed do not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one sample takes at the reference host speed.  It only fixes the
# scale of the scaled timings (chosen so that they read close to wall-clock
# seconds in the slow state of a 2-vCPU Xeon host); comparisons are between
# runs on one host.
NOMINAL_S = 0.017
GRID = 40
SWEEPS = 300
LOOP = 30000
REPEATS = 3


def _grid_csr(p: int):
    """CSR arrays of the 5-point Laplacian on a p x p grid."""
    indptr, cols, vals = [0], [], []
    for r in range(p):
        for c in range(p):
            row = []
            if r > 0:
                row.append(((r - 1) * p + c, -1.0))
            if c > 0:
                row.append((r * p + c - 1, -1.0))
            row.append((r * p + c, 4.0))
            if c < p - 1:
                row.append((r * p + c + 1, -1.0))
            if r < p - 1:
                row.append(((r + 1) * p + c, -1.0))
            cols.extend(j for j, _ in row)
            vals.extend(v for _, v in row)
            indptr.append(len(cols))
    return (np.array(indptr[:-1], dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(vals))


class Calibrator:
    """Times the fixed kernel and scales stage timings by it."""

    def __init__(self):
        self.starts, self.cols, self.vals = _grid_csr(GRID)
        self.f = np.sin(np.arange(GRID * GRID) * 0.01)
        self.items = [float(i % 97) for i in range(LOOP)]
        self.samples: list[float] = []

    def _kernel(self) -> float:
        x = np.zeros(GRID * GRID)
        for _ in range(SWEEPS):
            y = np.add.reduceat(self.vals * x[self.cols], self.starts)
            x = np.maximum(0.0, x - 0.2 * (y - self.f))
        acc = 0.0
        for v in self.items:
            acc += v * 0.5
        return float(x.sum()) + acc

    def sample(self) -> float:
        """Median seconds of a few kernel runs; kept in ``samples``."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        c = statistics.median(times)
        self.samples.append(c)
        return c

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` of a stage that ran between samples ``before`` and
        ``after``, scaled to the reference host speed."""
        return seconds * NOMINAL_S / (0.5 * (before + after))
