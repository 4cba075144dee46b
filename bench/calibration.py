"""Calibration kernels that track the machine's speed during a run.

On a shared VM the same work can take up to twice as long from one moment
to the next, and a whole process can run tens of percent slower than the
next one. A fixed kernel timed right before and right after each unit slows
down with the unit, so the unit's time divided by the kernel's is steady.
Each workload uses a kernel shaped like its own dominant work; ``nominal_s``
is the kernel's median time on the reference machine (see README), so a
calibrated time reads as seconds on that machine.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    def __init__(self, loops=(), argsort=0, rows=1, nominal_s=1e-3):
        """loops: (points, iterations) of a Sinkhorn-style scaling loop made
        of small numpy calls; argsort: length of an array that is argsorted,
        after which ``rows`` rows of that length are gathered in sorted order
        and cumulatively summed, as curve evaluation does."""
        self.spec = (tuple(loops), int(argsort), int(rows))
        self.nominal_s = nominal_s
        self._inputs = None

    def _prepare(self):
        rng = np.random.default_rng(0)
        loops = [(np.exp(-rng.random((m, m))), np.full(m, 1.0 / m), iters)
                 for m, iters in self.spec[0]]
        return loops, rng.random(self.spec[1]), rng.random((self.spec[2], self.spec[1]))

    def time(self):
        """Seconds for one run of the kernel."""
        if self._inputs is None:
            self._inputs = self._prepare()
        loops, values, rows = self._inputs
        t0 = time.perf_counter()
        for K, r, iters in loops:
            u = np.ones(r.size)
            v = np.ones(r.size)
            for _ in range(iters):
                Kv = K @ v
                float(np.abs(u * Kv - r).max())
                u = r / Kv
                v = r / (K.T @ u)
                float(np.abs(np.log(u)).max())
        if values.size:
            np.cumsum(rows[:, np.argsort(values)], axis=-1)
        return time.perf_counter() - t0
