"""Machine speed, measured by a fixed numpy kernel run between the ops.

Other tenants of a small shared machine slow every op by up to about 1.5x,
in spells of seconds to minutes, so the raw time of a 30-s run moves by
15-20% from one run to the next.  A kernel of the package's kind of work
(9x9 complex Hermitian ``eigh``, products and a ``kron``, driven from
Python) is timed in slices interleaved with the ops, so that it sees the
same spells.  A round's times are then scaled to the speed at which one
kernel unit takes ``REFERENCE_UNIT_S``: what the round would have taken on
a machine of fixed speed.  The kernel is the benchmark's own and never
calls the package, so a change to the package moves the scaled times in
full.
"""

from __future__ import annotations

import time

import numpy as np

# about the median time of one unit on the reference machine of README.md
# (2-core Intel Xeon, numpy 2.4.6, OpenBLAS with one thread), so that scaled
# times there read close to raw ones
REFERENCE_UNIT_S = 1.0e-3
UNIT_REPS = 16
# kernel time kept at this share of the op time, so a run spends ~20% of its time here
SHARE = 0.25


class SpeedProbe:
    """Runs kernel units on demand and keeps their count and time."""

    def __init__(self):
        rng = np.random.default_rng(2007)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.h = (g + g.conj().T) / 2
        self.b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.eye = np.eye(3)
        self.sink = 0.0
        self.units = 0
        self.seconds = 0.0
        for _ in range(20):   # warm-up, not counted
            self.unit()
        self.units = 0
        self.seconds = 0.0
        self.busy = 0.0

    def unit(self) -> None:
        start = time.perf_counter()
        for _ in range(UNIT_REPS):
            vals, vecs = np.linalg.eigh(self.h)
            m = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
            self.sink += float(np.trace(m @ self.b).real)
            self.sink += float(np.kron(m[:3, :3], self.eye)[0, 0].real)
        self.seconds += time.perf_counter() - start
        self.units += 1

    def after_op(self, elapsed: float) -> None:
        """Add an op's time and run units until theirs is SHARE of all op time."""
        self.busy += elapsed
        while self.seconds < SHARE * self.busy:
            self.unit()

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.unit()

    def mark(self) -> tuple[int, float]:
        return self.units, self.seconds

    def scale_since(self, mark: tuple[int, float]) -> float:
        """Factor that turns a time measured since mark into fast-state time."""
        units, seconds = self.units - mark[0], self.seconds - mark[1]
        if units == 0:
            self.unit()
            units, seconds = 1, self.seconds - mark[1]
        return REFERENCE_UNIT_S / (seconds / units)
