"""Reference seconds: wall time corrected for how fast the machine runs now.

On a shared machine the same work can take 40% longer for seconds or tens
of seconds at a time while neighbours are busy. The benchmark therefore
times a fixed calibration kernel at both ends of each measured piece of
work and, where the caller asks for it, about every 0.1 s inside it. The
piece's wall time, with the calibrations taken out, is then scaled by
``REFERENCE_CAL_S`` over the mean calibration time. A change to bbsolve
moves the measured wall time but not the calibration, so it shows in full;
a machine-wide slowdown moves both and cancels.
"""

from time import perf_counter

import numpy as np

# The kernel's typical duration on the 2-core Xeon the bounds were set on,
# so reference seconds read close to wall seconds there.
REFERENCE_CAL_S = 0.0057

_MATRIX = np.random.default_rng(0).random((16, 16))
_SMALL = np.random.default_rng(1).random((8, 8))


def calibration_s():
    """Wall time of one pass of the fixed calibration kernel.

    Three parts of a few milliseconds each: Python integer arithmetic,
    Python float arithmetic on numpy elements (the sequential sampler's
    pattern), and small numpy products (the Fock evolution's pattern).
    """
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    acc = 0.0
    for _ in range(200):
        for i in range(8):
            acc += _SMALL[i, 3] * _SMALL[3, i]
    x = np.ones(16)
    for _ in range(1_300):
        x = _MATRIX @ x
        x /= x[0]
    return perf_counter() - start


class RefClock:
    """A wall clock that stops while it calibrates, and the calibrations it took."""

    def __init__(self, every_s=None):
        self.every_s = every_s
        self.cals = []
        self._paused = 0.0
        self._last = 0.0
        self.calibrate()

    def now(self):
        """Seconds on a clock that does not run during calibrations."""
        return perf_counter() - self._paused

    def calibrate(self):
        start = perf_counter()
        self.cals.append(calibration_s())
        self._last = perf_counter()
        self._paused += self._last - start

    def tick(self):
        """Calibrate if ``every_s`` have passed since the last calibration."""
        if self.every_s is not None and perf_counter() - self._last >= self.every_s:
            self.calibrate()

    def mark(self):
        """Open a piece of work at the latest calibration."""
        return len(self.cals) - 1

    def scale(self, mark):
        """Close the piece opened at ``mark``; reference seconds per wall second in it."""
        self.calibrate()
        cals = self.cals[mark:]
        return REFERENCE_CAL_S / (sum(cals) / len(cals))
