"""Timing scaled to a fixed machine speed, measured by a calibration kernel.

On a shared VM, other tenants' load slows this Python-heavy code by 1.5x or
more for seconds to minutes at a time, with no steal time to show for it:
process CPU time slows exactly as much as wall time. A later run, or a
parent and a child commit measured an hour apart, would then differ by more
than any change worth measuring.

The kernel below does a fixed amount of interpreter work and small NumPy
calls, the mix of voicequal's scoring and per-frame loops, and is timed
between the timed stretches of work. A stretch's time is scaled by
``REFERENCE_S`` over the mean of the kernel times on either side of it: that
is its time on a machine on which the kernel takes ``REFERENCE_S``. A change to the program moves the
scaled time as much as the raw one; a change of machine speed moves both the
stretch and the kernel, and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's typical time on the quiet 2-vCPU x86_64 VM the benchmark was
# defined on (Python 3.11, NumPy 2.4); a fixed scale, not a measurement.
REFERENCE_S = 0.002

_X = np.random.default_rng(0).standard_normal(1024)
_KEYS = tuple(f"f{i}" for i in range(25))
_MU = {k: 0.1 * i for i, k in enumerate(_KEYS)}
_SIGMA = {k: 1.0 + i for i, k in enumerate(_KEYS)}
_VECTOR = {k: 0.3 * i for i, k in enumerate(_KEYS)}


def _weighted_z(sign: int) -> float:
    terms = {}
    for key in _KEYS:
        terms[key] = (0.25 if sign & 1 else -0.75) * ((_VECTOR[key] - _MU[key]) / _SIGMA[key])
    return sum(terms.values()) / len(terms)


def kernel_s() -> float:
    """Run the calibration kernel once; returns its wall time in seconds.

    Interpreter work (dict lookups, calls, float arithmetic, as in scoring)
    and small-array NumPy calls (as in per-frame analysis), in fixed amounts.
    On a shared VM this mix tracked the workloads' slow-downs more closely
    than either part alone or than large-array work.
    """
    t0 = time.perf_counter()
    for i in range(160):
        _weighted_z(i)
    for _ in range(40):
        np.fft.rfft(_X)
        _X.dot(_X)
        np.sort(_X)
        np.abs(_X).max()
    return time.perf_counter() - t0


class Stopwatch:
    """Times one operation, made of stretches split by ``tick``; no scaling."""

    def start(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """Close the current stretch and start the next one."""
        elapsed = time.perf_counter() - self._t0
        self.raw_s += elapsed
        self.scaled_s += self._scale(elapsed)  # may run the kernel: restart after it
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Close the operation; returns (raw seconds, scaled seconds)."""
        self.tick()
        return self.raw_s, self.scaled_s

    def _scale(self, elapsed: float) -> float:
        return elapsed


class SpeedClock(Stopwatch):
    """A stopwatch that times the kernel at every tick, outside the stretches,
    and scales each stretch by the kernel times before and after it."""

    def __init__(self, warmup: int = 5):
        for _ in range(warmup):
            kernel_s()
        self.kernel_times = [kernel_s()]

    def _scale(self, elapsed: float) -> float:
        before = self.kernel_times[-1]
        self.kernel_times.append(kernel_s())
        return elapsed * REFERENCE_S * 2.0 / (before + self.kernel_times[-1])
