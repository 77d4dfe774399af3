"""Wall time rescaled to a reference host speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by a
factor of two within seconds, so a raw wall time mostly measures the
neighbours.  :class:`HostClock` times each unit of a workload (one
``minimize``, one ``brute_force_min``, one CLI command) and, while a unit
runs, an interval timer interrupts it every ``SAMPLE_INTERVAL_S`` to time a
frozen reference kernel that lives here and never changes with the package.
The kernel's time is taken out of the unit's wall time, and the unit's
rescaled time is its wall time times ``REFERENCE_KERNEL_S`` times the mean
of ``1 / kernel time`` over the samples taken during it: the seconds the
unit would take on a host where the kernel takes ``REFERENCE_KERNEL_S``.
Units too short to hold ``MIN_UNIT_SAMPLES`` samples are rescaled by the
mean over the whole pass.
A change to the package moves the units' times and not the kernel's, so the
rescaled time still moves with the package.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the host the benchmark was defined on (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4).  It sets the unit of the rescaled times.
REFERENCE_KERNEL_S = 0.0010
SAMPLE_INTERVAL_S = 0.025
MIN_UNIT_SAMPLES = 4
FALLBACK_REPEATS = 9


def reference_kernel() -> float:
    """A fixed mix of what the package spends its time on: interpreter
    loops over small numpy arrays, a call on a mid-sized array, and a
    little pure-Python arithmetic.  About 1 ms."""
    small = np.linspace(0.0, 1.0, 16)
    mid = np.linspace(0.0, 1.0, 2048)
    total = float(np.sort(mid * 1.0001)[::7].sum())
    for _ in range(100):
        clipped = np.minimum(np.maximum(small * 1.0001 - 0.5, 0.0), 0.75)
        total += float(clipped @ small) + sum(range(12))
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def median_kernel_seconds(repeats: int = FALLBACK_REPEATS) -> float:
    return statistics.median(kernel_seconds() for _ in range(repeats))


class HostClock:
    """Times units of work and rescales a pass of them by the reference
    kernel.  With ``sampling=False`` no timer runs (for traced passes, whose
    spans must not contain the kernel) and a pass is rescaled by kernel
    times measured after it."""

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self.samples: list[float] = []
        self.wall = 0.0
        self._sampled_scaled = 0.0
        self._unsampled_wall = 0.0
        self._busy = False
        self._kernel_in_unit = 0.0

    def reset(self) -> None:
        """Start a new pass."""
        self.samples = []
        self.wall = 0.0
        self._sampled_scaled = 0.0
        self._unsampled_wall = 0.0

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._kernel_in_unit += time.perf_counter() - start
        self._busy = False

    def time(self, fn, *args, **kwargs):
        """Call ``fn`` as one timed unit of the pass and return its result."""
        self._kernel_in_unit = 0.0
        first = len(self.samples)
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            seconds -= self._kernel_in_unit
            self.wall += seconds
            unit = self.samples[first:]
            if len(unit) >= MIN_UNIT_SAMPLES:
                self._sampled_scaled += seconds * REFERENCE_KERNEL_S * _mean_speed(unit)
            else:
                self._unsampled_wall += seconds

    def scaled(self) -> float:
        """The pass's wall time at the reference host speed."""
        if not self.samples:
            self.samples.append(median_kernel_seconds())
        return (self._sampled_scaled
                + self._unsampled_wall * REFERENCE_KERNEL_S * _mean_speed(self.samples))


def _mean_speed(kernel_times: list[float]) -> float:
    return statistics.fmean(1.0 / k for k in kernel_times)
