"""Host-speed references for the rfvlc benchmark.

On a shared VM the CPU switches between faster and slower states every
second or so, as other tenants come and go, and the share of time in each
drifts over minutes. A sweep's wall time follows it: runs of the same
sweep minutes apart differ by 20-40 %. The benchmark therefore measures
the host's speed at the same moments as the program and scales its
timings to a nominal host:

* during a sweep, a timer signal interrupts the sweep every
  SAMPLE_PERIOD_S and times one short slice of a fixed reference loop in
  CPU time, so the slices see the same host states as the sweep around
  them;
* beside each set-up probe, a fresh interpreter imports numpy
  (IMPORT_PROBE), which is the same kind of work as the probe.

The reference loop does the same kind of work as one Monte Carlo trial:
SplitMix64 integer mixing, a PCG64 generator built by state injection, a
Poisson count, a few uniform and exponential draws, small frozen
dataclasses and scalar math. It is a frozen copy of that kind of work, not
a call into rfvlc, so a change to the simulator never changes a reference.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

SLICE_ITERATIONS = 40         # one slice: about 1.2 ms of CPU on the VM below
SAMPLE_PERIOD_S = 0.05        # so slices take about 2.5 % of a sweep's time
IMPORT_PROBE = "import numpy"
# Means on a 2-vCPU Xeon VM (2.1 GHz), Python 3.11.7, numpy 2.4.6.
NOMINAL_SLICE_S = 1.2e-3
NOMINAL_IMPORT_S = 0.16

_MASK64 = (1 << 64) - 1
_STATE_TEMPLATE = np.random.PCG64(0).state


def _mix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float


def reference_loop(n: int) -> float:
    acc = 0.0
    for i in range(n):
        s = _mix(_mix(7) ^ _mix(i))
        state = dict(_STATE_TEMPLATE)
        state["state"] = {"state": (s << 64) | _mix(s), "inc": 0xA161E4A42EC16CF3}
        bits = np.random.PCG64(0)
        bits.state = state
        rng = np.random.Generator(bits)
        k = int(rng.poisson(0.6))
        points = [_Point(float(x), 1.5, 0.7) for x in rng.uniform(-500.0, 500.0, k)] if k else []
        fade = rng.exponential()
        for p in points:
            d = math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
            acc += rng.exponential() * d ** -3.5 / (1e-9 + fade)
        acc += math.log10(1.0 + fade)
    return acc


class HostSpeed:
    """CPU times of reference slices taken while the program runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._armed = False

    def _slice(self):
        t0 = time.thread_time()
        reference_loop(SLICE_ITERATIONS)
        self.samples.append(time.thread_time() - t0)

    def _tick(self, signum, frame):
        self._slice()
        # One-shot timer, re-armed after the slice: slices never overlap.
        # A signal handled after sampling() ends must not re-arm it.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    @contextlib.contextmanager
    def sampling(self):
        """Take a slice every SAMPLE_PERIOD_S while the block runs.

        Timers are not inherited across fork, so pool workers are never
        interrupted; only this process is.
        """
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # a block shorter than one period
            self._slice()

    @property
    def slowdown(self) -> float:
        """Mean slice time over the nominal one: above 1 on a slower host.

        A mean, not a median: a median flips between the host's fast and
        slow states, while a mean follows the share of time spent in each,
        as the sweep's wall time does.
        """
        return statistics.fmean(self.samples) / NOMINAL_SLICE_S
