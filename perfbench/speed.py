"""Pass and set-up times, corrected for the machine's speed at the time.

The 2-CPU machine this benchmark was built on shares its cores with other
work.  Its speed moves within seconds: in a 100-s loop, the CPU time of the
same batch of `geometry` calls ranged over 0.025-0.045 s.  A probe kernel
timed alongside moved with it.  So while a pass runs, the stopwatch samples
a fixed probe kernel every PROBE_INTERVAL_S of process CPU time (by SIGPROF,
so no thread is started).  It reports the pass's CPU time, less the probes'
own time, scaled to a reference core on which the probe takes REFERENCE_S:

    seconds = (cpu_s - probe time) * mean(REFERENCE_S / probe sample)

The mean of the speeds is used because a probe slowed down by preemption
reads as a speed near 0 and moves the mean little.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
REFERENCE_S = 5e-4
MIN_SAMPLES = 5

_THETA = np.linspace(0.0, np.pi, 128)
_RHO = 0.8 + 0.05 * np.cos(2.0 * _THETA)


def probe() -> float:
    """Wall seconds of a fixed kernel: the curvature of a 128-node profile, 10 times.

    It is the same kind of work as the program's: short numpy calls on small
    arrays, driven from Python.  It never changes, so a change of the program
    does not move it.
    """
    t0 = time.perf_counter()
    for _ in range(10):
        d1 = np.empty_like(_RHO)
        d1[1:-1] = 0.5 * (_RHO[2:] - _RHO[:-2])
        d1[0] = d1[-1] = 0.0
        d2 = np.empty_like(_RHO)
        d2[1:-1] = _RHO[2:] - 2.0 * _RHO[1:-1] + _RHO[:-2]
        d2[0], d2[-1] = d2[1], d2[-2]
        w = np.sqrt(_RHO * _RHO + d1 * d1)
        kappa = (_RHO * _RHO + 2.0 * d1 * d1 - _RHO * d2) / w**3
        float(np.sum(kappa * np.sin(_THETA)))
        float(np.max(np.abs(kappa)))
    return time.perf_counter() - t0


def to_reference(cpu_s: float, samples: list) -> float:
    """CPU seconds (probe time already removed) on the reference core."""
    return cpu_s * statistics.fmean(REFERENCE_S / s for s in samples)


class Stopwatch:
    """Times a block: 'seconds' on the reference core, 'cpu_s' and 'wall_s' as read."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples: list = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self._cpu, self._wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        cpu, wall = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        self.cpu_s = cpu - self._cpu - sum(self.samples)
        self.wall_s = wall - self._wall
        # a block shorter than a few intervals is probed right after it
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        return False

    def times(self) -> dict:
        return {"seconds": to_reference(self.cpu_s, self.samples),
                "cpu_s": self.cpu_s, "wall_s": self.wall_s}
