"""Machine-speed reference for timings taken on a shared, noisy host.

The benchmark host's speed drifts by tens of percent over seconds to
minutes, driven by other tenants, and shifts every timing with it.  A fixed
reference kernel is timed throughout each measurement: scipy's RK45 on a
fixed rotation ODE, the same mix of interpreter, scipy and small numpy work
as the program's transports (a bare numpy loop tracked the program's speed
about three times worse).  Dividing a raw time by the measured reference
time over the nominal one gives the time the work would take at the nominal
speed.  The kernel calls no preqholo code, so a change to the program moves
the normalised times exactly as it moves the work.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

REF_NOMINAL_S = 0.010
SAMPLE_INTERVAL_S = 0.25

_AXIS = np.array([0.3, -0.5, 0.8])
_START = np.array([0.6, 0.0, 0.8])


def reference_kernel() -> float:
    """About REF_NOMINAL_S of RK45 steps at nominal speed."""
    sol = solve_ivp(lambda t, u: np.cross(_AXIS, u), (0.0, 1.2), _START,
                    method="RK45", rtol=1e-10, atol=1e-13)
    return float(sol.y[0, -1])


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def slowness(ref_times: list[float]) -> float:
    """Slowness relative to nominal: 1.2 means the host ran 20% slow."""
    return statistics.fmean(ref_times) / REF_NOMINAL_S


class Sampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S while active.

    Samples are taken from a SIGALRM handler, so they interleave with the
    timed work at a fixed rate however long each call runs.  ``clock``
    excludes the time spent in the handler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt
        self._busy = False

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
