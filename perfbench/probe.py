"""Speed probe: wall times converted to reference seconds.

The benchmark machine's speed swings by up to 2x from one second to the
next (other tenants share its cores), far more than any bound a change is
held to, and a second core's speed does not track the first's. So every
timed phase runs under a SpeedProbe: a timer signal every INTERVAL_S runs a
fixed computation on the measured thread itself, one that uses no certias
code and is shaped like the program's hot loop (pivots on a small numpy
tableau driven from Python), and records how long it took.

A phase is reported in reference seconds: its wall time minus the probes'
own time, times NOMINAL_S over the probes' mean duration. That is what the
phase would have taken on a machine that runs one probe in NOMINAL_S, which
is near the probe's time on the machine of baseline.json at its usual
speed. On that machine, the spread of validate-hypercube-di's op_s (quartile
distance over median) was 20% over five runs in wall seconds and 3-5% over
ten runs in reference seconds. Probes cost about 5% of a phase, and the
probe time is subtracted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
NOMINAL_S = 1.0e-3
_ROUNDS = 4
_TABLEAU = np.random.default_rng(0).uniform(1.0, 2.0, size=(10, 16))


def _work() -> None:
    for _ in range(_ROUNDS):
        T = _TABLEAU.copy()
        for col in range(6):
            d = T[:, col]
            rows = np.nonzero(d > 1e-9)[0]
            leave = int(rows[np.argmin(T[rows, -1] / d[rows])])
            T[leave] /= T[leave, col]
            for r in range(T.shape[0]):
                if r != leave:
                    T[r] -= T[r, col] * T[leave]


def _ignore(signum, frame) -> None:
    pass


class SpeedProbe:
    """Context manager timing its body in wall and in reference seconds.

    Python runs signal handlers on the main thread only, so the probes
    measure the main thread's core. The main thread must be the one doing
    the work or waiting on it.
    """

    def __enter__(self) -> "SpeedProbe":
        self.durations: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        # A signal already pending when the timer stopped lands here.
        signal.signal(signal.SIGALRM, _ignore)
        probe_s = sum(self.durations)
        if not self.durations:
            # A phase shorter than one interval: probe once right after it.
            t0 = time.thread_time()
            _work()
            self.durations.append(time.thread_time() - t0)
        self.net = self.wall - probe_s
        self.reference_s = self.net * NOMINAL_S * len(self.durations) / sum(self.durations)

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        _work()
        self.durations.append(time.thread_time() - t0)
        # Re-armed one-shot, so that a slow probe cannot queue the next one.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
