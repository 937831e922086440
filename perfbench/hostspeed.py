"""Express measured times at a fixed reference host speed.

The speed of a shared host drifts: a fixed kernel call or a fixed Python loop
can take twice as long in one phase as in the next, with phases of seconds
to minutes.  No run is long enough to average that out, but the drift slows
every kind of work alike, so the ratio between the workload's time and that
of a fixed calibration stays put.

``Sampler`` measures the host speed while the code it wraps runs: a timer
signal interrupts it every ``INTERVAL`` seconds of wall time and runs
``calibrate()``, timed in thread CPU time (so that time slices lost to
other processes do not count as a slow host).  ``Sampler.scaled`` turns a
measured wall time into seconds at the reference speed: the wall time less
the time spent in the calibration, multiplied by the mean over the samples
of ``REFERENCE_CAL_S`` / calibration time.  The samples are evenly spaced in
wall time, so the mean weighs each stretch of the span by its length.

No single calibration slows exactly as the workloads do: interpreted code
slows more than tight numpy loops.  ``calibrate()`` therefore takes the
geometric mean of two parts, a memory-bound numpy pass over 2 MB arrays and
an interpreter-bound round of json, sorting and regular expressions.  Timed
against repetitions of each workload body for about two minutes on a
2-vCPU Intel Xeon VM, whose raw wall times varied by 14 to 21% (coefficient
of variation), the scaled times varied by 3 to 6%.  The calibration touches
no zetalab code and no shared state that the interrupted code might hold.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
from time import perf_counter, thread_time

import numpy as np

INTERVAL = 0.2
# Calibration time on the reference host, a 2-vCPU Intel Xeon VM, in its
# faster phases.  Only the ratio to the measured time matters.
REFERENCE_CAL_S = 3.0e-3

_X = np.linspace(0.5, 2.5, 1 << 18)
_A = np.empty_like(_X)
_B = np.empty_like(_X)
_rng = random.Random(1)
_RECORDS = [{"k%d" % i: [_rng.random() for _ in range(5)], "s": "abc%dxyz" % i} for i in range(200)]
_PATTERN = re.compile(r"abc(\d+)xyz")


def _numpy_part():
    np.cos(_X, out=_A)
    np.multiply(_A, _A, out=_A)
    np.add(_X, 1.0, out=_B)
    np.log(_B, out=_B)
    np.add(_A, _B, out=_A)
    np.sqrt(_A, out=_A)


def _interpreter_part():
    records = json.loads(json.dumps(_RECORDS))
    records.sort(key=lambda r: r["s"])
    sum(int(_PATTERN.match(r["s"]).group(1)) for r in records)


def calibrate() -> float:
    """Geometric mean of the thread CPU times of the two parts, in seconds."""
    start = thread_time()
    _numpy_part()
    middle = thread_time()
    _interpreter_part()
    return math.sqrt((middle - start) * (thread_time() - middle))


class Sampler:
    """Samples the host speed while its ``with`` block runs."""

    def __init__(self):
        self.ratios = []
        self.overhead_s = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.ratios.append(REFERENCE_CAL_S / calibrate())
        self.overhead_s += perf_counter() - start

    def __enter__(self):
        start = perf_counter()
        calibrate()  # warm-up, not recorded
        self.overhead_s += perf_counter() - start
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Reference speed over the host's speed, averaged over the span."""
        return sum(self.ratios) / len(self.ratios)

    def scaled(self, wall_s: float) -> float:
        """``wall_s``, measured around the ``with`` block, less the time the
        sampler took, at the reference speed."""
        return (wall_s - self.overhead_s) * self.factor()
