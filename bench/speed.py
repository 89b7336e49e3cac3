"""Interpreter-speed probe that makes timings comparable on a shared host.

On a virtual machine that shares its cores, the same Python code runs at
speeds that drift by tens of percent over seconds and minutes.  The probe
measures that drift while the benchmark runs: every PERIOD_S of process CPU
time a SIGPROF handler times a fixed stdlib-only computation (Fraction
arithmetic into a dict, no quadlie code).  A measured interval is then
reported as

    (raw seconds - probe seconds inside it) * REFERENCE_S / mean probe time

that is, in seconds at the speed where the probe takes REFERENCE_S.  The
mean is over the probes inside the interval, or over a few centred on it
when the interval is shorter than a few probe periods.  A change to
quadlie moves the measured work but not the probe, so the ratio keeps that
change and cancels the host's drift.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Optional, Tuple

PERIOD_S = 0.02
# the probe's duration on an uncontended core of a 2-vCPU Xeon VM, CPython 3.11
REFERENCE_S = 0.0005


def _probe_work() -> dict:
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(150):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + third * i
    return acc


class SpeedProbe:
    """Samples the probe's duration throughout a measurement."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0  # seconds spent inside the probe

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the benchmark's heap is not probe time
        try:
            start = time.perf_counter()
            _probe_work()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(duration)
        self.spent += duration

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def scale(self, start: Tuple[int, float], end: Tuple[int, float],
              raw_s: float, min_samples: int = 1) -> Tuple[float, Optional[float]]:
        """Seconds at reference speed of an interval between two marks that
        took raw_s, and the factor used: REFERENCE_S over the mean time of
        the probes inside the interval, or of the min_samples probes
        centred on it when fewer ran inside (None if no probe ran)."""
        if end[0] - start[0] >= min_samples:
            taken = self.samples[start[0]:end[0]]
        else:
            first = max(0, (start[0] + end[0] - min_samples) // 2)
            taken = self.samples[first:first + min_samples]
        work = raw_s - (end[1] - start[1])
        if not taken:
            return work, None
        factor = REFERENCE_S / statistics.fmean(taken)
        return work * factor, factor
