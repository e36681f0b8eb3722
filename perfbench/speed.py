"""Speed probe: times the benchmark at a fixed reference speed of the machine.

A virtual machine that shares its host runs the same Python code at
different speeds from one second to the next: on the 2-vCPU machine the
benchmark was written on, one unit of `derive-classify` took from 3.5 s to
6.8 s within two minutes, and ten runs of the same code spread by a quarter
of their median.  No run length averages that away, because the slow spells
last from seconds to many minutes.

`SpeedProbe` measures the machine's speed while a workload runs.  A
`SIGALRM` timer interrupts the workload every `INTERVAL` seconds, and the
handler times a fixed piece of stdlib work (`Fraction` arithmetic; none of
odolab's code).  `scaled(start, end)` turns an interval measured with
`time.perf_counter` into reference seconds: its duration, less the probe's
own time inside it, times `REFERENCE_S` over the probe time around the
interval.  A reference second is the time the work would take on a
machine where the probe takes `REFERENCE_S`.

The probe's work was chosen by how well it tracks odolab: over four minutes
of `construct-derived` and `derive-classify` units, the unit time rose with
the `Fraction` probe's time to the power 1.05 and 0.93 (correlation 0.998),
against 1.67 for a tight integer loop.  Divided by the probe, the units'
spread (quartile distance over median) fell from 0.30 to 0.015 and from
0.33 to 0.032.  A change to odolab does not move the probe, so it moves the
scaled time by the same share as the raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05          # seconds between probes
PROBE_TERMS = 200        # size of the probe's work; about 1 ms at full speed
REFERENCE_S = 0.001      # probe time that defines the reference speed
MIN_SAMPLES = 16         # probes that make one speed estimate


def probe_work() -> Fraction:
    """The fixed work the probe times: a sum of `Fraction` products."""
    total = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, PROBE_TERMS):
        total += third * Fraction(i, 7)
    return total


class SpeedProbe:
    """Times `probe_work` every `INTERVAL` seconds while the block runs.

    Only one probe can run at a time in a process, and only in the main
    thread, because it owns the process's `SIGALRM` handler and real-time
    interval timer.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def _tick(self, signum, frame) -> None:
        # A collection triggered by the probe's allocations would charge the
        # workload's garbage to the probe; it runs after the handler instead.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> SpeedProbe:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def probe_s(self, start: float, end: float) -> float:
        """Probe time over the interval, widened to `MIN_SAMPLES` probes on
        either side when the interval holds fewer.

        The harmonic mean, because the probes sample the speed (the inverse
        of a probe's time) at even steps of time, and work done is speed
        integrated over time.  A median would jump between the machine's
        fast and slow states."""
        if len(self.durations) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(self.durations)} speed probes; a run needs {MIN_SAMPLES}")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES:
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_SAMPLES:
                hi += 1
        return statistics.harmonic_mean(self.durations[lo:hi])

    def busy_s(self, start: float, end: float) -> float:
        """Time the probe itself took inside the interval."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work done between `start` and `end`."""
        return (end - start - self.busy_s(start, end)) * REFERENCE_S / self.probe_s(start, end)
