"""Machine-speed scaling for the benchmark's timings (no playrank import).

The CPUs of a virtual machine share host cores with other tenants, and each
CPU's speed switches between levels up to 1.5x apart for spells of a
fraction of a second to tens of seconds.  ``Clock`` measures the speed with
a fixed probe just before each timed unit of work (at most every
SPEED_EVERY_S, and again after a unit that ran longer than that), moves the
process to the fastest allowed CPU (children started later inherit it; only
this process's own affinity changes), and scales the unit's wall time by
PROBE_REFERENCE_S / probe time.

The probe builds a few thousand small dicts and strings, the kind of work
playrank's parsers do: across ten-second windows of ``season`` it left an
IQR of 3% in scaled per-event time, where a plain arithmetic loop left 7%
and raw wall time 14%.  It never touches playrank, so a change to the
program cannot move the scale.
"""

from __future__ import annotations

import os
from time import perf_counter

# The probe's time on an uncontended core of the machine the benchmark was
# defined on (Xeon at 2.1 GHz, KVM guest, CPython 3.11).
PROBE_REFERENCE_S = 0.70e-3
SPEED_EVERY_S = 0.03


def speed_probe() -> float:
    """Seconds to build 3,000 small dicts with string values, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        objs = [{"id": i, "name": str(i)} for i in range(3000)]
        best = min(best, perf_counter() - t0)
        del objs
    return best


class Clock:
    """Times work at the reference machine speed."""

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else [])
        self.scale = 1.0
        self.scales: list[float] = []
        self._last = float("-inf")

    def measure(self) -> float:
        """Move to the fastest CPU now and return its scale."""
        if len(self.cpus) < 2:
            best = speed_probe()
        else:
            speeds = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append((speed_probe(), cpu))
            best, cpu = min(speeds)
            os.sched_setaffinity(0, {cpu})
        self.scale = PROBE_REFERENCE_S / best
        self.scales.append(self.scale)
        self._last = perf_counter()
        return self.scale

    def ready(self) -> float:
        """The scale for the next unit, re-measured when it has gone stale."""
        if perf_counter() - self._last >= SPEED_EVERY_S:
            self.measure()
        return self.scale

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and its wall time at reference speed; a
        unit longer than SPEED_EVERY_S uses the mean of the scales measured
        before and after it."""
        before = self.ready()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        took = perf_counter() - t0
        scale = before if took < SPEED_EVERY_S else (before + self.measure()) / 2
        return result, took * scale
