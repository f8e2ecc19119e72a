"""The speed of the CPUs a command runs on, sampled while it runs.

The host is shared.  A CPU's speed drifts, and on a small slice of it a
CPU flips between full speed and about half of it every second or so
(another tenant's load on the same core comes and goes), so the raw
samples of one command spread by 30-50% within a run and their median
moves from run to run with the mix of fast and slow phases.

The benchmark therefore pins its single-threaded work to one CPU and runs
a sampler thread pinned to the same CPU.  Every ``PERIOD_S`` the thread
times a short fixed reference kernel.  A command sample that took ``wall``
seconds is reported at the nominal speed, where the kernel takes
``REF_NOMINAL_S``: ``wall * REF_NOMINAL_S * mean(1 / kernel time)`` over
the readings taken while it ran (the work a sample does is its wall time
times the mean speed).  The sampler costs the measured work 1-2%, the same
for every version of the program.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import threading
import time

#: Reference-kernel time that defines the nominal CPU speed: its typical
#: time on a 2-CPU x86-64 host, single-threaded.
REF_NOMINAL_S = 0.00025
#: Seconds between two readings of one CPU.
PERIOD_S = 0.02
#: Readings behind a speed estimate at least: the ones nearest to a
#: sample's middle when fewer were taken while it ran.
MIN_READINGS = 7
#: A reading longer than this many times the median of its window was
#: stretched by an interrupt or a thread switch and is left out.
OUTLIER = 2.0
#: Reference-kernel runs on each allowed CPU when choosing the one to pin to.
PIN_PROBES = 5


class ReferenceKernel:
    """A fixed piece of work: plane rotations of a pair of short float
    lists in pure Python.  It makes no numpy call, so it holds the GIL
    from start to end and its time is not stretched by a wait for it.
    Its work depends neither on the data nor on randlr, so no change to
    the program moves it."""

    LENGTH, SWEEPS = 24, 32

    def __init__(self):
        self.x = [math.sin(i + 1.0) for i in range(self.LENGTH)]
        self.y = [math.cos(i + 1.0) for i in range(self.LENGTH)]

    def run(self) -> float:
        x, y = list(self.x), list(self.y)
        t0 = time.perf_counter()
        for _ in range(self.SWEEPS):
            gamma = sum(a * b for a, b in zip(x, y)) / self.LENGTH
            t = math.copysign(1.0, gamma) / (abs(gamma) + math.hypot(1.0, gamma))
            c = 1.0 / math.hypot(1.0, t)
            sn = t * c
            x, y = [c * a - sn * b for a, b in zip(x, y)], [sn * a + c * b for a, b in zip(x, y)]
        return time.perf_counter() - t0


class SpeedSampler:
    """One thread per CPU, each pinned to its CPU, that times the reference
    kernel every ``PERIOD_S`` while the CPU is watched.

    ``readings[cpu]`` holds (perf_counter at the start, kernel seconds).
    A thread that is not watching waits without taking the GIL, so it does
    not slow the measured work.
    """

    def __init__(self, cpus):
        self.readings: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._watch = {cpu: threading.Event() for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,), name=f"speed-{cpu}", daemon=True)
            for cpu in cpus
        ]
        for thread in self._threads:
            thread.start()

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        kernel = ReferenceKernel()
        while True:
            self._watch[cpu].wait()
            if self._stop.wait(PERIOD_S):
                return
            if self._watch[cpu].is_set():
                start = time.perf_counter()
                self.readings[cpu].append((start, kernel.run()))

    def watch(self, cpus) -> None:
        for cpu in cpus:
            self._watch[cpu].set()

    @contextlib.contextmanager
    def watching(self, cpus):
        """Watch ``cpus`` too while the block runs."""
        added = [cpu for cpu in cpus if not self._watch[cpu].is_set()]
        self.watch(added)
        try:
            yield
        finally:
            for cpu in added:
                self._watch[cpu].clear()

    def close(self) -> None:
        self._stop.set()
        self.watch(self._watch)
        for thread in self._threads:
            thread.join()

    def speed(self, cpu: int, t0: float, t1: float) -> float:
        """Mean of 1 / kernel time on ``cpu`` between ``t0`` and ``t1``."""
        readings = self.readings[cpu]
        lo = bisect.bisect_left(readings, t0, key=lambda r: r[0])
        hi = bisect.bisect_right(readings, t1, key=lambda r: r[0])
        if hi - lo < MIN_READINGS:
            mid = (t0 + t1) / 2.0
            near = readings[max(0, lo - MIN_READINGS):hi + MIN_READINGS]
            window = sorted(near, key=lambda r: abs(r[0] - mid))[:MIN_READINGS]
        else:
            window = readings[lo:hi]
        if not window:
            raise RuntimeError(f"no speed readings of CPU {cpu}")
        times = [d for _, d in window]
        cap = OUTLIER * statistics.median(times)
        return statistics.fmean(1.0 / d for d in times if d <= cap)

    def scale(self, cpus, t0: float, t1: float) -> float:
        """The sample from ``t0`` to ``t1`` on ``cpus``, at the nominal speed."""
        speed = statistics.fmean(self.speed(cpu, t0, t1) for cpu in cpus)
        return (t1 - t0) * REF_NOMINAL_S * speed


def pin_to_fastest_cpu() -> tuple[int, dict]:
    """Pin this thread, and the threads and processes it starts later, to
    the allowed CPU on which the reference kernel runs fastest; return it
    with the median kernel time on each CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) == 1:
        return allowed[0], {}
    kernel = ReferenceKernel()
    timings = {cpu: [] for cpu in allowed}
    for _ in range(PIN_PROBES):
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            timings[cpu].append(kernel.run())
    best = min(allowed, key=lambda cpu: statistics.median(timings[cpu]))
    os.sched_setaffinity(0, {best})
    return best, {str(cpu): statistics.median(t) for cpu, t in timings.items()}
