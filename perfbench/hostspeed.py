"""
Host-speed calibration.

The machines this benchmark runs on are shared: within a minute the speed of
a CPU can change by a third, and CPU time moves in step with wall time, so
raw timings of identical code disagree from run to run by more than any
useful bound.  The benchmark therefore samples the host's current speed
while a workload runs, with a short fixed pure-Python task that does not use
coxdrops, and rescales the workload's times to the reference speed:

    rescaled = raw * mean(REF_CALIBRATE_S / sample)

which is the work done, in seconds at the reference speed, when the samples
are spread evenly over the run.  A change to coxdrops moves the rescaled
times as it moves the raw ones; a change in the host's speed mostly does not.
The time spent sampling is left out of the raw times.

Set-up time, spent starting an interpreter and importing modules, follows
the host's speed far less than computation does, so it has a calibration
task of its own: loading a fixed list of standard-library modules from their
bytecode caches, timed in the same process right after its set-up.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import resource
import signal
import statistics
import time
from collections import Counter

# calibrate() on the machine the bounds were set on: its median over a minute
REF_CALIBRATE_S = 0.022
# seconds between two samples taken by the interval timer
SAMPLE_EVERY_S = 0.25
# calibrate_import() on the same machine: its median over a minute
REF_CALIBRATE_IMPORT_S = 0.013
IMPORT_CALIBRATION_MODULES = ("argparse", "fractions", "statistics", "dataclasses",
                              "csv", "typing", "pathlib", "inspect")


def calibrate(clock=time.perf_counter) -> float:
    """Seconds, on the given clock, taken by inversion counting over S_7: a
    mix of tuple indexing, comparisons and dictionary updates like the
    program's own."""
    counts: Counter = Counter()
    t0 = clock()
    for w in itertools.permutations(range(7)):
        counts[sum(1 for i in range(6) for j in range(i + 1, 7) if w[i] > w[j])] += 1
    elapsed = clock() - t0
    if counts[0] != 1 or sum(counts.values()) != 5040:
        raise RuntimeError(f"calibration task miscounted: {dict(counts)}")
    return elapsed


def calibrate_import() -> float:
    """Seconds to execute the cached bytecode of IMPORT_CALIBRATION_MODULES
    into fresh module objects; the modules already imported stay as they are.
    The middle of three timings."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for name in IMPORT_CALIBRATION_MODULES:
            spec = importlib.util.find_spec(name)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """
    Raw and rescaled wall and CPU time of one timed region.

    An interval timer interrupts the region every SAMPLE_EVERY_S seconds to
    take a sample, and one more is taken at the start.  While this process
    works alone, a sample is timed on the wall clock and its time is left out
    of the region's.  Beside busy worker processes (``beside_workers``) a
    sample is timed by this thread's CPU time, which the workers competing
    for the CPUs do not stretch, on each allowed CPU in turn, since the
    workers run on all of them; the workers go on working meanwhile, so the
    wall time is kept whole, and samples are taken half as often.
    ``on_sample(start, end, paused)`` is called for every sample, so a
    tracer can record it; ``paused`` says whether its time was left out.
    """

    def __init__(self, beside_workers: bool = False, on_sample=None):
        self._beside = beside_workers
        self._on_sample = on_sample
        self.speeds: list[float] = []
        self._paused_wall = self._paused_cpu = 0.0
        self._sampling = False

    def _sample(self) -> None:
        if self._sampling:                 # the timer fired during a slow sample
            return
        self._sampling = True
        t0, c0 = time.perf_counter(), cpu_seconds()
        if self._beside:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {sorted(allowed)[len(self.speeds) % len(allowed)]})
            try:
                took = calibrate(time.thread_time)
            finally:
                os.sched_setaffinity(0, allowed)
        else:
            took = calibrate(time.perf_counter)
        self.speeds.append(REF_CALIBRATE_S / took)
        t1 = time.perf_counter()
        if not self._beside:
            self._paused_wall += t1 - t0
        self._paused_cpu += cpu_seconds() - c0
        if self._on_sample:
            self._on_sample(t0, t1, not self._beside)
        self._sampling = False

    def __enter__(self) -> "Clock":
        self._sample()
        self._paused_wall = self._paused_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._sample())
        every = SAMPLE_EVERY_S * (2 if self._beside else 1)
        signal.setitimer(signal.ITIMER_REAL, every, every)
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_wall_s = time.perf_counter() - self._t0 - self._paused_wall
        self.raw_cpu_s = cpu_seconds() - self._c0 - self._paused_cpu

    def totals(self) -> dict:
        speed = statistics.fmean(self.speeds)
        return {"raw_wall_s": self.raw_wall_s, "raw_cpu_s": self.raw_cpu_s,
                "wall_s": self.raw_wall_s * speed, "cpu_s": self.raw_cpu_s * speed,
                "speed": speed, "samples": len(self.speeds)}
