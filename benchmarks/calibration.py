"""Host-speed calibration of a run's times.

On a shared host the speed of a core drifts, over seconds to minutes, by more
than the benchmark's bounds.  On a 2-core Xeon VM the same planted-attn match
(seed 0, 6 sweeps) took 10.1 s in one run and 13.4 s in a run 23 minutes
later, and within five minutes a fixed SVD and a fixed LAP solve drifted by
15% (coefficient of variation of 20-second medians) in lockstep.  The drift
belongs to the core the work runs on: a probe on the other core followed it
only weakly, and probes run between calls, seconds apart, were too few to
follow it at all.

So ``SpeedSampler`` samples the core the calls run on, while they run: a
timer signal runs a fixed task in the main thread every so often and records
its time.  A call's time is its wall time minus the time spent in the
sampler, and it is reported scaled by the speed factor of the interval it
ran in (its session, or the set-up):

    reported_s = raw_s * nominal_s / median(sample times of the interval)

A change to the program moves ``raw_s`` and leaves the samples alone, so it
moves the reported time by the same factor; a slow or fast minute of the
core moves both and cancels.  The factors, the sample count and the raw
times stay in the run's record.

The task must be the same kind of work as the workload's hot loop
(``Workload.speed_task``).  Memory-bound work (port-fanout's task-vector and
transport) does not follow an interpreter loop: scaled by one, the transport
time spread three times wider over ten seeds than raw.  Scaled by a 64 MiB
reduction instead, its spread over five seeds fell from 0.056 to 0.024.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _interpreter_loop() -> None:
    total = 0
    for i in range(16_000):
        total += i * i


_BIG: np.ndarray | None = None


def _memory_sweep() -> None:
    """Sum a 64 MiB array, allocated on first use so that only the workloads
    sampled this way carry it in their peak RSS."""
    global _BIG
    if _BIG is None:
        _BIG = np.ones(1 << 23)
    float(_BIG.sum())


@dataclass(frozen=True)
class Task:
    run: Callable[[], None]
    period_s: float  # between samples; about 1-2% of the time goes to sampling
    nominal_s: float  # the task's time at the speed times are scaled to


TASKS = {
    "interpreter": Task(_interpreter_loop, 0.1, 0.001),
    "memory": Task(_memory_sweep, 0.5, 0.008),
}


class SpeedSampler:
    """Times one ``TASKS`` entry every ``period_s`` seconds from a SIGALRM
    handler.  ``busy_s`` is the total time spent in the handler, for callers
    to take out of their own timings."""

    def __init__(self, kind: str) -> None:
        self.task = TASKS[kind]
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.task.run()
        end = perf_counter()
        self.samples.append(end - start)
        self.busy_s += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.task.period_s, self.task.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first: int = 0) -> float:
        """What raw times are multiplied by: the nominal task time over the
        median of the samples from index ``first`` on (1 if there are none)."""
        samples = self.samples[first:]
        return self.task.nominal_s / statistics.median(samples) if samples else 1.0
