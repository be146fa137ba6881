"""Measurement primitives shared by every tlpbench workload (stdlib only).

* :func:`repeat` runs warm-up iterations and then N measured repetitions;
* :func:`summarize` gives a sample's count, median and interquartile range;
* :func:`tail` picks the highest standard percentile that still has at least
  ten samples beyond it, so a tail figure is never one or two outliers;
* :class:`Row` is one reported number, which always states its sample count
  and whether the state it measured was ``cold`` or ``warm``;
* :class:`Speedometer` times a fixed reference workload, and
  :func:`scale_around` turns the timings taken around a piece of work into
  the factor that states its duration at the speed of the machine the
  benchmark was calibrated on.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "REFERENCE_NS", "Row", "Speedometer", "Summary", "cpus", "now_ns", "on_cpu",
    "percentile", "pin", "reference_work", "repeat", "scale_around", "summarize", "tail",
]

T = TypeVar("T")

#: Percentiles a tail figure may use, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

now_ns = time.perf_counter_ns


def repeat(step: Callable[[int], T], repetitions: int, warmup: int = 0) -> List[T]:
    """Call ``step(i)`` for ``warmup`` unmeasured then ``repetitions``
    measured iterations; return the measured iterations' results."""
    results = []
    for i in range(warmup + repetitions):
        result = step(i)
        if i >= warmup:
            results.append(result)
    return results


def percentile(values: Sequence[float], p: float) -> float:
    """The Harrell–Davis estimate of the ``p``-th percentile: the mean of
    the order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over
    each one's rank interval, q = p/100.

    Op times come in steps (a template, a list size), and a percentile read
    off one or two order statistics jumps whenever noise swaps the ops on
    either side of a step; the weighted mean moves smoothly instead."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p / 100.0, (n + 1) * (1.0 - p / 100.0)
    steps = 16  # midpoint-rule points per rank interval
    logs = [
        (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)
        for t in ((j + 0.5) / (steps * n) for j in range(steps * n))
    ]
    top = max(logs)
    weights = [0.0] * n
    for j, log in enumerate(logs):
        weights[j // steps] += math.exp(log - top)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(values: Sequence[float], ceiling: float = 99.9) -> Tuple[float, float]:
    """``(p, value)`` for the highest percentile up to ``ceiling`` that has at
    least :data:`MIN_BEYOND` samples beyond it (the median when none has)."""
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if p <= ceiling and len(values) * (100.0 - p) / 100.0 >= MIN_BEYOND:
            chosen = p
    return chosen, percentile(values, chosen)


@dataclass(frozen=True)
class Summary:
    n: int
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values: Sequence[float]) -> Summary:
    """Count, median and quartiles of a non-empty sample."""
    if len(values) == 1:
        return Summary(1, values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(len(values), median, q1, q3)


@dataclass(frozen=True)
class Row:
    """One reported number: name, unit, value, the state it was measured
    in, how many samples it rests on, and their IQR when it is a median."""

    name: str
    unit: str
    value: float
    state: str  # "cold" or "warm"
    n: int
    iqr: Optional[float] = None

    def render(self) -> str:
        spread = "" if self.iqr is None else f"  iqr {self.iqr:.6g}"
        return (
            f"{self.name:<34} {self.value:>14.6g} {self.unit:<10} "
            f"[{self.state}, n={self.n}{spread}]"
        )


#: Median time of :func:`reference_work` on the calibration machine (a
#: 2-vCPU VM, Python 3.11, idle).
REFERENCE_NS = 4_350_000


def reference_work() -> int:
    """A fixed pure-Python workload that runs none of the code under test:
    building and walking small tuple trees through recursive calls, the
    interpreter work the checker is made of, in a working set that stays in
    cache (a large one tracks memory contention instead of CPU speed)."""

    def build(depth: int) -> tuple:
        if depth == 0:
            return ("leaf", 0)
        return ("node", build(depth - 1), build(depth - 1), str(depth))

    def walk(tree: tuple, seen: Dict[str, int]) -> int:
        if tree[0] == "leaf":
            return 1
        seen[tree[3]] = seen.get(tree[3], 0) + 1
        return walk(tree[1], seen) + walk(tree[2], seen)

    return sum(walk(build(9), {}) for _ in range(24))


class Speedometer:
    """How fast this machine runs right now, against the calibration machine.

    A shared machine runs up to twice as slow for anything from a fraction
    of a second to minutes, which no median inside one run can remove.  The
    reference workload is timed every :attr:`every_s` seconds between ops,
    with the collector off so the heap of the code under test does not
    count; multiplying a duration by :func:`scale_around` of the samples
    taken around it states it at the calibration machine's speed.
    """

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_ns = int(every_s * 1e9)
        self.last = 0

    def due(self) -> bool:
        return now_ns() - self.last >= self.every_ns

    def sample(self) -> int:
        """Time one run of the reference workload (ns)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = now_ns()
            reference_work()
            self.last = now_ns()
            return self.last - started
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def scale(samples: Sequence[int]) -> float:
        """Factor from this machine's durations to the calibration
        machine's, from samples taken together (their mean: see
        :func:`scale_around`)."""
        return REFERENCE_NS / statistics.fmean(samples) if samples else 1.0


def scale_around(samples: Sequence[Tuple[float, int]], start: float, end: float) -> float:
    """Speed factor for work done over ``[start, end]``, from
    ``(time, reference ns)`` samples sorted by time: the mean of the last
    sample at or before ``start``, every sample inside, and the first at or
    after ``end``.

    The machine's slow spells come and go within a second, so only samples
    next to the work say how fast it ran; and work spread over an interval
    pays the interval's mean slowness, which a median would not follow."""
    times = [t for t, _ in samples]
    first = max(0, bisect.bisect_right(times, start) - 1)
    last = bisect.bisect_left(times, end) + 1
    return REFERENCE_NS / statistics.fmean(ns for _, ns in samples[first:last])


# -- CPU placement ---------------------------------------------------------------
#
# The virtual CPUs of a shared machine run at different speeds at the same
# moment.  A measured process therefore stays on one CPU, and the reference
# workload that scales its durations runs on that same CPU.


def cpus() -> Tuple[int, int]:
    """(the CPU measured processes run on, another one for their driver);
    the same CPU twice on a one-CPU machine or without affinity support."""
    if not hasattr(os, "sched_getaffinity"):
        return 0, 0
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(pid: int, cpu: int) -> None:
    """Keep process ``pid`` (0: this one) on ``cpu``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu})


@contextlib.contextmanager
def on_cpu(cpu: int) -> Iterator[None]:
    """Run this process on ``cpu`` for the duration of the block."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)
