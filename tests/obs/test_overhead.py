"""The disabled-instrumentation overhead contract.

``SubtypeEngine.holds`` pays exactly one flag check before dispatching to
``_holds_core`` (the seed decision procedure).  This micro-benchmark pins
that cost below 5% on the subtype hot loop.  It times interleaved pairs —
one sample of each side, the side that goes first alternating — with the
garbage collector collected and then held off, and asserts on the median
of the per-pair ratios: a scheduler hiccup or a collection lands in one
sample and moves one ratio, not the verdict (a best-of-N comparison of
two minima let one lucky sample on either side decide it).  Set
``REPRO_SKIP_OVERHEAD_GUARD=1`` to skip on loaded/shared machines.
"""

import gc
import os
import statistics
import time

import pytest

from repro import obs
from repro.core import SubtypeEngine
from repro.lang import parse_term as T
from repro.workloads import deep_nat, paper_universe

PAIRS = 151
CALLS_PER_SAMPLE = 1


def _sample(callable_, calls=CALLS_PER_SAMPLE):
    start = time.perf_counter()
    for _ in range(calls):
        callable_()
    return time.perf_counter() - start


def median_pair_ratio(subject, baseline, pairs=PAIRS):
    """Median of ``subject``/``baseline`` time over interleaved pairs,
    timed with a fixed GC state; also the per-pair ratios."""
    ratios = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(pairs):
            if index % 2:
                base_time = _sample(baseline)
                subject_time = _sample(subject)
            else:
                subject_time = _sample(subject)
                base_time = _sample(baseline)
            ratios.append(subject_time / base_time)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(ratios), ratios


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_OVERHEAD_GUARD") == "1",
    reason="REPRO_SKIP_OVERHEAD_GUARD=1",
)
def test_disabled_overhead_below_five_percent():
    assert not obs.enabled()  # conftest guarantees this
    # memoize=False and automata=False so every call performs the full
    # ground AND-OR evaluation — realistic per-call work, nothing
    # amortised away (the automaton would answer from its pair table in
    # ~µs, leaving nothing to measure the flag check against).
    engine = SubtypeEngine(paper_universe(), memoize=False, automata=False)
    nat = T("nat")
    term = deep_nat(400)
    assert engine.holds(nat, term) is True  # warm-up + correctness

    def instrumented():
        engine.holds(nat, term)

    def seed():
        engine._holds_core(nat, term)

    ratio, ratios = median_pair_ratio(instrumented, seed)
    assert ratio < 1.05, (
        f"disabled instrumentation overhead {ratio:.3f}x (median of {len(ratios)} "
        f"interleaved pairs; range {min(ratios):.3f}-{max(ratios):.3f}x)"
    )


def test_disabled_observe_allocates_no_histograms():
    """The histogram layer must ride the same single-flag fast path:
    while disabled, observe() must not create timer OR histogram state
    (an allocation per call would defeat the <5% contract)."""
    assert not obs.METRICS.enabled
    for _ in range(100):
        obs.METRICS.observe("hot.span", 1e-6)
    snapshot = obs.METRICS.snapshot()
    assert snapshot["timers"] == {}
    assert snapshot["histograms"] == {}
    assert obs.METRICS.histogram("hot.span") is None
