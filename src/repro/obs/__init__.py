"""repro.obs — observability for the subtype/match/resolution pipeline.

The paper's central claim is *dynamic*: subtyping **is** SLD-resolution
over ``H_C`` (Definition 3), ``match`` walks the same constraint space
(Definition 13), and Theorem 6 is a statement about every resolvent of a
well-typed execution.  This package makes those dynamics visible without
changing them:

* a process-wide :class:`~repro.obs.registry.TelemetryRegistry`
  (``obs.METRICS``) with named counters, gauges, and monotonic timers —
  disabled by default, ~free when off;
* a structured trace-event stream (``obs.TRACER``) of typed events
  (``subtype_goal``, ``sld_step``, ``match_call``, ``typed_run_step``,
  ``cache_probe``) whose parent-span ids nest derivations, with
  in-memory, JSON-lines, and tree-rendering sinks.

Quick use::

    from repro import obs

    obs.enable()                      # metrics on
    sink = obs.trace_to_memory()      # tracing on, events collected
    ... run checks / queries ...
    print(obs.render_summary())       # counter/timer table
    print(obs.render_tree(sink.events))
    data = obs.summary()              # plain dict, JSON-ready
    obs.disable()

Every instrumented hot path guards with ``if METRICS.enabled`` /
``if TRACER.enabled``; with both off the pipeline runs the exact seed
code paths (the overhead guard in ``tests/obs`` asserts < 5% on the
subtype hot loop, and a differential test asserts bit-identical
behaviour).
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, IO, Iterator, Optional, Tuple

from .events import (
    CacheProbeEvent,
    MatchCallEvent,
    PhaseEvent,
    SubjectReductionEvent,
    SldStepEvent,
    SubtypeGoalEvent,
    TraceEvent,
)
from .export import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .export import parse_exposition, render_prometheus
from .histogram import HistogramStat
from .profile import ProfileReport, SpanProfiler
from .registry import TelemetryRegistry, TimerStat
from .trace import (
    JsonlSink,
    MemorySink,
    SpanHandle,
    Tracer,
    TraceSink,
    TreeSink,
    render_tree,
)

__all__ = [
    "METRICS",
    "TRACER",
    "enable",
    "disable",
    "enabled",
    "reset",
    "summary",
    "render_summary",
    "prometheus_text",
    "publish_runtime_gauges",
    "runtime_stats_lines",
    "collect",
    "trace_to_memory",
    "trace_to_stream",
    "trace_to_path",
    "profile_spans",
    "TelemetryRegistry",
    "TimerStat",
    "HistogramStat",
    "SpanProfiler",
    "ProfileReport",
    "PROMETHEUS_CONTENT_TYPE",
    "parse_exposition",
    "render_prometheus",
    "Tracer",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "TreeSink",
    "SpanHandle",
    "render_tree",
    "TraceEvent",
    "SubtypeGoalEvent",
    "SldStepEvent",
    "MatchCallEvent",
    "SubjectReductionEvent",
    "CacheProbeEvent",
    "PhaseEvent",
]

#: The process-wide metrics registry every instrumented module records to.
METRICS = TelemetryRegistry()

#: The process-wide tracer every instrumented module emits events through.
TRACER = Tracer()


def enable() -> None:
    """Turn metrics collection on (tracing needs a sink — see trace_to_*)."""
    METRICS.enable()


def disable() -> None:
    """Turn metrics collection off and detach every trace sink."""
    METRICS.disable()
    TRACER.clear_sinks()


def enabled() -> bool:
    """True iff metrics or tracing is currently active."""
    return METRICS.enabled or TRACER.enabled


def reset() -> None:
    """Zero all metrics and restart trace ids/clock."""
    METRICS.reset()
    TRACER.reset()


def summary() -> Dict[str, Any]:
    """A JSON-ready snapshot of everything recorded so far."""
    snapshot = METRICS.snapshot()
    snapshot["trace_events_emitted"] = TRACER.emitted
    return snapshot


def render_summary() -> str:
    """The human-readable metrics table (what ``tlp-check --stats`` prints)."""
    return METRICS.render()


def publish_runtime_gauges() -> None:
    """Record the term-kernel runtime state as gauges (no-op when off).

    Covers the intern table (``intern.size``/``intern.hit_rate``) and the
    process-wide shared subtype memo (``subtype.shared_memo.size`` and
    friends) — point-in-time sizes, complementing the per-goal
    ``subtype.shared_memo.hits``/``.entries`` counters the engine itself
    increments.  Imports lazily: ``repro.obs`` must stay importable
    before ``repro.terms``/``repro.core`` (they import it for METRICS).
    """
    if not METRICS.enabled:
        return
    from ..core.shared_memo import SHARED_MEMO
    from ..terms.term import intern_stats

    interned = intern_stats()
    METRICS.gauge("intern.size", interned.size)
    METRICS.gauge("intern.hits", interned.hits)
    METRICS.gauge("intern.misses", interned.misses)
    METRICS.gauge("intern.hit_rate", round(interned.hit_rate, 4))
    memo = SHARED_MEMO.stats()
    METRICS.gauge("subtype.shared_memo.scopes", memo["scopes"])
    METRICS.gauge("subtype.shared_memo.size", memo["entries"])
    METRICS.gauge("subtype.shared_memo.attachments", memo["attachments"])
    METRICS.gauge("subtype.shared_memo.evictions", memo["evictions"])
    from ..core.automata import AUTOMATA

    automata = AUTOMATA.stats()
    METRICS.gauge("subtype.automaton.scopes", automata["scopes"])
    METRICS.gauge("subtype.automaton.states", automata["states"])
    METRICS.gauge("subtype.automaton.transitions", automata["transitions"])
    METRICS.gauge(
        "subtype.automaton.transitions_computed", automata["transitions_computed"]
    )
    METRICS.gauge("subtype.automaton.flushes", automata["flushes"])
    METRICS.gauge("subtype.automaton.match_decided", automata["match_decided"])
    METRICS.gauge("subtype.automaton.cache_entries", automata["cache_entries"])
    METRICS.gauge("subtype.automaton.compiled", automata["compiles"])
    METRICS.gauge("subtype.automaton.attachments", automata["attachments"])
    METRICS.gauge("subtype.automaton.refusals", automata["refusals"])


def runtime_stats_lines() -> "list[str]":
    """Human-readable intern-table / shared-memo state for ``:stats`` & co.

    The shared-memo hit rate is derived from the engine-side counters
    (``subtype.shared_memo.hits`` vs ``.entries`` — every miss that
    completes a derivation writes one entry), so it reflects goals posed
    while telemetry was on.
    """
    from ..core.shared_memo import SHARED_MEMO
    from ..terms.term import intern_stats

    interned = intern_stats()
    intern_line = (
        f"intern table: {interned.size} nodes "
        f"({interned.structs} structs, {interned.vars} vars), "
        f"hit rate {interned.hit_rate:.1%}"
    )
    memo = SHARED_MEMO.stats()
    hits = METRICS.counter("subtype.shared_memo.hits")
    entries = METRICS.counter("subtype.shared_memo.entries")
    probes = hits + entries
    rate = f", hit rate {hits / probes:.1%}" if probes else ""
    memo_line = (
        f"shared subtype memo: {memo['entries']} entries across "
        f"{memo['scopes']} scope(s), {memo['attachments']} engine "
        f"attachment(s){rate}"
    )
    from ..core.automata import AUTOMATA

    automata = AUTOMATA.stats()
    hits = METRICS.counter("subtype.automaton.hits")
    fallbacks = METRICS.counter("subtype.automaton.fallbacks")
    queries = hits + fallbacks
    rate = f", hit rate {hits / queries:.1%}" if queries else ""
    automata_line = (
        f"tree automata: {automata['scopes']} compiled scope(s), "
        f"{automata['states']} state(s), {automata['transitions']} "
        f"transition(s) ({automata['transitions_computed']} computed, "
        f"{automata['flushes']} flush(es)), {automata['match_decided']} of "
        f"{automata['match_calls']} ground match(es) from node states, "
        f"{automata['attachments']} attachment(s){rate}"
    )
    return [intern_line, memo_line, automata_line]


def trace_to_memory() -> MemorySink:
    """Attach (and return) an in-memory sink; tracing turns on."""
    sink = MemorySink()
    TRACER.add_sink(sink)
    return sink


def trace_to_stream(stream: IO[str]) -> JsonlSink:
    """Attach (and return) a JSONL sink on ``stream``; tracing turns on."""
    sink = JsonlSink(stream)
    TRACER.add_sink(sink)
    return sink


def trace_to_path(path: str) -> JsonlSink:
    """Attach a JSONL sink that owns a freshly opened trace file.

    The returned sink flushes every line and closes its file from
    ``close()`` — call ``TRACER.close_sinks()`` (or ``sink.close()``) in
    a ``finally`` so the trace survives an exception mid-operation.
    """
    sink = JsonlSink(open(path, "w", encoding="utf-8"), owns_stream=True)
    TRACER.add_sink(sink)
    return sink


def profile_spans() -> SpanProfiler:
    """Attach (and return) a span profiler; tracing turns on.

    Detach with ``TRACER.remove_sink(profiler)`` and read
    ``profiler.report()`` — see :mod:`repro.obs.profile`.
    """
    profiler = SpanProfiler()
    TRACER.add_sink(profiler)
    return profiler


def prometheus_text(
    labels: "Optional[Dict[str, str]]" = None,
    extra_gauges: "Optional[Dict[str, float]]" = None,
) -> str:
    """The current registry state as Prometheus text exposition."""
    return render_prometheus(
        METRICS.snapshot(), labels=labels, extra_gauges=extra_gauges
    )


@contextlib.contextmanager
def collect() -> Iterator[Tuple[TelemetryRegistry, MemorySink]]:
    """Enable metrics + in-memory tracing for a block, then restore.

    Yields ``(METRICS, sink)``; on exit the sink is detached and the
    previous enabled/disabled state of the registry is restored.  Metrics
    recorded during the block are kept (call :func:`reset` to drop them).
    """
    was_enabled = METRICS.enabled
    METRICS.enable()
    sink = trace_to_memory()
    try:
        yield METRICS, sink
    finally:
        TRACER.remove_sink(sink)
        METRICS.enabled = was_enabled
