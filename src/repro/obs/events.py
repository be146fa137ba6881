"""Typed trace events for the subtype/match/resolution pipeline.

Every event carries a ``span_id`` (fresh per event), a ``parent_id``
(the enclosing span at emission time, or ``None`` at top level) and a
``ts`` (seconds on the tracer's monotonic clock since tracing started).
Span-shaped events — those that enclose child work, like a whole
``subtype_goal`` derivation — additionally carry ``dur``, the span's
wall-clock length; instantaneous events leave it ``None``.

The kinds mirror the paper's moving parts:

* ``subtype_goal`` — one ``τ1 ⪰_C τ2`` query (Definition 3), whether
  decided by the deterministic strategy (Theorems 1–3) or searched by
  the naive definitional prover;
* ``sld_step`` — one resolution step of the generic SLD engine;
* ``match_call`` — one ``match(τ, t)`` (Definition 13) or one
  constraint-collecting match (Section 7);
* ``typed_run_step`` — one Theorem 6 re-check of a resolvent during
  typed execution;
* ``cache_probe`` — one memo-table lookup (hit or miss);
* ``phase`` — a generic named span (per-clause checker timings, whole
  queries) used wherever no more specific kind applies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional

__all__ = [
    "TraceEvent",
    "SubtypeGoalEvent",
    "SldStepEvent",
    "MatchCallEvent",
    "SubjectReductionEvent",
    "CacheProbeEvent",
    "PhaseEvent",
]


@dataclass(frozen=True)
class TraceEvent:
    """Common envelope: identity, nesting, and timing."""

    kind: ClassVar[str] = "event"

    span_id: int
    parent_id: Optional[int]
    ts: float
    dur: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (the JSONL sink serialises exactly this)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for field in fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload


@dataclass(frozen=True)
class SubtypeGoalEvent(TraceEvent):
    """One subtype query ``supertype >= subtype`` (Definition 3)."""

    kind: ClassVar[str] = "subtype_goal"

    supertype: str = ""
    subtype: str = ""
    engine: str = "strategy"  # "strategy" (Theorems 1-3) | "naive" (SLD over H_C)
    result: Optional[bool] = None  # None: unknown at budget (naive only)
    substitution_steps: int = 0
    expansions: int = 0
    reason: Optional[str] = None  # exhaustion reason for naive unknowns


@dataclass(frozen=True)
class SldStepEvent(TraceEvent):
    """One successful SLD-resolution step (goal x clause -> resolvent)."""

    kind: ClassVar[str] = "sld_step"

    goal: str = ""
    depth: int = 0
    resolvent_size: int = 0


@dataclass(frozen=True)
class MatchCallEvent(TraceEvent):
    """One ``match(τ, t)`` call (Definition 13 / Section 7 variant)."""

    kind: ClassVar[str] = "match_call"

    matcher: str = "plain"  # "plain" (Definition 13) | "constraint" (Section 7)
    type_term: str = ""
    term: str = ""
    outcome: str = "typing"  # "typing" | "fail" | "bottom"
    typed_variables: int = 0
    equations: int = 0
    covers: int = 0


@dataclass(frozen=True)
class SubjectReductionEvent(TraceEvent):
    """One ``--typed-run`` per-step subject-reduction assertion.

    Emitted by :class:`~repro.core.typed_run.TypedRunner` for every
    resolution step: ``step`` is the 1-based step index within the
    query, ``via`` records which checker judged the resolvent
    (``strict`` Definition 16 or the ``directional`` moded fallback),
    and a failed assertion carries the checker's ``reason``.
    """

    kind: ClassVar[str] = "typed_run_step"

    step: int = 0
    size: int = 0
    well_typed: bool = True
    via: Optional[str] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class CacheProbeEvent(TraceEvent):
    """One memo-table lookup."""

    kind: ClassVar[str] = "cache_probe"

    cache: str = ""
    hit: bool = False


@dataclass(frozen=True)
class PhaseEvent(TraceEvent):
    """A generic named span (checker phases, whole queries)."""

    kind: ClassVar[str] = "phase"

    name: str = ""
    detail: str = ""
