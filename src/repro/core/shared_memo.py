"""A process-wide subtype memo shared across engines.

The batch service builds one :class:`~repro.core.subtype.SubtypeEngine`
per checked file, and corpus files overwhelmingly share one declaration
prelude — so every per-file engine re-derives the same ``τ ⪰_C τ′``
verdicts from a cold memo.  :class:`SharedSubtypeMemo` fixes that: it
hands engines a memo *table* keyed by the declaration scope, so file N's
engine starts with every verdict files 1..N-1 already derived.

Keying and safety
-----------------

* Tables are keyed by ``ConstraintSet.fingerprint()`` — a digest of both
  symbol alphabets and every constraint.  Engines over different
  declaration scopes can never observe each other's entries.
* The whole store is invalidated when the schema version changes:
  :meth:`ensure_version` is called by the batch runner with the result
  cache's ``CHECKER_VERSION`` (and anything else that should fence the
  memo, e.g. a lint ruleset fingerprint), so bumping the checker version
  drops stale verdicts exactly as it drops stale cached results.
* Entries are plain ``(supertype, subtype) -> bool`` verdicts — facts
  about ``C``, independent of which engine derived them, so cross-engine
  reuse cannot change any answer (the differential tests in
  ``tests/core/test_shared_memo.py`` pin this).
* Thread pools share the process, hence the memo.  Engines read and
  write the table directly (no lock on the hot path); CPython dict
  operations are atomic, and because any engine would write the *same*
  verdict under a key, a lost race costs one redundant derivation, never
  a wrong answer.  Table creation/lookup is locked.
* Each table has a soft entry cap, checked when an engine attaches: a
  table that outgrew the cap is dropped and restarted cold (counted in
  ``evictions``), bounding daemon memory.

The store has no off switch.  An engine built without ``shared_memo=``
does not attach and keeps its own cold memo; the differential tests and
the benchmarks pick that reference path per engine.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..terms.term import Term
from .declarations import ConstraintSet

__all__ = ["SharedSubtypeMemo", "SHARED_MEMO"]

#: Soft per-scope entry cap (see module docstring).  Generous: entries are
#: small (two interned term references and a bool), and real corpora share
#: a handful of declaration scopes.
DEFAULT_MAX_ENTRIES_PER_SCOPE = 1_000_000


class SharedSubtypeMemo:
    """The process-wide store of per-declaration-scope memo tables."""

    def __init__(
        self, max_entries_per_scope: int = DEFAULT_MAX_ENTRIES_PER_SCOPE
    ) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, Dict[Tuple[Term, Term], bool]] = {}
        self._version: Optional[str] = None
        self.max_entries_per_scope = max_entries_per_scope
        self.attachments = 0
        self.evictions = 0
        self.invalidations = 0

    def ensure_version(self, tag: str) -> None:
        """Fence the store on ``tag``; a changed tag drops every table.

        The batch runner passes the result cache's ``CHECKER_VERSION``
        combined with whatever rulesets feed verdicts, mirroring the
        persistent cache's invalidation discipline.

        The compiled-automata store rides the same fence: every caller
        that versions the memo implicitly versions the automata, so a
        checker upgrade can never serve pre-upgrade compiled tables.
        """
        with self._lock:
            if self._version != tag:
                if self._tables:
                    self.invalidations += 1
                self._tables.clear()
                self._version = tag
        from .automata import AUTOMATA

        AUTOMATA.ensure_version(tag)

    def table_for(
        self, constraints: ConstraintSet
    ) -> Dict[Tuple[Term, Term], bool]:
        """The shared memo table for ``constraints``' declaration scope.

        The table is returned by reference — the engine plugs it in as
        its ``_memo`` and reads/writes it directly.
        """
        key = constraints.fingerprint()
        with self._lock:
            table = self._tables.get(key)
            if table is not None and len(table) > self.max_entries_per_scope:
                self.evictions += 1
                table = None
            if table is None:
                table = {}
                self._tables[key] = table
            self.attachments += 1
            return table

    def clear(self) -> None:
        """Drop every table and zero the traffic counters (tests/daemons)."""
        with self._lock:
            self._tables.clear()
            self.attachments = 0
            self.evictions = 0
            self.invalidations = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot: scope count, total entries, attach/evict traffic."""
        with self._lock:
            return {
                "scopes": len(self._tables),
                "entries": sum(len(t) for t in self._tables.values()),
                "attachments": self.attachments,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


#: The singleton used by the checker frontend and the batch service.
SHARED_MEMO = SharedSubtypeMemo()
