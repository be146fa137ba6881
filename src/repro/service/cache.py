"""Persistent per-file verdict cache for the batch checking service.

A JSON index (``tlp-cache.json`` under ``--cache-dir``) maps

    ``<file digest>.<declarations digest>``  →  verdict record

where the digests come from :mod:`repro.service.project` and the record
holds everything a warm re-check needs to reproduce the cold run's
output byte-for-byte: the well-typedness verdict, the rendered
diagnostics, any rendered lint findings, the clause/query counts, and
timing metadata.  The index header pins :data:`CHECKER_VERSION`; bumping
it (any change to the checker's verdicts or diagnostic wording)
invalidates every entry at load time, so a stale cache can never mask a
checker change.

When batch runs lint alongside the checker, the enabled rule set's
fingerprint (:meth:`repro.analysis.registry.RuleRegistry.fingerprint`)
becomes a third key component: disabling a rule, adding one, or
re-levelling a severity changes the fingerprint and re-lints exactly the
affected corpus — verdicts cached without lint stay untouched, and vice
versa.

Probes are observable: every :meth:`ResultCache.get` emits a
``cache_probe`` trace event (``cache="service.results"``) and bumps the
``service.cache.hits`` / ``service.cache.misses`` counters through
:mod:`repro.obs` — the same channel the subtype engine's memo tables
use, so one ``--stats`` table shows both caching layers.

Writes go to an append-only journal (``tlp-cache.journal``, beside the
index).  Each line is one JSON record stamped with the checker version:
a put (key + entry), a tombstone (key + time) or a clear (time).
:meth:`ResultCache.save` appends the records made since the previous
save as one ``os.write``, so a request costs what it changed, not what
the cache holds.  The on-disk state is the index followed by the
journal replayed in file order; a torn line (a writer that died
mid-append) and lines of another checker version are skipped.

Compaction folds the journal into the index: it merges the on-disk
state under the in-memory one (our entries win on key collisions,
persisted tombstones kill every copy that predates them, and
``invalidate(None)`` drops whatever other writers persisted), writes
the index atomically (temp file + ``os.replace``), then truncates the
journal.  ``save`` compacts only when there is no usable index yet
(absent, corrupt or foreign-version) or when the journal would grow
larger than the index, so compaction costs amortised O(1) per record;
servers also call :meth:`ResultCache.compact` when they drain.

Concurrent writers are safe: appends and compactions both run under an
exclusive lock file (``O_CREAT|O_EXCL``, broken when stale).  Two
processes recording verdicts into the same cache directory — a batch
run racing a daemon, or many ``tlp-aserve`` workers — never corrupt
the index or lose each other's entries.  A corrupt or foreign-version
index is treated as empty rather than an error: the cache is a pure
accelerator, never a source of truth.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import METRICS, TRACER, CacheProbeEvent

__all__ = ["CHECKER_VERSION", "CachedResult", "ResultCache"]

#: Version of the checking pipeline baked into every cache key.  Bump on
#: any change that can alter verdicts or diagnostic text.
#: "2": diagnostics carry stable TLP codes and cached records may hold
#: lint findings — pre-lint indexes must not replay.
#: "3": cached records may hold inferred ``PRED`` declarations from the
#: success-set analysis (``--infer``) — pre-inference indexes must not
#: replay.
#: "4": the §7 inline ``PRED p(OUT nat).`` form changes frontend
#: verdicts, and the TLP5xx mode rules change lint findings — pre-mode
#: indexes must not replay.
#: "5": ground subtype/match queries run on compiled tree automata and
#: their spilled tables live alongside the cache — pre-automata indexes,
#: memo tables, and spills must not replay.
#: "6": built-in constraint predicates get declared signatures in the
#: frontend and the TLP6xx polymorphic-constraint rules change lint
#: findings — pre-typed-CLP indexes must not replay.
#: "7": rendered text changed — generated type variables renumbered per
#: message (``_T0``), TLP401/TLP402 success types numbered, and syntax
#: errors carry their position (``2:9: error: ...``) — older indexes
#: would replay the old text.  ``tests/service/test_checker_version_fence.py``
#: pins a digest of the rendered text to this version.
CHECKER_VERSION = "7"

INDEX_NAME = "tlp-cache.json"
JOURNAL_NAME = "tlp-cache.journal"
LOCK_NAME = INDEX_NAME + ".lock"

#: How long a write waits for a competing writer before proceeding
#: without the lock (atomic rename still prevents corruption), and the
#: age after which an abandoned lock file is broken.
LOCK_TIMEOUT_S = 5.0
LOCK_STALE_S = 10.0

#: How long persisted tombstones outlive their invalidation — long
#: enough for every concurrent writer to adopt them at its next
#: compaction, short enough that the index never accumulates dead weight.
TOMBSTONE_TTL_S = 600.0


def _signature(status: os.stat_result) -> Tuple[int, int, int]:
    """What identifies one written index: inode, size, mtime."""
    return status.st_ino, status.st_size, status.st_mtime_ns


@dataclass(frozen=True)
class CachedResult:
    """One file's cached verdict — enough to replay the cold-run report."""

    ok: bool
    diagnostics: Tuple[str, ...]
    clauses: int
    queries: int
    duration_s: float
    checked_at: float
    lint: Tuple[str, ...] = ()
    #: Inferred ``PRED`` declarations (the ``--infer`` surfaces); empty
    #: when inference was off or found nothing undeclared.
    inferred: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "diagnostics": list(self.diagnostics),
            "clauses": self.clauses,
            "queries": self.queries,
            "duration_s": self.duration_s,
            "checked_at": self.checked_at,
            "lint": list(self.lint),
            "inferred": list(self.inferred),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CachedResult":
        return cls(
            ok=bool(payload["ok"]),
            diagnostics=tuple(str(d) for d in payload["diagnostics"]),
            clauses=int(payload["clauses"]),
            queries=int(payload["queries"]),
            duration_s=float(payload["duration_s"]),
            checked_at=float(payload["checked_at"]),
            lint=tuple(str(line) for line in payload.get("lint", [])),
            inferred=tuple(str(line) for line in payload.get("inferred", [])),
        )


class ResultCache:
    """On-disk verdict store keyed by (file, declarations, checker) digests."""

    def __init__(
        self,
        cache_dir: str,
        checker_version: str = CHECKER_VERSION,
        ruleset: str = "",
        infer: bool = False,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.checker_version = checker_version
        #: Lint rule-set fingerprint folded into every key ("" = no lint).
        self.ruleset = ruleset
        #: Whether records carry inferred declarations; folded into every
        #: key so an inference-free record never replays for ``--infer``.
        self.infer = infer
        self.index_path = self.cache_dir / INDEX_NAME
        self.journal_path = self.cache_dir / JOURNAL_NAME
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._entries: Dict[str, Dict[str, object]] = {}
        #: key → invalidation time.  Tombstones are *persisted* in the
        #: index and adopted by every writer: a tombstone kills any
        #: entry whose ``checked_at`` predates it, so neither a foreign
        #: writer's older on-disk image nor its still-in-memory copy can
        #: resurrect an explicitly invalidated verdict.  A re-recorded
        #: entry (fresh ``checked_at``) outlives the tombstone.
        self._removed: Dict[str, float] = {}
        #: Set by ``invalidate(None)``: a compaction before the next save
        #: drops everything a competing writer persisted too, not just
        #: our in-memory view.
        self._cleared = False
        #: Journal records made since the last save, in order.
        self._pending: List[Dict[str, object]] = []
        #: Stat signature of the last usable index read or written here.
        self._index_signature: Optional[Tuple[int, int, int]] = None
        self._load()

    # -- persistence ---------------------------------------------------------

    def _read_index(
        self,
    ) -> Optional[Tuple[Dict[str, Dict[str, object]], Dict[str, float]]]:
        """The on-disk index's ``(entries, tombstones)``, or ``None`` for a
        corrupt, foreign-version, or missing index.  A usable index's
        stat signature is remembered, so ``save`` can tell it unchanged
        without reading it again."""
        try:
            with open(self.index_path, "rb") as handle:
                signature = _signature(os.fstat(handle.fileno()))
                raw = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("version") != self.checker_version:
            return None  # foreign or pre-bump index: treat as cold
        entries = raw.get("entries")
        found: Dict[str, Dict[str, object]] = {}
        if isinstance(entries, dict):
            for key, payload in entries.items():
                if isinstance(payload, dict):
                    found[key] = payload
        tombstones: Dict[str, float] = {}
        raw_tombstones = raw.get("tombstones")
        if isinstance(raw_tombstones, dict):
            for key, stamp in raw_tombstones.items():
                if isinstance(stamp, (int, float)):
                    tombstones[str(key)] = float(stamp)
        self._index_signature = signature
        return found, tombstones

    def _replay(
        self,
        entries: Dict[str, Dict[str, object]],
        tombstones: Dict[str, float],
    ) -> None:
        """Apply the journal's records, in file order, to an index image."""
        try:
            data = self.journal_path.read_bytes()
        except OSError:
            return
        for line in data.split(b"\n"):
            try:
                record = json.loads(line)
            except ValueError:
                continue  # blank, or torn by a writer that died mid-append
            if not isinstance(record, dict) or record.get("v") != self.checker_version:
                continue
            op = record.get("op")
            key = record.get("key")
            stamp = record.get("at")
            if op == "put" and isinstance(key, str):
                entry = record.get("entry")
                if isinstance(entry, dict):
                    entries[key] = entry
                    tombstones.pop(key, None)
            elif (
                op == "drop" and isinstance(key, str) and isinstance(stamp, (int, float))
            ):
                entries.pop(key, None)
                tombstones[key] = max(tombstones.get(key, 0.0), float(stamp))
            elif op == "clear" and isinstance(stamp, (int, float)):
                for live in entries:
                    tombstones[live] = max(tombstones.get(live, 0.0), float(stamp))
                entries.clear()

    def _read_disk(
        self,
    ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, float]]:
        """The on-disk state: the index (empty when unusable), then the
        journal replayed over it."""
        entries, tombstones = self._read_index() or ({}, {})
        self._replay(entries, tombstones)
        return entries, tombstones

    @staticmethod
    def _checked_at(payload: Dict[str, object]) -> float:
        try:
            return float(payload.get("checked_at", 0.0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 0.0

    def _load(self) -> None:
        entries, tombstones = self._read_disk()
        self._entries.update(entries)
        self._removed.update(tombstones)  # keep propagating invalidations

    @contextlib.contextmanager
    def _exclusive_lock(self) -> Iterator[bool]:
        """Best-effort cross-process mutex around appends and compaction.

        Acquired via ``O_CREAT|O_EXCL``; a lock older than
        :data:`LOCK_STALE_S` (a crashed writer) is broken.  On timeout we
        *proceed without the lock* — the cache is an accelerator, and the
        atomic rename keeps the index uncorrupted even then; only a lost
        update is possible.  Yields whether the lock was held.
        """
        lock_path = self.cache_dir / LOCK_NAME
        deadline = time.monotonic() + LOCK_TIMEOUT_S
        held = False
        created = False
        while True:
            try:
                descriptor = os.open(
                    str(lock_path),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
                os.write(descriptor, str(os.getpid()).encode("ascii"))
                os.close(descriptor)
                held = True
                break
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue  # holder just released: retry immediately
                if age > LOCK_STALE_S:
                    with contextlib.suppress(OSError):
                        lock_path.unlink()
                    continue
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            except FileNotFoundError:
                if created:
                    break
                # The first write into this directory (or it vanished).
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                created = True
            except OSError:
                break  # unwritable cache dir: fall back to a lockless write
        try:
            yield held
        finally:
            if held:
                with contextlib.suppress(OSError):
                    lock_path.unlink()

    def _usable_index_size(self) -> Optional[int]:
        """The index's size in bytes, or ``None`` when there is no usable
        index.  An index we read or wrote last is known good from its
        stat signature; one another writer compacted is read once."""
        try:
            signature = _signature(os.stat(self.index_path))
        except OSError:
            return None
        if signature != self._index_signature and self._read_index() is None:
            return None
        assert self._index_signature is not None
        return self._index_signature[1]

    def _append(self, blob: bytes, index_size: int) -> bool:
        """Append ``blob`` to the journal as one write, unless that would
        make the journal larger than the index; returns whether it did."""
        descriptor = os.open(
            str(self.journal_path), os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            size = os.fstat(descriptor).st_size
            if size + len(blob) > index_size:
                return False
            if size and os.pread(descriptor, 1, size - 1) != b"\n":
                blob = b"\n" + blob  # fence off a torn line
            os.write(descriptor, blob)
        finally:
            os.close(descriptor)
        return True

    def _compact(self) -> None:
        """Merge the on-disk state under ours, write the index atomically,
        truncate the journal.  Runs under the lock."""
        disk_entries, disk_tombstones = self._read_disk()
        for key, stamp in disk_tombstones.items():
            if stamp > self._removed.get(key, 0.0):
                self._removed[key] = stamp
        if not self._cleared:
            for key, entry in disk_entries.items():
                if key in self._entries:
                    continue  # ours wins: it is at least as fresh
                killed = self._removed.get(key)
                if killed is not None and self._checked_at(entry) <= killed:
                    continue
                self._entries[key] = entry
        # Adopted tombstones kill our own stale copies too (a foreign
        # writer invalidated a verdict we still hold in memory).
        for key, killed in self._removed.items():
            entry = self._entries.get(key)
            if entry is not None and self._checked_at(entry) <= killed:
                del self._entries[key]
        cutoff = time.time() - TOMBSTONE_TTL_S
        tombstones = {
            key: stamp for key, stamp in self._removed.items() if stamp >= cutoff
        }
        payload = {
            "version": self.checker_version,
            "entries": self._entries,
            "tombstones": tombstones,
        }
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=str(self.cache_dir),
            prefix=".tlp-cache-",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                # ``dumps`` without ``indent`` runs the C encoder.
                handle.write(json.dumps(payload, sort_keys=True))
                handle.write("\n")
            os.replace(handle.name, self.index_path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with contextlib.suppress(FileNotFoundError):
            os.truncate(self.journal_path, 0)
        self._index_signature = _signature(os.stat(self.index_path))
        self._removed = tombstones  # pruned, but kept for propagation

    def _saved(self) -> None:
        self._pending.clear()
        self._cleared = False
        self._dirty = False

    def save(self) -> None:
        """Persist what changed since the last save.

        No-op when nothing changed.  Otherwise the new records go to the
        journal in one append, or — when there is no usable index yet,
        or the journal would outgrow the index — everything is compacted
        into a fresh index instead.
        """
        if not self._dirty:
            return
        blob = b"".join(
            json.dumps(record).encode("ascii") + b"\n" for record in self._pending
        )
        with self._exclusive_lock():
            index_size = self._usable_index_size()
            if index_size is None or not self._append(blob, index_size):
                self._compact()
        self._saved()

    def compact(self) -> None:
        """Fold the journal, and anything not yet saved, into the index.

        Servers call this when they drain, so the next process starts
        from a bare index.  No-op when nothing is unsaved and the
        journal is empty.
        """
        try:
            journal_size = os.stat(self.journal_path).st_size
        except OSError:
            journal_size = 0
        if not self._dirty and not journal_size:
            return
        with self._exclusive_lock():
            self._compact()
        self._saved()

    # -- the store -----------------------------------------------------------

    @staticmethod
    def key(
        file_digest: str,
        decls_digest: str,
        ruleset: str = "",
        infer: bool = False,
    ) -> str:
        """Cache key: two digests, plus the lint fingerprint when set and
        an ``infer`` marker when inference ran.

        The two-part form is the pre-lint key, kept so existing entries
        (and tests) keep their addresses when no lint runs.
        """
        key = f"{file_digest}.{decls_digest}"
        if ruleset:
            key = f"{key}.{ruleset}"
        if infer:
            key = f"{key}.infer"
        return key

    def get(
        self, file_digest: str, decls_digest: str
    ) -> Optional[CachedResult]:
        """Probe for a verdict; hit/miss is counted, timed, and traced."""
        observed = METRICS.enabled
        started = time.perf_counter() if observed else 0.0
        payload = self._entries.get(
            self.key(file_digest, decls_digest, self.ruleset, self.infer)
        )
        hit = payload is not None
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if observed:
            METRICS.inc("service.cache.hits" if hit else "service.cache.misses")
            # Probe latency distribution (p50/p99 via the histogram view):
            # in-memory today, but the ROADMAP's cache-server direction
            # makes this the metric that will catch a remote store
            # regressing.
            METRICS.observe(
                "service.cache.probe", time.perf_counter() - started
            )
        if TRACER.enabled:
            TRACER.point(CacheProbeEvent, cache="service.results", hit=hit)
        if not hit:
            return None
        try:
            return CachedResult.from_json(payload)
        except (KeyError, TypeError, ValueError):
            # A malformed entry behaves like a miss (and is purged).
            bad_key = self.key(file_digest, decls_digest, self.ruleset, self.infer)
            del self._entries[bad_key]
            self._drop(bad_key, time.time())
            return None

    def put(
        self,
        file_digest: str,
        decls_digest: str,
        result: CachedResult,
        display: str = "",
    ) -> None:
        payload = result.to_json()
        payload["path"] = display
        key = self.key(file_digest, decls_digest, self.ruleset, self.infer)
        self._entries[key] = payload
        self._removed.pop(key, None)  # a re-recorded key is live again
        self._record(op="put", key=key, entry=payload)

    def _record(self, **record: object) -> None:
        """Queue one journal record for the next save."""
        record["v"] = self.checker_version
        self._pending.append(record)
        self._dirty = True

    def _drop(self, key: str, stamp: float) -> None:
        self._removed[key] = stamp
        self._record(op="drop", key=key, at=stamp)

    def invalidate(self, display: Optional[str] = None) -> int:
        """Drop entries recorded for ``display`` (or everything).

        Content-addressed keys make explicit invalidation unnecessary for
        correctness — a changed file simply misses — but the daemon's
        ``invalidate`` op and operators clearing space both want it.
        """
        now = time.time()
        if display is None:
            dropped = len(self._entries)
            for key in self._entries:
                self._removed[key] = now
            self._entries.clear()
            self._cleared = True
            self._record(op="clear", at=now)
            return dropped
        stale = [
            key
            for key, payload in self._entries.items()
            if payload.get("path") == display
        ]
        for key in stale:
            del self._entries[key]
            self._drop(key, now)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def now() -> float:
        return time.time()
