"""The check service: the transport-independent core of ``tlp-aserve``.

:class:`CheckService` keeps checker state *hot* across requests: checked
modules — with their parsed declarations, their per-file
``WellTypedChecker`` matcher memos, and the module-wide shared
``SubtypeEngine`` memo table — stay resident in an LRU keyed by content
digest, so re-checking an unchanged file is a dictionary lookup, and the
optional persistent result cache (``cache_dir``) is shared with
``tlp-batch``: entries written by either surface are served by both.

:meth:`CheckService.handle` takes one request object and returns one
response object (``check``, ``lint``, ``infer``, ``solve``, ``stats``,
``metrics``, ``health``, ``invalidate``).  The line-JSON wire protocol
that carries them — over stdio, TCP or a unix socket — and the meaning
of each response field are documented in
:mod:`repro.service.aserver.server`.

Verdict state is *content-addressed*: the hot LRU and the persistent
cache are keyed by the SHA-256 of the checked text (never by path), and
the path→digest stat cache that lets a repeat check skip re-reading an
unchanged file is invalidated by any change to the file's
``(mtime_ns, size)`` signature — a file edited on disk can never be
served a stale verdict.

A worked session lives in ``docs/service.md``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..analysis import LintConfig, lint_text
from ..checker.cancel import CancelToken, CheckCancelled
from ..checker.diagnostics import Severity
from ..checker.frontend import CheckedModule, check_text
from ..obs import METRICS, TRACER, CacheProbeEvent
from .cache import CHECKER_VERSION, CachedResult, ResultCache
from .project import EMPTY_DECLS_DIGEST, fingerprint

__all__ = ["CheckService"]

#: Checked modules kept resident (each holds parsed declarations plus
#: the matcher/subtype memo tables grown while checking it).
HOT_MODULE_LIMIT = 256

#: Path → (stat signature, digest) entries kept so an unchanged file can
#: be served from the hot LRU without re-reading its bytes.
STAT_CACHE_LIMIT = 4096


class CheckService:
    """The server's brain, independent of any transport."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir else None
        if self.cache is not None:
            # Warm-start the compiled-automata store from a spill left by
            # an earlier process (version-fenced like the result cache).
            from ..core.automata import AUTOMATA

            AUTOMATA.ensure_version(CHECKER_VERSION)
            AUTOMATA.load_spill(self.cache.cache_dir)
        self._hot: "OrderedDict[str, Tuple[str, CheckedModule]]" = OrderedDict()
        #: path → ((st_mtime_ns, st_size), digest) of the last read, so a
        #: repeat ``check`` on an *unchanged* file skips the re-read while
        #: a file whose bytes changed on disk can never be served stale:
        #: the hot LRU and the persistent cache are keyed by content
        #: digest, and the digest is only trusted while the stat
        #: signature matches.
        self._stat: "OrderedDict[str, Tuple[Tuple[int, int], str]]" = OrderedDict()
        #: One lock around all hot/stat/cache state: requests may be
        #: handled from many executor threads (the async server), and the
        #: expensive work — ``check_text`` — runs outside it.
        self._lock = threading.RLock()
        self.requests = 0
        self.checks = 0
        self.lints = 0
        self.infers = 0
        self.solves = 0
        self.hot_hits = 0
        self.cache_hits = 0
        self.cancellations = 0
        self.errors = 0
        self.started_at = time.time()

    # -- request dispatch ----------------------------------------------------

    def handle(
        self, request: Any, cancel: Optional[CancelToken] = None
    ) -> Dict[str, Any]:
        """One request object in, one response object out (never raises).

        ``cancel`` (used by the async server) aborts an in-flight
        ``check`` at its next clause-boundary checkpoint; the response is
        then ``{"ok": false, "cancelled": true, ...}``.
        """
        self.requests += 1
        if METRICS.enabled:
            METRICS.inc("service.daemon.requests")
        if not isinstance(request, dict):
            return self._error(None, "request must be a JSON object")
        op = request.get("op")
        try:
            if op == "check":
                return self._op_check(request, cancel)
            if op == "lint":
                return self._op_lint(request)
            if op == "infer":
                return self._op_infer(request)
            if op == "solve":
                return self._op_solve(request)
            if op == "stats":
                return self._op_stats()
            if op == "metrics":
                return self._op_metrics()
            if op == "health":
                return self._op_health()
            if op == "invalidate":
                return self._op_invalidate(request)
            return self._error(op, f"unknown op {op!r}")
        except CheckCancelled as cancelled:
            self.cancellations += 1
            if METRICS.enabled:
                METRICS.inc("service.daemon.cancelled")
            return {
                "ok": False,
                "op": op,
                "cancelled": True,
                "error": str(cancelled),
            }
        except Exception as error:  # a bug must not take the daemon down
            return self._error(op, f"internal error: {error}")

    def _error(self, op: Optional[Any], message: str) -> Dict[str, Any]:
        self.errors += 1
        return {"ok": False, "op": op, "error": message}

    # -- ops -----------------------------------------------------------------

    def _stat_digest(self, path: str) -> Optional[str]:
        """The last-read digest of ``path`` iff its stat signature
        (mtime_ns, size) is unchanged — the key that lets a repeat check
        of an on-disk file hit the hot LRU without re-reading, while any
        write to the file (new signature) forces a fresh read and
        fingerprint.  Never consulted as a verdict source by itself: it
        only *names* a content digest, and all verdict state is keyed by
        that digest."""
        try:
            stat = os.stat(path)
        except OSError:
            return None
        signature = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            entry = self._stat.get(str(path))
            if entry is not None and entry[0] == signature:
                self._stat.move_to_end(str(path))
                return entry[1]
        return None

    def _record_stat(
        self,
        path: str,
        before: Optional[Tuple[int, int]],
        digest: str,
    ) -> None:
        """Remember ``path``'s stat signature for ``digest``.

        ``before`` is the signature taken *before* the read; if the file
        changed while we were reading it (signature moved), nothing is
        recorded — the next check re-reads rather than trusting a
        signature that may not describe the text we fingerprinted.
        """
        try:
            stat = os.stat(path)
        except OSError:
            return
        signature = (stat.st_mtime_ns, stat.st_size)
        if before is not None and signature != before:
            return
        with self._lock:
            self._stat[str(path)] = (signature, digest)
            self._stat.move_to_end(str(path))
            while len(self._stat) > STAT_CACHE_LIMIT:
                self._stat.popitem(last=False)

    def _read_and_fingerprint(
        self, path: str
    ) -> Tuple[Optional[str], Optional[str]]:
        """Read ``path`` → (text, digest), recording the stat entry.
        Returns ``(None, error_message)`` when the file is unreadable."""
        try:
            before_stat = os.stat(path)
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            return None, f"{path}: cannot read: {error}"
        digest = fingerprint(text)
        self._record_stat(
            path, (before_stat.st_mtime_ns, before_stat.st_size), digest
        )
        return text, digest

    def _op_check(
        self, request: Dict[str, Any], cancel: Optional[CancelToken] = None
    ) -> Dict[str, Any]:
        path = request.get("path")
        text = request.get("text")
        if (path is None) == (text is None):
            return self._error("check", "check needs exactly one of 'path' or 'text'")
        display = str(path) if path is not None else "<text>"
        if path is not None:
            digest = self._stat_digest(str(path))
            if digest is None:
                text, read_error_or_digest = self._read_and_fingerprint(str(path))
                if text is None:
                    return self._error("check", read_error_or_digest or "")
                digest = read_error_or_digest
        else:
            assert isinstance(text, str)
            digest = fingerprint(text)
        assert isinstance(digest, str)
        self.checks += 1

        started = time.perf_counter()
        with self._lock:
            hot = self._hot.get(digest)
            if hot is not None:
                self._hot.move_to_end(digest)
        if TRACER.enabled:
            TRACER.point(CacheProbeEvent, cache="service.hot_modules", hit=hot is not None)
        if hot is not None:
            self.hot_hits += 1
            if METRICS.enabled:
                METRICS.inc("service.daemon.hot_hits")
            _, module = hot
            return self._check_response(
                display, digest, module.ok,
                [str(d) for d in module.diagnostics],
                len(module.program), len(module.queries),
                source="hot", duration_s=time.perf_counter() - started,
            )

        if self.cache is not None:
            with self._lock:
                cached = self.cache.get(digest, EMPTY_DECLS_DIGEST)
            if cached is not None:
                self.cache_hits += 1
                return self._check_response(
                    display, digest, cached.ok, list(cached.diagnostics),
                    cached.clauses, cached.queries,
                    source="cache", duration_s=time.perf_counter() - started,
                )

        if text is None:
            # The stat cache knew the digest but nothing warm holds it
            # (fresh process, evicted entry): read the bytes now.
            assert path is not None
            text, fresh = self._read_and_fingerprint(str(path))
            if text is None:
                return self._error("check", fresh or "")
            assert isinstance(fresh, str)
            digest = fresh  # whatever is on disk *now* is what we check

        module = check_text(text, cancel=cancel)
        duration = time.perf_counter() - started
        diagnostics = [str(d) for d in module.diagnostics]
        with self._lock:
            self._remember(digest, display, module)
            if self.cache is not None:
                self.cache.put(
                    digest,
                    EMPTY_DECLS_DIGEST,
                    CachedResult(
                        ok=module.ok,
                        diagnostics=tuple(diagnostics),
                        clauses=len(module.program),
                        queries=len(module.queries),
                        duration_s=duration,
                        checked_at=ResultCache.now(),
                    ),
                    display=display,
                )
                self.cache.save()
        return self._check_response(
            display, digest, module.ok, diagnostics,
            len(module.program), len(module.queries),
            source="checked", duration_s=duration,
        )

    def _remember(self, digest: str, display: str, module: CheckedModule) -> None:
        self._hot[digest] = (display, module)
        self._hot.move_to_end(digest)
        while len(self._hot) > HOT_MODULE_LIMIT:
            self._hot.popitem(last=False)
        if METRICS.enabled:
            METRICS.gauge_max("service.daemon.hot_modules", len(self._hot))

    @staticmethod
    def _check_response(
        display: str,
        digest: str,
        well_typed: bool,
        diagnostics: List[str],
        clauses: int,
        queries: int,
        source: str,
        duration_s: float,
    ) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "check",
            "path": display,
            "digest": digest,
            "well_typed": well_typed,
            "diagnostics": diagnostics,
            "clauses": clauses,
            "queries": queries,
            "source": source,
            "duration_s": duration_s,
        }

    def _op_lint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = request.get("path")
        text = request.get("text")
        if (path is None) == (text is None):
            return self._error("lint", "lint needs exactly one of 'path' or 'text'")
        display = str(path) if path is not None else "<text>"
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as error:
                return self._error("lint", f"{path}: cannot read: {error}")
        assert isinstance(text, str)
        try:
            config = LintConfig.from_spec(
                str(request.get("disable", "")),
                str(request.get("severity", "")),
            )
        except ValueError as error:
            return self._error("lint", str(error))
        self.lints += 1
        if METRICS.enabled:
            METRICS.inc("service.daemon.lints")
        started = time.perf_counter()
        report = lint_text(text, path=display, config=config)
        findings = []
        for diagnostic in report.diagnostics:
            finding: Dict[str, Any] = {
                "code": diagnostic.code,
                "severity": diagnostic.severity,
                "message": diagnostic.message,
            }
            position = diagnostic.position
            if position is not None:
                finding["line"] = position.line
                finding["column"] = position.column
                if position.has_span:
                    finding["end_line"] = position.end_line
                    finding["end_column"] = position.end_column
            if diagnostic.fixits:
                finding["fixits"] = [
                    fixit.description for fixit in diagnostic.fixits
                ]
            findings.append(finding)
        return {
            "ok": True,
            "op": "lint",
            "path": display,
            "digest": fingerprint(text),
            "fingerprint": report.fingerprint,
            "findings": findings,
            "errors": sum(
                1 for d in report.diagnostics if d.severity == Severity.ERROR
            ),
            "warnings": sum(
                1 for d in report.diagnostics if d.severity == Severity.WARNING
            ),
            "duration_s": time.perf_counter() - started,
        }

    def _op_infer(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = request.get("path")
        text = request.get("text")
        if (path is None) == (text is None):
            return self._error("infer", "infer needs exactly one of 'path' or 'text'")
        display = str(path) if path is not None else "<text>"
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as error:
                return self._error("infer", f"{path}: cannot read: {error}")
        assert isinstance(text, str)
        from ..analysis.absint import infer_text

        self.infers += 1
        if METRICS.enabled:
            METRICS.inc("service.daemon.infers")
        started = time.perf_counter()
        inference = infer_text(text, path=display)
        if inference is None:
            return self._error(
                "infer",
                f"{display}: does not parse or falls outside the "
                f"uniform + guarded fragment",
            )
        success_sets: List[str] = []
        for indicator in sorted(inference.success):
            success_sets.extend(inference.success[indicator].render())
        return {
            "ok": True,
            "op": "infer",
            "path": display,
            "digest": fingerprint(text),
            "declarations": inference.declaration_lines(),
            "success_sets": success_sets,
            "duration_s": time.perf_counter() - started,
        }

    def _op_solve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = request.get("path")
        text = request.get("text")
        if (path is None) == (text is None):
            return self._error("solve", "solve needs exactly one of 'path' or 'text'")
        display = str(path) if path is not None else "<text>"
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as error:
                return self._error("solve", f"{path}: cannot read: {error}")
        assert isinstance(text, str)
        from ..analysis.polytypes import solve_text
        from ..core.declarations import DeclarationError
        from ..lang.lexer import LexError
        from ..lang.parser import ParseError

        self.solves += 1
        if METRICS.enabled:
            METRICS.inc("service.daemon.solves")
        started = time.perf_counter()
        try:
            solved = solve_text(text, path=display)
        except (LexError, ParseError, DeclarationError) as error:
            return self._error("solve", f"{display}: {error}")
        if solved is None:
            return self._error(
                "solve",
                f"{display}: no polymorphic declarations or built-in "
                f"constraint goals (nothing for the subtype solver to do)",
            )
        return {
            "ok": True,
            "op": "solve",
            "path": display,
            "digest": fingerprint(text),
            "candidates": solved["candidates"],
            "items": solved["items"],
            "duration_s": time.perf_counter() - started,
        }

    def _op_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "requests": self.requests,
            "checks": self.checks,
            "lints": self.lints,
            "infers": self.infers,
            "solves": self.solves,
            "hot_hits": self.hot_hits,
            "cache_hits": self.cache_hits,
            "cancellations": self.cancellations,
            "errors": self.errors,
            "hot_modules": len(self._hot),
            "stat_entries": len(self._stat),
            "uptime_s": time.time() - self.started_at,
        }
        if self.cache is not None:
            stats["cache_entries"] = len(self.cache)
            stats["cache_probe_hits"] = self.cache.hits
            stats["cache_probe_misses"] = self.cache.misses
        response: Dict[str, Any] = {"ok": True, "op": "stats", "stats": stats}
        if METRICS.enabled:
            response["telemetry"] = obs.summary()
        return response

    def _runtime_gauges(self) -> Dict[str, float]:
        """Point-in-time daemon state injected into every exposition.

        These live outside the telemetry registry (they are properties of
        the daemon, not accumulated samples), so ``metrics`` responses
        carry them even when ``--stats`` is off and the registry is
        empty.
        """
        from ..core.shared_memo import SHARED_MEMO

        gauges: Dict[str, float] = {
            "daemon.uptime_seconds": time.time() - self.started_at,
            "daemon.requests": self.requests,
            "daemon.errors": self.errors,
            "daemon.hot_modules": len(self._hot),
            "daemon.hot_module_limit": HOT_MODULE_LIMIT,
            "daemon.hot_module_occupancy": len(self._hot) / HOT_MODULE_LIMIT,
        }
        if self.cache is not None:
            gauges["daemon.cache_entries"] = len(self.cache)
        memo = SHARED_MEMO.stats()
        gauges["subtype.shared_memo.entries"] = memo["entries"]
        gauges["subtype.shared_memo.scopes"] = memo["scopes"]
        gauges["subtype.shared_memo.attachments"] = memo["attachments"]
        from ..core.automata import AUTOMATA

        automata = AUTOMATA.stats()
        gauges["subtype.automaton.scopes"] = automata["scopes"]
        gauges["subtype.automaton.states"] = automata["states"]
        gauges["subtype.automaton.transitions"] = automata["transitions"]
        gauges["subtype.automaton.cache_entries"] = automata["cache_entries"]
        gauges["subtype.automaton.attachments"] = automata["attachments"]
        return gauges

    def _op_metrics(self) -> Dict[str, Any]:
        """Prometheus text exposition of the registry + daemon gauges."""
        body = obs.prometheus_text(extra_gauges=self._runtime_gauges())
        return {
            "ok": True,
            "op": "metrics",
            "content_type": obs.PROMETHEUS_CONTENT_TYPE,
            "body": body,
        }

    def _op_health(self) -> Dict[str, Any]:
        """Liveness/introspection: uptime, LRU occupancy, caches, memo."""
        from ..core.automata import AUTOMATA
        from ..core.shared_memo import SHARED_MEMO

        health: Dict[str, Any] = {
            "uptime_s": time.time() - self.started_at,
            "pid": os.getpid(),
            "requests": self.requests,
            "errors": self.errors,
            "telemetry_enabled": METRICS.enabled,
            "hot_modules": {
                "count": len(self._hot),
                "limit": HOT_MODULE_LIMIT,
                "occupancy": len(self._hot) / HOT_MODULE_LIMIT,
            },
            "shared_memo": SHARED_MEMO.stats(),
            "automata": AUTOMATA.stats(),
        }
        if self.cache is not None:
            health["cache"] = {
                "dir": str(self.cache.cache_dir),
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        else:
            health["cache"] = None
        return {"ok": True, "op": "health", "health": health}

    def _op_invalidate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = request.get("path")
        display = str(path) if path is not None else None
        with self._lock:
            if display is None:
                dropped_hot = len(self._hot)
                self._hot.clear()
                self._stat.clear()
            else:
                stale = [
                    digest
                    for digest, (entry_display, _) in self._hot.items()
                    if entry_display == display
                ]
                for digest in stale:
                    del self._hot[digest]
                dropped_hot = len(stale)
                self._stat.pop(display, None)
            dropped_cached = 0
            if self.cache is not None:
                dropped_cached = self.cache.invalidate(display)
                self.cache.save()
        return {
            "ok": True,
            "op": "invalidate",
            "path": display,
            "dropped_hot": dropped_hot,
            "dropped_cached": dropped_cached,
        }

    def close(self) -> None:
        """Orderly teardown: persist the cache, flush/close trace sinks.

        Called by the server's graceful drain — the ``shutdown`` op,
        SIGTERM, or the end of stdin — so traces and the persistent
        cache survive restarts.
        """
        with self._lock:
            if self.cache is not None:
                self.cache.save()
                from ..core.automata import AUTOMATA

                AUTOMATA.save_spill(self.cache.cache_dir)
        obs.TRACER.close_sinks()
