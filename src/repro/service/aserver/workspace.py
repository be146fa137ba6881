"""The workspace layer: dependency-closure invalidation over a corpus.

A :class:`Workspace` wraps one project (a directory walk or a
``tlp-project.json`` manifest) plus a content-addressed result cache and
answers the interactive question the async server and the LSP adapter
ask on every edit: *which members must be re-checked, and which verdicts
can be replayed?*

The declaration-dependency graph falls straight out of the corpus
model's digests:

* a **member** file is checked as ``shared prelude + member``, so its
  cache key is ``(member digest, declarations digest)`` — editing the
  member moves only its own key: the dependency closure of a member is
  the member itself;
* a **shared declaration** file feeds the declarations digest, so
  editing it moves *every* member's key at once: the closure of a shared
  file is the whole corpus (a ``TYPE``/constraint edit can change any
  verdict — Definition 16 is global in the declarations);
* the **manifest** itself can change membership, so its closure is also
  the whole corpus.

:meth:`Workspace.on_change` re-loads the project, computes the closure
of what actually changed (by digest, not by the event's say-so), and
runs one cache-backed batch pass: members outside the closure replay
from the cache — observable through the ``cache_probe`` telemetry the
acceptance tests assert on — and only the closure is re-checked.

:class:`StatWatcher` is the no-new-dependencies file watcher: a
stat-polling loop over the workspace's files (members, shared prelude,
manifest) that feeds ``on_change`` whenever an ``(mtime_ns, size)``
signature moves, a file appears, or one disappears.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...obs import METRICS
from ..cache import ResultCache
from ..project import MANIFEST_NAME, Project, load_project
from ..runner import BatchReport, FileResult, run_batch

__all__ = ["RecheckReport", "Workspace", "StatWatcher"]


@dataclass
class RecheckReport:
    """What one ``on_change`` pass did, closure and cache behaviour included."""

    #: Member displays whose content digest actually moved (plus new members).
    changed: List[str] = field(default_factory=list)
    #: The dependency closure that had to be re-checked.
    closure: List[str] = field(default_factory=list)
    #: Member displays that really ran the checker (cache misses).
    checked: List[str] = field(default_factory=list)
    #: Members removed from the corpus since the last pass.
    removed: List[str] = field(default_factory=list)
    #: True when the shared prelude / manifest changed (whole-corpus closure).
    declarations_changed: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    ok: bool = True

    def to_json(self) -> Dict[str, Any]:
        return {
            "changed": list(self.changed),
            "closure": list(self.closure),
            "checked": list(self.checked),
            "removed": list(self.removed),
            "declarations_changed": self.declarations_changed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_s": self.wall_s,
            "ok": self.ok,
        }


class Workspace:
    """One watched corpus: project model + result cache + latest verdicts.

    Thread-safe: the server calls :meth:`on_change` from executor
    threads while a :class:`StatWatcher` may fire concurrently; one lock
    serializes whole passes (each pass is itself a consistent
    probe→check→record batch).

    Without an explicit ``cache``/``cache_dir`` the workspace creates a
    private temporary cache directory (cleaned up by :meth:`close`), so
    closure-only re-checking works out of the box.
    """

    def __init__(
        self,
        paths: Sequence[str],
        manifest: Optional[str] = None,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        use: str = "thread",
    ) -> None:
        self._paths = [str(p) for p in paths]
        self._manifest = manifest
        self._own_cache_dir: Optional[tempfile.TemporaryDirectory] = None
        if cache is None:
            if cache_dir is None:
                self._own_cache_dir = tempfile.TemporaryDirectory(
                    prefix="tlp-workspace-"
                )
                cache_dir = self._own_cache_dir.name
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.jobs = jobs
        self.use = use
        self._lock = threading.Lock()
        self.project: Project = load_project(self._paths, self._manifest)
        #: display → latest :class:`FileResult` (fresh or replayed).
        self.results: Dict[str, FileResult] = {}
        self.passes = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            self.cache.compact()
        finally:
            if self._own_cache_dir is not None:
                self._own_cache_dir.cleanup()
                self._own_cache_dir = None

    # -- the dependency graph ------------------------------------------------

    def member_displays(self) -> List[str]:
        return [member.display for member in self.project.files]

    def watch_paths(self) -> List[Path]:
        """Every file whose change can invalidate a verdict."""
        paths = [member.path for member in self.project.files]
        paths.extend(entry.path for entry in self.project.shared)
        manifest = (
            Path(self._manifest)
            if self._manifest is not None
            else self.project.root / MANIFEST_NAME
        )
        if manifest.is_file():
            paths.append(manifest)
        return paths

    def dependency_graph(self) -> Dict[str, List[str]]:
        """display → displays invalidated when it changes.

        Members invalidate themselves; shared prelude files (and the
        manifest) invalidate every member.
        """
        members = self.member_displays()
        graph: Dict[str, List[str]] = {
            display: [display] for display in members
        }
        for entry in self.project.shared:
            graph[entry.display] = list(members)
        return graph

    def closure_of(self, path: str) -> List[str]:
        """The member displays invalidated by a change to ``path``."""
        resolved = Path(path).resolve()
        shared_paths = {entry.path.resolve() for entry in self.project.shared}
        manifest = (
            Path(self._manifest).resolve()
            if self._manifest is not None
            else (self.project.root / MANIFEST_NAME).resolve()
        )
        if resolved in shared_paths or resolved == manifest:
            return sorted(self.member_displays())
        for member in self.project.files:
            if member.path.resolve() == resolved:
                return [member.display]
        return []  # unknown file: nothing currently depends on it

    # -- checking ------------------------------------------------------------

    def _run(self, force: bool = False) -> BatchReport:
        report = run_batch(
            self.project,
            cache=self.cache,
            jobs=self.jobs,
            use=self.use,
            force=force,
        )
        for result in report.results:
            self.results[result.display] = result
        self.passes += 1
        return report

    def check_all(self, force: bool = False) -> BatchReport:
        """One full batch pass (cache-backed unless ``force``)."""
        with self._lock:
            return self._run(force=force)

    def on_change(
        self, changed_paths: Optional[Sequence[str]] = None
    ) -> RecheckReport:
        """Re-load the project and re-check exactly the closure of what
        changed.

        ``changed_paths`` (from a watcher or a ``didChange``) is advisory
        only: the pass re-fingerprints the corpus and derives the real
        change set from digests, so a spurious event costs one cache-hit
        sweep and a missed event cannot leave a stale verdict.
        """
        with self._lock:
            started = time.perf_counter()
            old_digests = {
                member.display: member.digest for member in self.project.files
            }
            old_decls = self.project.declarations_digest
            self.project = load_project(self._paths, self._manifest)
            new_decls = self.project.declarations_digest
            declarations_changed = new_decls != old_decls

            changed = [
                member.display
                for member in self.project.files
                if old_digests.get(member.display) != member.digest
            ]
            removed = sorted(
                set(old_digests) - {m.display for m in self.project.files}
            )
            for display in removed:
                self.results.pop(display, None)

            if declarations_changed:
                closure = sorted(self.member_displays())
            else:
                closure = sorted(changed)

            batch = self._run()
            checked = sorted(
                result.display
                for result in batch.results
                if not result.from_cache
            )
            report = RecheckReport(
                changed=sorted(changed),
                closure=closure,
                checked=checked,
                removed=removed,
                declarations_changed=declarations_changed,
                cache_hits=batch.cache_hits,
                cache_misses=batch.cache_misses,
                wall_s=time.perf_counter() - started,
                ok=batch.ok,
            )
            if METRICS.enabled:
                METRICS.inc("service.aserver.rechecks")
                METRICS.inc("service.aserver.recheck.files", len(checked))
                METRICS.observe("service.aserver.recheck", report.wall_s)
            return report


class StatWatcher:
    """Poll-the-filesystem change detection (no dependencies, no inotify).

    Tracks an ``(mtime_ns, size)`` signature per watched file; a changed
    signature, a new file, or a vanished file makes the next
    :meth:`poll_once` return it.  :meth:`run` is the asyncio loop the
    server mounts: poll, hand changes to ``Workspace.on_change`` on an
    executor thread (the event loop never blocks on a re-check), repeat.
    """

    MISSING: Tuple[int, int] = (-1, -1)

    def __init__(self, workspace: Workspace, interval_s: float = 0.5) -> None:
        self.workspace = workspace
        self.interval_s = interval_s
        self._signatures = self._scan()
        self.polls = 0

    def _scan(self) -> Dict[str, Tuple[int, int]]:
        signatures: Dict[str, Tuple[int, int]] = {}
        for path in self.workspace.watch_paths():
            try:
                stat = path.stat()
                signatures[str(path)] = (stat.st_mtime_ns, stat.st_size)
            except OSError:
                signatures[str(path)] = self.MISSING
        return signatures

    def poll_once(self) -> List[str]:
        """Paths whose signature moved since the previous poll."""
        self.polls += 1
        fresh = self._scan()
        changed = [
            path
            for path in set(self._signatures) | set(fresh)
            if self._signatures.get(path, self.MISSING)
            != fresh.get(path, self.MISSING)
        ]
        self._signatures = fresh
        return sorted(changed)

    async def run(
        self,
        on_recheck: Optional[Callable[[RecheckReport], None]] = None,
    ) -> None:
        """Poll forever (cancel the task to stop)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.interval_s)
            changed = self.poll_once()
            if not changed:
                continue
            report = await loop.run_in_executor(
                None, self.workspace.on_change, changed
            )
            # The watcher just rebuilt the watch list; refresh signatures
            # so a rename/add settles in one pass instead of two.
            self._signatures = self._scan()
            if on_recheck is not None:
                on_recheck(report)
