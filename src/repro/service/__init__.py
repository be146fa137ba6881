"""repro.service — the batch/incremental checking service.

The paper's Section 7 artifact is a whole-program checker; this package
grows it from a one-shot CLI into a service that checks *corpora* of
``.tlp`` files fast, repeatedly, and in parallel:

* :mod:`repro.service.project` — the **project model**: discover and
  order a corpus (explicit ``tlp-project.json`` manifest or directory
  walk), with a content-addressed fingerprint per file and a
  declarations fingerprint for shared preludes, so unchanged work is
  identifiable across runs.
* :mod:`repro.service.cache` — the **persistent result cache**: an
  on-disk JSON store keyed by ``(file hash, declarations hash, checker
  version)`` holding per-file verdicts and diagnostics.  Warm re-checks
  of an unchanged corpus skip the Definition 16 pipeline entirely;
  probes surface as ``cache_probe`` trace events and
  ``service.cache.*`` counters through :mod:`repro.obs`.
* :mod:`repro.service.runner` — the **execution layer**: a
  ``concurrent.futures`` worker pool checking independent files in
  parallel, with per-worker telemetry shipped back to the coordinator
  and merged losslessly into the process-wide registry.
* :mod:`repro.service.daemon` — :class:`~repro.service.daemon.CheckService`,
  the transport-independent check service that keeps parsed modules —
  including their shared subtype-engine memo tables — hot across
  requests.
* :mod:`repro.service.aserver` — ``tlp-aserve``, the server that puts
  that service on stdio, TCP and unix sockets, and ``tlp-lsp``.

Console entry points: ``tlp-batch`` (one batch run over a corpus) and
``tlp-aserve`` (the server).  ``tlp-check`` gains ``--jobs``/
``--cache-dir`` flags that route through the same runner.
"""

from __future__ import annotations

from .cache import CHECKER_VERSION, CachedResult, ResultCache
from .project import (
    EMPTY_DECLS_DIGEST,
    Project,
    ProjectError,
    ProjectFile,
    discover_tlp_files,
    fingerprint,
    load_project,
)
from .report import build_run_report, write_run_report
from .runner import BatchReport, FileResult, run_batch

__all__ = [
    "build_run_report",
    "write_run_report",
    "CHECKER_VERSION",
    "CachedResult",
    "ResultCache",
    "EMPTY_DECLS_DIGEST",
    "Project",
    "ProjectError",
    "ProjectFile",
    "discover_tlp_files",
    "fingerprint",
    "load_project",
    "BatchReport",
    "FileResult",
    "run_batch",
]
