"""``tlp-batch`` — one batch/incremental check of a project corpus.

Quick use::

    tlp-batch examples/programs                 # cold: checks everything
    tlp-batch examples/programs                 # warm: 100% cache hits
    tlp-batch --jobs 4 corpus/                  # 4 worker processes
    tlp-batch --manifest corpus/tlp-project.json --stats

The corpus comes from the project model (directories are walked for
``*.tlp``; a ``tlp-project.json`` manifest — explicit via ``--manifest``
or auto-detected in a single directory argument — adds shared
declaration preludes and include/exclude lists).  Verdicts persist under
``--cache-dir`` (default ``.tlp-cache``), so a re-run with unchanged
files replays diagnostics byte-for-byte without touching the checker.

Exit status: 0 when every member is well-typed, 1 otherwise, 2 on usage
or corpus errors — the same contract as ``tlp-check``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .. import obs
from ..analysis import LintConfig, ruleset_fingerprint
from ..checker.diagnostics import Severity
from ..obs import METRICS
from .cache import ResultCache
from .project import ProjectError, load_project
from .report import write_run_report
from .runner import FileResult, run_batch

__all__ = ["main"]

#: Rendered lint lines look like ``3:1: error[TLP102]: ...`` — match the
#: severity label, not message text that merely mentions "error[".
_LINT_ERROR = re.compile(rf"(?:^|: ){Severity.ERROR}\[TLP\d+\]: ")


def _build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlp-batch",
        description=(
            "Batch/incremental type checking of a corpus of .tlp files "
            "with a persistent result cache and parallel workers."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files/directories forming the corpus (default: .)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="explicit tlp-project.json manifest",
    )
    parser.add_argument(
        "--cache-dir",
        default=".tlp-cache",
        metavar="DIR",
        help="persistent result cache location (default .tlp-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache for this run",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="ignore cached verdicts but still record fresh ones",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count for parallel checking (default 1)",
    )
    parser.add_argument(
        "--workers",
        choices=("process", "thread"),
        default="process",
        help="worker pool flavour with --jobs > 1 (default process)",
    )
    parser.add_argument(
        "--lint",
        nargs="?",
        const="warn",
        default="off",
        choices=("warn", "error", "off"),
        metavar="MODE",
        help=(
            "also run the static analyzer on checked files: 'warn' "
            "(default when the flag is given) reports findings without "
            "affecting exit status, 'error' makes error-severity "
            "findings fail the run, 'off' disables (default)"
        ),
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help=(
            "run whole-program success-set inference on checked files and "
            "print reconstructed PRED declarations for undeclared "
            "predicates (results ride the cache like lint findings)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect telemetry and print the metrics table",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="write the machine-readable batch report to OUT ('-' for stdout)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="OUT",
        help=(
            "write a run report (wall/phase times, cache hit rate, "
            "worker utilisation, slowest files, histogram summaries "
            "with --stats) to OUT as JSON"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "render live per-file progress on stderr as members resolve "
            "(cache hits first, then checks as workers finish)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-file lines (summary and diagnostics still print)",
    )
    return parser


class _ProgressRenderer:
    """Live ``[done/total]`` line on stderr, one rewrite per resolved file.

    Uses carriage-return rewriting (the cheap single-line renderer every
    terminal understands); the line is cleared before the summary prints
    so piped stderr stays readable.  Each update shows the member that
    just resolved and how it resolved (``cached`` / ``ok`` / ``FAIL``).
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.updates = 0
        self._width = 0

    def __call__(self, done: int, total: int, result: FileResult) -> None:
        state = (
            "cached" if result.from_cache else ("ok" if result.ok else "FAIL")
        )
        line = f"[{done}/{total}] {result.display} ({state})"
        self._width = max(self._width, len(line))
        self.stream.write("\r" + line.ljust(self._width))
        self.stream.flush()
        self.updates += 1

    def finish(self) -> None:
        if self.updates:
            self.stream.write("\r" + " " * self._width + "\r")
            self.stream.flush()


def _run(arguments) -> int:
    try:
        project = load_project(arguments.paths, manifest=arguments.manifest)
    except ProjectError as error:
        print(f"tlp-batch: {error}", file=sys.stderr)
        return 2
    if not project.files:
        print("tlp-batch: no .tlp files found", file=sys.stderr)
        return 2
    lint_config = LintConfig() if arguments.lint != "off" else None
    ruleset = ruleset_fingerprint(lint_config) if lint_config is not None else ""
    cache = (
        None
        if arguments.no_cache
        else ResultCache(
            arguments.cache_dir, ruleset=ruleset, infer=arguments.infer
        )
    )
    renderer = _ProgressRenderer() if arguments.progress else None
    try:
        report = run_batch(
            project,
            cache=cache,
            jobs=arguments.jobs,
            use=arguments.workers,
            force=arguments.force,
            lint=lint_config,
            infer=arguments.infer,
            progress=renderer,
        )
    finally:
        if renderer is not None:
            renderer.finish()
    # With ``--json -`` stdout is the machine-readable report; route the
    # human-readable lines to stderr so the stream stays parseable.
    human = sys.stderr if arguments.json == "-" else sys.stdout
    lint_errors = 0
    for result in report.results:
        for diagnostic in result.diagnostics:
            print(f"{result.display}:{diagnostic}", file=human)
        for finding in result.lint:
            print(f"{result.display}:{finding}", file=human)
            if _LINT_ERROR.search(finding):
                lint_errors += 1
        for line in result.inferred:
            print(f"{result.display}: inferred {line}", file=human)
        if not arguments.quiet:
            print(result.summary_line(), file=human)
    well_typed = sum(1 for r in report.results if r.ok)
    ill_typed = len(report.results) - well_typed
    probes = report.cache_hits + report.cache_misses
    cache_note = (
        f"; cache: {report.cache_hits}/{probes} hits "
        f"({report.hit_rate:.0%} hit rate)"
        if cache is not None
        else "; cache: off"
    )
    lint_note = ""
    if arguments.lint != "off":
        findings = sum(len(result.lint) for result in report.results)
        lint_note = f"; lint: {findings} finding(s), {lint_errors} error(s)"
    if not arguments.quiet:
        print(
            f"checked {len(report.results)} files in "
            f"{report.wall_s * 1e3:.1f}ms with {report.jobs} job(s): "
            f"{well_typed} well-typed, {ill_typed} ill-typed"
            f"{cache_note}{lint_note}",
            file=human,
        )
    if arguments.json is not None:
        payload = report.to_json()
        payload["project"] = {
            "name": project.name,
            "declarations_digest": project.declarations_digest,
            "shared": [entry.display for entry in project.shared],
        }
        if arguments.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            with open(arguments.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    if arguments.report is not None:
        write_run_report(
            arguments.report,
            report,
            project={
                "name": project.name,
                "declarations_digest": project.declarations_digest,
            },
            # Histogram summaries only exist when the run was observed
            # (--stats); an unobserved report still carries timings,
            # cache effectiveness, and the slow-file ranking.
            telemetry=METRICS.snapshot() if METRICS.enabled else None,
        )
    if arguments.lint == "error" and lint_errors:
        return 1
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (installed as the ``tlp-batch`` console script)."""
    parser = _build_argument_parser()
    arguments = parser.parse_args(argv)
    if arguments.jobs < 1:
        parser.error("--jobs must be >= 1")
    if not arguments.stats:
        return _run(arguments)
    was_enabled = METRICS.enabled
    obs.reset()
    METRICS.enabled = True
    try:
        exit_code = _run(arguments)
        print()
        print(obs.render_summary())
        for line in obs.runtime_stats_lines():
            print(line)
        return exit_code
    finally:
        METRICS.enabled = was_enabled


if __name__ == "__main__":
    sys.exit(main())
