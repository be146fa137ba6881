"""``tlp-lint`` — run the static analyzer over files or directories.

Quick use::

    tlp-lint prog.tlp                       # human-readable findings
    tlp-lint examples/ --format sarif       # SARIF 2.1.0 on stdout
    tlp-lint corpus/ --disable TLP203       # silence singleton warnings
    tlp-lint prog.tlp --severity TLP301=error
    tlp-lint --list-rules                   # the rule catalogue

Directory arguments are walked recursively for ``*.tlp``.  When a
``tlp-project.json`` manifest is present (auto-detected in a single
directory argument, or explicit via ``--manifest``), corpus members are
linted with the shared declaration prelude prepended — exactly the text
the type checker sees — while files the manifest *excludes* are still
linted standalone: lint wants to see every source in the tree, including
fixtures a corpus deliberately keeps away from type checking.

Exit status: 0 when no error-severity findings, 1 when at least one
error was reported, 2 on usage errors (unreadable paths, bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from pathlib import Path

from .. import obs
from ..checker.diagnostics import Diagnostic
from ..obs import METRICS
from ..service.project import (
    MANIFEST_NAME,
    ProjectError,
    discover_tlp_files,
    load_project,
)
from . import LintConfig, LintReport, default_registry, lint_text, to_sarif

__all__ = ["main"]


def _build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlp-lint",
        description=(
            "Static analysis for TLP programs: constraint-set hygiene, "
            "clause checks, and subtype information-flow warnings, with "
            "stable TLPxxx codes and fix-it suggestions."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files/directories to lint (directories are walked for *.tlp)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="explicit tlp-project.json manifest (members get the shared prelude)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--disable",
        default="",
        metavar="CODES",
        help="comma-separated rule codes to disable (e.g. TLP203,TLP104)",
    )
    parser.add_argument(
        "--severity",
        default="",
        metavar="OVERRIDES",
        help="comma-separated severity overrides (e.g. TLP301=error)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help=(
            "run whole-program success-set inference and print "
            "reconstructed PRED declarations for undeclared predicates "
            "(included under \"inferred\" in --format json)"
        ),
    )
    parser.add_argument(
        "--no-fixits",
        action="store_true",
        help="omit fix-it suggestion lines from text output",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect telemetry and print the metrics table",
    )
    return parser


def _render_text(
    report: LintReport, show_fixits: bool, out=None
) -> None:
    out = out or sys.stdout
    for diagnostic in report.diagnostics:
        print(f"{report.path}:{diagnostic}", file=out)
        if show_fixits:
            for fixit in diagnostic.fixits:
                print(f"    fix: {fixit.description}", file=out)


def _diagnostic_payload(diagnostic: Diagnostic) -> dict:
    position = diagnostic.position
    payload = {
        "code": diagnostic.code,
        "severity": diagnostic.severity,
        "message": diagnostic.message,
    }
    if position is not None:
        payload["line"] = position.line
        payload["column"] = position.column
        if position.has_span:
            payload["end_line"] = position.end_line
            payload["end_column"] = position.end_column
    if diagnostic.fixits:
        payload["fixits"] = [fixit.description for fixit in diagnostic.fixits]
    return payload


def _find_manifests(paths: List[str]) -> List[Path]:
    """Every ``tlp-project.json`` at or below the given paths, sorted."""
    found = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(path.rglob(MANIFEST_NAME))
    return sorted(found)


def _collect(
    paths: List[str], manifest: Optional[str]
) -> List[Tuple[str, str]]:
    """Expand CLI paths into ``(display, text)`` lint jobs.

    Every ``tlp-project.json`` found under the walked paths (or named by
    ``--manifest``) is honoured: its members are linted with the shared
    prelude prepended — the checker's view of them — while every other
    ``*.tlp``, including manifest-excluded fixtures, is linted
    standalone.
    """
    walk = list(paths)
    manifests = _find_manifests(paths)
    if manifest is not None:
        explicit = Path(manifest)
        if explicit not in manifests:
            manifests.insert(0, explicit)
        if not walk:
            walk = [str(explicit.parent)]
    jobs: List[Tuple[str, str]] = []
    claimed = set()
    for manifest_path in manifests:
        project = load_project([], manifest=str(manifest_path))
        for member in project.files:
            resolved = member.path.resolve()
            if resolved in claimed:
                continue
            claimed.add(resolved)
            jobs.append((str(member.path), project.effective_text(member)))
        claimed.update(entry.path.resolve() for entry in project.shared)
    for path in discover_tlp_files(walk):
        if path.resolve() in claimed:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ProjectError(f"{path}: cannot read: {error}") from error
        jobs.append((str(path), text))
    jobs.sort(key=lambda job: job[0])
    return jobs


def _run(arguments) -> int:
    try:
        config = LintConfig.from_spec(arguments.disable, arguments.severity)
    except ValueError as error:
        print(f"tlp-lint: {error}", file=sys.stderr)
        return 2
    registry = default_registry()

    if arguments.list_rules:
        for rule in registry.selected(config):
            print(rule)
            print(f"    paper: {rule.paper}")
        return 0

    if not arguments.paths and arguments.manifest is None:
        print("tlp-lint: no input files (pass files or directories)",
              file=sys.stderr)
        return 2
    try:
        jobs = _collect(arguments.paths, arguments.manifest)
    except ProjectError as error:
        print(f"tlp-lint: {error}", file=sys.stderr)
        return 2
    if not jobs:
        print("tlp-lint: no .tlp files found", file=sys.stderr)
        return 2

    reports: List[LintReport] = []
    inferred: dict = {}
    for display, text in jobs:
        reports.append(
            lint_text(text, path=display, config=config, registry=registry)
        )
        if arguments.infer:
            from .absint import infer_text

            inference = infer_text(text, path=display)
            if inference is not None:
                lines = inference.declaration_lines()
                if lines:
                    inferred[display] = lines

    findings: List[Tuple[str, Diagnostic]] = [
        (report.path, diagnostic)
        for report in reports
        for diagnostic in report.diagnostics
    ]
    errors = sum(len(report.errors) for report in reports)
    warnings = sum(len(report.warnings) for report in reports)

    if arguments.format == "sarif":
        document = to_sarif(findings, registry, config)
        json.dump(document, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif arguments.format == "json":
        payload = {
            "fingerprint": registry.fingerprint(config),
            "files": [
                {
                    "path": report.path,
                    "ok": report.ok,
                    "diagnostics": [
                        _diagnostic_payload(d) for d in report.diagnostics
                    ],
                    **(
                        {"inferred": inferred[report.path]}
                        if report.path in inferred
                        else {}
                    ),
                }
                for report in reports
            ],
            "errors": errors,
            "warnings": warnings,
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for report in reports:
            _render_text(report, show_fixits=not arguments.no_fixits)
            for line in inferred.get(report.path, []):
                print(f"{report.path}: inferred {line}")
        noun = "file" if len(reports) == 1 else "files"
        print(
            f"linted {len(reports)} {noun}: "
            f"{errors} error(s), {warnings} warning(s)"
        )
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (installed as the ``tlp-lint`` console script)."""
    parser = _build_argument_parser()
    arguments = parser.parse_args(argv)
    if not arguments.stats:
        return _run(arguments)
    was_enabled = METRICS.enabled
    obs.reset()
    METRICS.enabled = True
    try:
        exit_code = _run(arguments)
        obs.publish_runtime_gauges()
        print(file=sys.stderr)
        print(obs.render_summary(), file=sys.stderr)
        return exit_code
    finally:
        METRICS.enabled = was_enabled


if __name__ == "__main__":
    sys.exit(main())
