"""Command-line driver: ``tlp-check file.tlp``.

Checks each file and prints diagnostics; with ``--run`` it additionally
executes the file's queries through ``TypedRunner`` and prints the
answers (with per-resolvent and per-answer consistency checking,
Theorem 6 style).

Observability (``repro.obs``):

- ``--stats`` enables the telemetry registry for the run and prints the
  counter/gauge/timer table after all files are processed.  It also
  audits every Definition 16 typing witness of well-typed files through
  the subtype engine (Definition 10 respectfulness), so the subtype
  machinery — not just ``match`` — shows up in the counters.
- ``--trace[=FILE]`` streams structured trace events as JSON Lines to
  ``FILE`` (or stderr when no file is given) while checking runs.
- ``--profile[=FILE]`` rides the same span stream through a
  :class:`~repro.obs.profile.SpanProfiler`: after the run it prints the
  per-span-name self/cumulative time table, and with ``FILE`` writes
  collapsed-stack lines for flamegraph tooling.
- ``--metrics-out FILE`` writes the run's telemetry as Prometheus text
  exposition (the same document ``tlp-aserve``'s ``metrics`` op returns).

Exit status: 0 when every file is well-typed, 1 otherwise, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .. import obs
from ..core.subtype import SubtypeEngine
from ..core.typed_run import TYPED_RUN_CODE, TypedRunner
from ..lp.constrained import ConstrainedInterpreter
from ..lp.database import Database
from ..terms.freeze import freeze_with_mapping
from ..terms.pretty import pretty, renumber_generated
from ..terms.substitution import Substitution
from ..terms.term import variables_of
from .frontend import check_text

__all__ = ["main"]


def _build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlp-check",
        description=(
            "Type-check (and optionally run) typed logic programs in the "
            "declaration language of Jacobs, PLDI 1990."
        ),
    )
    parser.add_argument(
        "files",
        nargs="+",
        help="source files (or directories, walked recursively for *.tlp) to check",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="execute the queries of well-typed files through the typed interpreter",
    )
    parser.add_argument(
        "--typed-run",
        action="store_true",
        help=(
            "execute queries in the mode-checked configuration, asserting "
            "Theorem 6 subject reduction at every resolution step; a query "
            "aborts at its first ill-typed resolvent with a TLP590 "
            "diagnostic (runs even on statically rejected files — the "
            "dynamic witness for the static verdict; takes precedence "
            "over --run)"
        ),
    )
    parser.add_argument(
        "--max-answers",
        type=int,
        default=10,
        help="answers to print per query with --run (default 10)",
    )
    parser.add_argument(
        "--depth-limit",
        type=int,
        default=10_000,
        help=(
            "resolution depth bound with --run/--typed-run (default 10000); "
            "a query with no answer whose search the bound cut off says so "
            "instead of 'no.'"
        ),
    )
    parser.add_argument(
        "--lint",
        nargs="?",
        const="warn",
        default="off",
        choices=("warn", "error", "off"),
        metavar="MODE",
        help=(
            "also run the tlp-lint static analyzer on each file: 'warn' "
            "(default when the flag is given) reports findings without "
            "affecting exit status, 'error' makes error-severity findings "
            "fail the run, 'off' disables (default)"
        ),
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help=(
            "run whole-program success-set inference and print "
            "reconstructed PRED declarations for undeclared predicates"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect telemetry and print the metrics table after checking",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "check files on N parallel workers via the batch service "
            "(plain checking only; --run stays sequential)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist per-file verdicts under DIR and skip re-checking "
            "unchanged files (shared with tlp-batch/tlp-aserve)"
        ),
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "stream structured trace events as JSON Lines to FILE "
            "(stderr when FILE is omitted)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "profile the run via the span stream and print the "
            "self/cumulative time table; with FILE, also write "
            "collapsed-stack lines (flamegraph.pl/speedscope input) there"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the run's telemetry as Prometheus text exposition to "
            "FILE after checking (implies telemetry collection)"
        ),
    )
    return parser


def _run_queries(module, max_answers: int, depth_limit: int) -> int:
    """Execute queries; returns the number of consistency violations."""
    assert module.checker is not None
    # For moded modules the directional checker judges resolvents, so
    # moded-but-not-strictly-well-typed resolvents are not false alarms.
    checker = module.moded_checker or module.checker
    runner = TypedRunner(checker, module.program)
    constrained: Optional[ConstrainedInterpreter] = None
    violations = 0
    for query in module.queries:
        print(f"?- {', '.join(pretty(g) for g in query.goals)}.")
        if any(g.functor == ":" and len(g.args) == 2 for g in query.goals):
            # Typed-unification query: the constrained interpreter
            # enforces the ``X : τ`` store at run time (Section 7).
            if constrained is None:
                constrained = ConstrainedInterpreter(
                    Database(module.program),
                    module.engine or SubtypeEngine(module.constraints),
                )
            c_result = constrained.run(
                query.goals, max_answers=max_answers, depth_limit=depth_limit
            )
            if not c_result.answers:
                _print_no_answer(c_result, depth_limit)
            for c_answer in c_result.answers:
                _print_answer(c_answer.substitution, query.goals, c_answer.residual)
            continue
        result = runner.run(
            query,
            max_answers=max_answers,
            depth_limit=depth_limit,
            abort_on_violation=False,
            check_answers=True,
        )
        if not result.answers:
            _print_no_answer(result, depth_limit)
        for answer in result.answers:
            _print_answer(answer, query.goals)
        if not result.ok:
            violations += len(result.violations) + len(result.answer_violations)
            print(f"   !! {len(result.violations)} resolvent consistency violations")
    return violations


def _typed_run_queries(path: str, module, arguments) -> int:
    """Execute queries via :class:`~repro.core.typed_run.TypedRunner`,
    asserting subject reduction per step.  Returns the number of aborted
    queries; each violation prints as a span-carrying TLP590 diagnostic
    anchored at the query's source position."""
    from .diagnostics import Diagnostic, Severity

    checker = module.moded_checker or module.checker
    if checker is None:
        return 0
    runner = TypedRunner(checker, module.program)
    aborted = 0
    for index, query in enumerate(module.queries):
        if _has_constraint_goal(query.goals):
            continue  # ':' queries live in the constrained execution model
        print(f"?- {', '.join(pretty(g) for g in query.goals)}.")
        result = runner.run(
            query,
            max_answers=arguments.max_answers,
            depth_limit=arguments.depth_limit,
        )
        if not result.answers:
            _print_no_answer(result, arguments.depth_limit)
        for answer in result.answers:
            _print_answer(answer, query.goals)
        if result.violation is not None:
            aborted += 1
            position = (
                module.query_positions[index]
                if index < len(module.query_positions)
                else None
            )
            diagnostic = Diagnostic(
                Severity.ERROR,
                result.violation.render(),
                position,
                code=TYPED_RUN_CODE,
            )
            print(f"{path}:{diagnostic}")
        else:
            print(
                f"   subject reduction held across {result.steps} "
                f"resolvent(s)."
            )
    return aborted


def no_answer_line(hit_depth_limit: bool, bound: str) -> str:
    """``no.`` for a query with no answer, unless the depth bound pruned
    the search: then the answer may lie beyond the bound, so name the
    bound (``bound`` is the caller's wording of it)."""
    if hit_depth_limit:
        return f"no answer within {bound}: the search was cut off."
    return "no."


def _print_no_answer(result, depth_limit: int) -> None:
    print("   " + no_answer_line(result.hit_depth_limit, f"--depth-limit {depth_limit}"))


def answer_bindings(answer) -> str:
    """An answer substitution as ``X = t, Y = u`` (by variable name), or
    ``yes.`` when it binds nothing."""
    if len(answer) == 0:
        return "yes."
    return ", ".join(
        f"{var} = {pretty(value)}"
        for var, value in sorted(answer.items(), key=lambda pair: pair[0].name)
    )


def stable_answer(message: str, goals) -> str:
    """``message`` (one answer with its residue) with generated variable
    names renumbered by first appearance, leaving the names written in
    the query ``goals`` alone: a query answers in the same bytes whatever
    the process ran before it."""
    written = {var.name for goal in goals for var in variables_of(goal)}
    return renumber_generated(message, written)


def _print_answer(answer, goals, residual=()) -> None:
    lines = [f"   {answer_bindings(answer)}"]
    lines.extend(f"     | {residue}" for residue in residual)
    print(stable_answer("\n".join(lines), goals))


def _has_constraint_goal(goals) -> bool:
    return any(g.functor == ":" and len(g.args) == 2 for g in goals)


def _audit_typing_witnesses(module) -> int:
    """Verify the module's Definition 16 witnesses through the subtype engine.

    Static checking alone only exercises ``match``; this re-derives each
    clause's committed typings and confirms every one is *respectful*
    (Definition 10) via actual ``τ ⪰_C tθ`` subtype goals, so ``--stats``
    reports genuine subtype-engine activity.  Returns the number of
    witnesses confirmed respectful.
    """
    checker = module.moded_checker or module.checker
    if checker is None or module.constraints is None:
        return 0
    # The frontend's shared engine arrives pre-warmed by the moded/mode
    # checking stages, so hot goals of the audit are memo hits.
    engine = module.engine or SubtypeEngine(module.constraints)
    reports = []
    with obs.METRICS.time("cli.witness_audit"), obs.TRACER.span("witness_audit"):
        for clause in module.program:
            if _has_constraint_goal(clause.body):
                continue
            reports.append(checker.check_clause(clause))
        for query in module.queries:
            if _has_constraint_goal(query.goals):
                continue
            reports.append(checker.check_query(query))
        respectful = 0
        for report in reports:
            for check in getattr(report, "atom_checks", []):
                if check.final_typing is None:
                    continue
                committed = (
                    check.eta.apply(check.working_type)
                    if check.eta is not None
                    else check.working_type
                )
                if _witness_respectful(engine, committed, check.atom, check.final_typing):
                    respectful += 1
                    obs.METRICS.inc("cli.respectful_witnesses")
                else:
                    obs.METRICS.inc("cli.unrespectful_witnesses")
    return respectful


def _witness_respectful(engine, committed, atom, typing) -> bool:
    """Definition 10 for an audited witness: ``τ̄ ⪰_C t̄θ``.

    A solved commitment η may leave some of its variables free (any
    instantiation works); those must stay *unfrozen* so the subtype
    engine can bind them — the bar operation applies only to variables
    of the typed atom, shared consistently across both sides.
    """
    if not variables_of(atom) <= typing.domain:
        return False
    typed_frozen, mapping = freeze_with_mapping(typing.apply(atom))
    committed_frozen = Substitution(mapping).apply(committed)
    return engine.holds(committed_frozen, typed_frozen)


def _expand_files(arguments) -> Optional[List[str]]:
    """Resolve file/directory arguments into a flat list of source files.

    Directories are walked recursively for ``*.tlp`` (sorted, so runs are
    deterministic).  Returns ``None`` after printing an error when a path
    is missing or a directory holds no programs.
    """
    from ..service.project import ProjectError, discover_tlp_files

    try:
        expanded = discover_tlp_files(arguments.files)
    except ProjectError as error:
        print(f"tlp-check: {error}", file=sys.stderr)
        return None
    if not expanded:
        print("tlp-check: no .tlp files found", file=sys.stderr)
        return None
    return [str(path) for path in expanded]


def _check_files_batched(arguments, files: List[str]) -> int:
    """Service-backed checking (``--jobs``/``--cache-dir``): same per-file
    lines as the sequential loop, plus cache replay and parallel workers."""
    from ..service.cache import ResultCache
    from ..service.project import Project, ProjectError, ProjectFile
    from ..service.runner import run_batch

    project = Project(name="tlp-check", root=Path("."))
    try:
        for path in files:
            project.files.append(ProjectFile.read(Path(path), display=path))
    except ProjectError as error:
        print(f"tlp-check: {error}", file=sys.stderr)
        return 2
    lint_config = None
    ruleset = ""
    if arguments.lint != "off":
        from ..analysis import LintConfig, ruleset_fingerprint

        lint_config = LintConfig()
        ruleset = ruleset_fingerprint(lint_config)
    cache = (
        ResultCache(arguments.cache_dir, ruleset=ruleset, infer=arguments.infer)
        if arguments.cache_dir
        else None
    )
    report = run_batch(
        project,
        cache=cache,
        jobs=arguments.jobs,
        lint=lint_config,
        infer=arguments.infer,
    )
    lint_errors = 0
    for result in report.results:
        for diagnostic in result.diagnostics:
            print(f"{result.display}:{diagnostic}")
        for finding in result.lint:
            print(f"{result.display}:{finding}")
            if "error[TLP" in finding:
                lint_errors += 1
        for line in result.inferred:
            print(f"{result.display}: inferred {line}")
        print(result.summary_line())
    if arguments.lint == "error" and lint_errors:
        return 1
    return report.exit_code


def _check_files(arguments) -> int:
    """The core loop: check (and optionally run) every file."""
    files = _expand_files(arguments)
    if files is None:
        return 2
    if (
        (arguments.jobs > 1 or arguments.cache_dir)
        and not arguments.run
        and not arguments.typed_run
    ):
        return _check_files_batched(arguments, files)
    multi = len(files) > 1
    exit_code = 0
    lint_config = None
    if arguments.lint != "off":
        from ..analysis import LintConfig

        lint_config = LintConfig()
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            print(f"{path}: cannot read: {error}", file=sys.stderr)
            return 2
        # Per-file span: ``--profile``/``--trace`` attribute everything a
        # file costs (check, lint, inference, query runs) to its path.
        with obs.TRACER.span("check_file", path):
            module = check_text(text)
            if len(module.diagnostics):
                for diagnostic in module.diagnostics:
                    print(f"{path}:{diagnostic}")
            if lint_config is not None:
                from ..analysis import lint_text

                lint_report = lint_text(text, path=path, config=lint_config)
                for finding in lint_report.diagnostics:
                    print(f"{path}:{finding}")
                if arguments.lint == "error" and lint_report.errors:
                    exit_code = 1
            if arguments.infer:
                from ..analysis.absint import infer_text

                inference = infer_text(text, path=path)
                if inference is not None:
                    for line in inference.declaration_lines():
                        print(f"{path}: inferred {line}")
            if module.ok:
                print(f"{path}: well-typed ({len(module.program)} clauses, "
                      f"{len(module.queries)} queries)")
                if arguments.stats:
                    witnesses = _audit_typing_witnesses(module)
                    print(
                        f"{path}: {witnesses} typing witnesses verified "
                        f"respectful"
                    )
                if arguments.run and not arguments.typed_run and module.queries:
                    violations = _run_queries(
                        module, arguments.max_answers, arguments.depth_limit
                    )
                    if violations:
                        exit_code = 1
            else:
                if multi:
                    print(
                        f"{path}: ill-typed "
                        f"({len(module.diagnostics)} diagnostics)"
                    )
                exit_code = 1
            # --typed-run executes whenever the pipeline built a checker
            # (restrictions held), even for statically rejected files:
            # the per-step re-check is the dynamic witness for the
            # static verdict, and an ill-moded program is expected to
            # abort at its first violating resolvent.
            if (
                arguments.typed_run
                and module.checker is not None
                and module.queries
            ):
                aborted = _typed_run_queries(path, module, arguments)
                if aborted:
                    exit_code = 1
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also installed as the ``tlp-check`` console script)."""
    parser = _build_argument_parser()
    arguments = parser.parse_args(argv)
    observed = (
        arguments.stats
        or arguments.trace is not None
        or arguments.profile is not None
        or arguments.metrics_out is not None
    )
    if not observed:
        return _check_files(arguments)

    # Observed run: enable telemetry (and tracing) for the duration,
    # restoring the process-wide obs state on the way out so library
    # callers of main() are unaffected.  Sinks detach and close via
    # ``TRACER.close_sinks()`` in the ``finally`` — a trace file is
    # flushed and complete on disk even when checking raises.
    was_enabled = obs.METRICS.enabled
    obs.reset()
    obs.METRICS.enabled = True
    profiler = None
    root = None
    try:
        if arguments.trace is not None:
            if arguments.trace == "-":
                obs.TRACER.add_sink(obs.JsonlSink(sys.stderr))
            else:
                try:
                    obs.trace_to_path(arguments.trace)
                except OSError as error:
                    print(
                        f"{arguments.trace}: cannot write trace: {error}",
                        file=sys.stderr,
                    )
                    return 2
        if arguments.profile is not None:
            profiler = obs.profile_spans()
            # One root span around the whole run: per-file spans (and
            # any gaps between them) partition it, so the profile's
            # self times always sum to the profiled wall time.
            root = obs.TRACER.begin()
        exit_code = _check_files(arguments)
        if arguments.stats:
            obs.publish_runtime_gauges()
            print()
            print(obs.render_summary())
            for line in obs.runtime_stats_lines():
                print(line)
        if profiler is not None and root is not None:
            obs.TRACER.end(root, obs.PhaseEvent, name="tlp_check")
            root = None
            report = profiler.report()
            print()
            print(report.render_table())
            print(
                f"profile: spans={report.span_count} "
                f"wall_s={report.wall_s:.6f} "
                f"self_total_s={report.total_self_s:.6f} "
                f"coverage={report.coverage:.3f}"
            )
            if arguments.profile != "-":
                try:
                    with open(
                        arguments.profile, "w", encoding="utf-8"
                    ) as handle:
                        for line in report.collapsed_lines():
                            handle.write(line + "\n")
                except OSError as error:
                    print(
                        f"{arguments.profile}: cannot write profile: "
                        f"{error}",
                        file=sys.stderr,
                    )
                    return 2
        if arguments.metrics_out is not None:
            obs.publish_runtime_gauges()
            try:
                with open(
                    arguments.metrics_out, "w", encoding="utf-8"
                ) as handle:
                    handle.write(obs.prometheus_text())
            except OSError as error:
                print(
                    f"{arguments.metrics_out}: cannot write metrics: "
                    f"{error}",
                    file=sys.stderr,
                )
                return 2
        return exit_code
    finally:
        if root is not None:  # checking raised mid-profile
            obs.TRACER.end(root, obs.PhaseEvent, name="tlp_check")
        obs.TRACER.close_sinks()
        obs.METRICS.enabled = was_enabled


if __name__ == "__main__":
    sys.exit(main())
