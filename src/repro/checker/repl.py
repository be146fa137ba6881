"""An interactive typed-Prolog REPL.

Loads a declaration file and answers queries under the type discipline:
every query is checked (Definition 16, with the directional fallback when
the file declares modes) before it is executed, and execution re-checks
every resolvent (Theorem 6 observation).  Meta-commands expose the type
system itself:

* ``app(X, Y, cons(nil,nil)).`` — run a (type-checked) query;
* ``:sub τ1 >= τ2`` — ask the deterministic subtype engine;
* ``:member τ term`` — ground-term membership ``t ∈ M[τ]``;
* ``:types term`` — which declared constructors can type a ground term;
* ``:why goal, goal...`` — explain a query's well-typedness check
  (per-atom typings, commitments, or the rejection reason);
* ``:lint`` — run the ``tlp-lint`` static analyzer over the loaded
  source (stable TLPxxx codes, fix-it suggestions);
* ``:stats [on|off|reset]`` — toggle/inspect ``repro.obs`` telemetry for
  the session (subtype goals, match calls, SLD steps, timers);
* ``:help`` / ``:quit``.

Run:  python -m repro.checker.repl examples/programs/append.tlp
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Optional

from .. import obs
from ..core.subtype import SubtypeEngine
from ..core.typed_run import TypedRunner
from ..lang.lexer import LexError
from ..lang.parser import ParseError, parse_query, parse_term, syntax_error_site
from ..lp.clause import Query
from ..terms.pretty import pretty
from ..terms.term import Struct, fresh_variable, is_ground
from .cli import answer_bindings, no_answer_line, stable_answer
from .frontend import CheckedModule, check_text

__all__ = ["Repl", "run_session", "main"]

_HELP = """commands:
  <goal>, <goal>... .      run a type-checked query
  :sub  T1 >= T2           subtype test (deterministic engine)
  :member  T  TERM         ground-term membership t in M[T]
  :types  TERM             declared constructors able to type a ground term
  :why  <goal>, ...        explain the query's well-typedness check
  :lint [CODE,...]         run the static analyzer (optionally disabling rules)
  :modes                   declared modes + per-clause well-modedness verdicts
  :infer                   inferred success sets + reconstructed PRED lines
  :solve                   polymorphic subtype-constraint graphs, solved
  :stats [on|off|reset]    telemetry: show the metrics table / toggle / zero
  :profile [on|off|reset]  span profiler: show self/cumulative table / toggle
  :help                    this message
  :quit                    leave"""

#: Depth bound of a constrained query: constraints can prune every answer
#: of an infinite search, so the interactive budget is kept modest.
CONSTRAINED_DEPTH_LIMIT = 300


class Repl:
    """One loaded module plus the machinery to answer queries about it."""

    def __init__(
        self,
        module: CheckedModule,
        max_answers: int = 10,
        source_text: Optional[str] = None,
    ) -> None:
        if not module.ok:
            raise ValueError(
                f"module has errors:\n{module.diagnostics.render()}"
            )
        self.module = module
        self.max_answers = max_answers
        #: Original source text, kept for the ``:lint`` meta-command.
        self.source_text = source_text
        checker = module.moded_checker or module.checker
        self.runner = TypedRunner(checker, module.program)
        self.engine = SubtypeEngine(module.constraints)
        #: Span profiler attached while ``:profile on`` is active.
        self.profiler: Optional[obs.SpanProfiler] = None

    # -- command dispatch ---------------------------------------------------------

    def execute(self, line: str) -> List[str]:
        """Process one input line; returns the output lines."""
        line = line.strip()
        if not line or line.startswith("%"):
            return []
        if line.startswith(":") and not line.startswith(":-"):
            return self._meta(line)
        return self._query(line)

    def _meta(self, line: str) -> List[str]:
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command in (":quit", ":q", ":exit"):
            raise EOFError
        if command in (":help", ":h", ":?"):
            return _HELP.splitlines()
        if command == ":sub":
            return self._subtype(rest)
        if command == ":member":
            return self._member(rest)
        if command == ":types":
            return self._types(rest)
        if command == ":why":
            return self._why(rest)
        if command == ":lint":
            return self._lint(rest)
        if command == ":modes":
            return self._modes(rest)
        if command == ":infer":
            return self._infer(rest)
        if command == ":solve":
            return self._solve(rest)
        if command == ":stats":
            return self._stats(rest)
        if command == ":profile":
            return self._profile(rest)
        return [f"unknown command {command!r} — try :help"]

    def _lint(self, rest: str) -> List[str]:
        if self.source_text is None:
            return ["no source text available to lint"]
        from ..analysis import LintConfig, lint_text

        try:
            config = LintConfig.from_spec(disable=rest)
        except ValueError as error:
            return [str(error)]
        report = lint_text(self.source_text, config=config)
        if not report.diagnostics:
            return ["clean: no lint findings"]
        out: List[str] = []
        for diagnostic in report.diagnostics:
            out.append(str(diagnostic))
            for fixit in diagnostic.fixits:
                out.append(f"    fix: {fixit.description}")
        out.append(
            f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        )
        return out

    def _modes(self, rest: str) -> List[str]:
        """``:modes``: the Section 7 mode environment plus each clause's
        moded-well-typedness verdict (strict or directional)."""
        if rest:
            return ["usage: :modes (no arguments)"]
        modes = self.module.modes
        if modes is None or not len(modes):
            return [
                "no MODE declarations in the loaded module "
                "(strict Definition 16 applies everywhere)"
            ]
        from ..lang.render import render_modes

        out = render_modes(modes).splitlines()
        if self.module.moded_checker is None:
            return out
        out.append("")
        # The verdicts the frontend reached when it loaded the module.
        for clause, verdict in zip(self.module.program, self.module.clause_verdicts):
            if verdict is None:
                out.append(f"{clause}  --  constrained (checked dynamically)")
            elif verdict.well_typed:
                out.append(f"{clause}  --  well-moded via {verdict.via}")
            else:
                out.append(f"{clause}  --  NOT well-moded: {verdict.reason}")
        return out

    def _infer(self, rest: str) -> List[str]:
        if rest:
            return ["usage: :infer (no arguments)"]
        if self.source_text is None:
            return ["no source text available to analyze"]
        from ..analysis.absint import infer_text

        inference = infer_text(self.source_text)
        if inference is None:
            return [
                "inference unavailable: the file does not parse or its "
                "constraint set falls outside the uniform + guarded fragment"
            ]
        out: List[str] = []
        for indicator in sorted(inference.success):
            out.extend(inference.success[indicator].render())
        declarations = inference.declaration_lines()
        if declarations:
            out.append("reconstructed declarations:")
            out.extend(f"  {line}" for line in declarations)
        return out or ["no predicates to analyze"]

    def _solve(self, rest: str) -> List[str]:
        """``:solve``: render the TLP6xx solver's constraint graphs — per
        polymorphic/built-in clause or query, the solved type-variable
        domains and any unsatisfiability witnesses."""
        if rest:
            return ["usage: :solve (no arguments)"]
        if self.source_text is None:
            return ["no source text available to analyze"]
        from ..analysis.polytypes import solve_text

        solved = solve_text(self.source_text)
        if solved is None:
            return [
                "nothing to solve: no polymorphic declarations or built-in "
                "constraint goals in the loaded module"
            ]
        out = ["candidate ground types: " + ", ".join(solved["candidates"])]
        for item in solved["items"]:
            verdict = "satisfiable" if item["satisfiable"] else "UNSATISFIABLE"
            out.append(f"{item['item']}  --  {verdict}")
            for node in item["nodes"]:
                kind = "type var" if node["rigid"] else "var"
                domain = ", ".join(node["domain"]) or "(empty)"
                out.append(f"  {kind} {node['display']}: {{{domain}}}")
            for group in item["equalities"]:
                out.append("  forced equal: " + " = ".join(group))
            for witness in item["witnesses"]:
                source = " (built-in signature involved)" if witness["builtin"] else ""
                out.append(f"  witness on {witness['node']}{source}:")
                for bound in witness["bounds"]:
                    out.append(f"    {bound}")
        return out

    def _stats(self, rest: str) -> List[str]:
        if rest == "on":
            obs.METRICS.enabled = True
            return ["telemetry on"]
        if rest == "off":
            obs.METRICS.enabled = False
            return ["telemetry off"]
        if rest == "reset":
            obs.METRICS.reset()
            return ["telemetry counters zeroed"]
        if rest:
            return ["usage: :stats [on|off|reset]"]
        state = "on" if obs.METRICS.enabled else "off (`:stats on` to enable)"
        return (
            [f"telemetry {state}"]
            + obs.render_summary().splitlines()
            + obs.runtime_stats_lines()
        )

    def _profile(self, rest: str) -> List[str]:
        """``:profile``: span-level self/cumulative times of REPL queries.

        ``on`` attaches a :class:`~repro.obs.SpanProfiler` to the tracer
        (queries then emit ``typed_run``/``match_call``/``subtype_goal``
        spans); bare ``:profile`` renders the aggregated table; ``reset``
        drops collected spans; ``off`` detaches.
        """
        if rest == "on":
            if self.profiler is not None:
                return ["profiler already on"]
            self.profiler = obs.profile_spans()
            return ["profiler on — run queries, then :profile for the table"]
        if rest == "off":
            if self.profiler is None:
                return ["profiler is not on"]
            obs.TRACER.remove_sink(self.profiler)
            self.profiler = None
            return ["profiler off"]
        if rest == "reset":
            if self.profiler is None:
                return ["profiler is not on"]
            self.profiler.clear()
            return ["profiler spans dropped"]
        if rest:
            return ["usage: :profile [on|off|reset]"]
        if self.profiler is None:
            return ["profiler off (`:profile on` to enable)"]
        return self.profiler.report().render_table().splitlines()

    def _why(self, rest: str) -> List[str]:
        parsed, errors = self._parse_query(rest)
        if parsed is None:
            return errors
        checker = self.module.moded_checker or self.module.checker
        report = checker.check_query(Query(parsed.body))
        explain = getattr(report, "explain", None)
        if explain is not None:
            return explain().splitlines()
        verdict = "well-typed" if report.well_typed else f"NOT well-typed: {report.reason}"
        return [verdict]

    # -- queries ---------------------------------------------------------------------

    def _parse_query(self, line: str):
        """Parse a typed line as a query (``:-`` and the final ``.`` are
        optional); a syntax error's column counts in ``line`` itself."""
        prefix = "" if line.startswith(":-") else ":- "
        text = prefix + line
        if not text.rstrip().endswith("."):
            text += "."
        try:
            return parse_query(text), None
        except (ParseError, LexError) as error:
            message, position = syntax_error_site(error)
            column = position.column
            if position.line == 1:
                column -= len(prefix)
            return None, [f"syntax error: {position.line}:{column}: {message}"]

    def _query(self, line: str) -> List[str]:
        parsed, errors = self._parse_query(line)
        if parsed is None:
            return errors
        if any(g.functor == ":" and len(g.args) == 2 for g in parsed.body):
            return self._constrained_query(parsed.body)
        query = Query(parsed.body)
        checker = self.module.moded_checker or self.module.checker
        report = checker.check_query(query)
        if not report.well_typed:
            return [f"ill-typed query: {report.reason}"]
        result = self.runner.run(
            query,
            max_answers=self.max_answers,
            abort_on_violation=False,
            check_answers=True,
        )
        out: List[str] = []
        if not result.answers:
            out.append("no.")
        for answer in result.answers:
            out.append(stable_answer(answer_bindings(answer), query.goals))
        if not result.ok:
            out.append(
                f"!! {len(result.violations)} resolvent consistency violations"
            )
        return out

    def _constrained_query(self, goals) -> List[str]:
        """Run a typed-unification query (Section 7): ``X : τ`` goals are
        enforced by the constraint store, not Definition 16."""
        from ..lp.constrained import ConstrainedInterpreter
        from ..lp.database import Database

        interpreter = ConstrainedInterpreter(
            Database(self.module.program), self.engine
        )
        result = interpreter.run(
            goals, max_answers=self.max_answers, depth_limit=CONSTRAINED_DEPTH_LIMIT
        )
        out: List[str] = []
        if not result.answers:
            out.append(
                no_answer_line(
                    result.hit_depth_limit, f"depth limit {CONSTRAINED_DEPTH_LIMIT}"
                )
            )
        for answer in result.answers:
            line = answer_bindings(answer.substitution)
            if answer.residual:
                line += "   | " + ", ".join(str(c) for c in answer.residual)
            out.append(stable_answer(line, goals))
        return out

    # -- type-system meta-commands -------------------------------------------------------

    def _parse_term(self, text: str):
        try:
            return parse_term(text), None
        except (ParseError, LexError) as error:
            return None, [f"syntax error: {error}"]

    def _subtype(self, rest: str) -> List[str]:
        left, sep, right = rest.partition(">=")
        if not sep:
            return ["usage: :sub T1 >= T2"]
        sup, errors = self._parse_term(left.strip())
        if errors:
            return errors
        sub, errors = self._parse_term(right.strip())
        if errors:
            return errors
        verdict = self.engine.holds(sup, sub)
        return [f"{pretty(sup)} >= {pretty(sub)}: {'yes' if verdict else 'no'}"]

    def _member(self, rest: str) -> List[str]:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            return ["usage: :member T TERM"]
        type_term, errors = self._parse_term(parts[0])
        if errors:
            return errors
        term, errors = self._parse_term(parts[1])
        if errors:
            return errors
        if not is_ground(term):
            return ["membership needs a ground term"]
        verdict = self.engine.contains(type_term, term)
        return [f"{pretty(term)} in M[{pretty(type_term)}]: {'yes' if verdict else 'no'}"]

    def _types(self, rest: str) -> List[str]:
        term, errors = self._parse_term(rest)
        if errors:
            return errors
        if term is None or not is_ground(term):
            return ["usage: :types GROUND-TERM"]
        symbols = self.module.constraints.symbols
        found: List[str] = []
        for name, arity in symbols.type_constructors.items():
            candidate = Struct(name, tuple(fresh_variable("_R") for _ in range(arity)))
            if self.engine.holds(candidate, term):
                found.append(pretty(candidate) if arity == 0 else f"{name}(...)")
        if not found:
            return [f"no declared constructor types {pretty(term)}"]
        return [f"{pretty(term)} : " + ", ".join(found)]


def run_session(source_text: str, commands: Iterable[str]) -> List[str]:
    """Non-interactive session driver (used by the tests): check the
    source, feed each command, collect all output lines."""
    module = check_text(source_text)
    repl = Repl(module, source_text=source_text)
    out: List[str] = []
    for command in commands:
        try:
            out.extend(repl.execute(command))
        except EOFError:
            break
    return out


def main(argv: Optional[List[str]] = None) -> int:
    """Interactive entry point: ``python -m repro.checker.repl file.tlp``."""
    arguments = argv if argv is not None else sys.argv[1:]
    if len(arguments) != 1:
        print("usage: python -m repro.checker.repl FILE", file=sys.stderr)
        return 2
    with open(arguments[0], "r", encoding="utf-8") as handle:
        source_text = handle.read()
    module = check_text(source_text)
    if not module.ok:
        print(module.diagnostics.render(), file=sys.stderr)
        return 1
    repl = Repl(module, source_text=source_text)
    print(f"loaded {arguments[0]} ({len(module.program)} clauses); :help for help")
    while True:
        try:
            line = input("?- ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            for output in repl.execute(line):
                print(output)
        except EOFError:
            return 0


if __name__ == "__main__":
    sys.exit(main())
