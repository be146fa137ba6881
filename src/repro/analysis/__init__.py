"""repro.analysis — ``tlp-lint``, the multi-pass static analyzer.

The paper's guarantees hold only under side conditions (uniform
polymorphism, guardedness, inhabited declared types, sub→super
information flow) that are themselves computable static analyses.  This
package runs them as a rule registry **before** the type checker:

* every pass is a :class:`~repro.analysis.registry.Rule` with a stable
  ``TLP1xx/2xx/3xx`` code, a default severity, and the paper section it
  enforces;
* findings are ordinary :class:`~repro.checker.diagnostics.Diagnostic`
  objects — code, severity, source *span* (start and end), and
  machine-applicable :class:`~repro.checker.diagnostics.FixIt`
  suggestions;
* :func:`to_sarif` renders findings as SARIF 2.1.0 for CI upload;
* the registry's :meth:`~repro.analysis.registry.RuleRegistry.fingerprint`
  identifies the enabled rule set — the batch service folds it into its
  result-cache keys so reconfiguring the linter invalidates exactly the
  affected verdicts.

Quick use::

    from repro.analysis import lint_text

    report = lint_text(open("prog.tlp").read(), path="prog.tlp")
    for diagnostic in report.diagnostics:
        print(f"prog.tlp:{diagnostic}")

Telemetry (``repro.obs``): each run times ``analysis.lint`` and bumps
``analysis.files``; every finding bumps ``analysis.rule.<CODE>`` —
enabled-rule activity shows up in the same ``--stats`` table as the
subtype engine and the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..checker.diagnostics import Diagnostic, DiagnosticBag, Severity
from ..lang.ast import SourceFile
from ..lang.lexer import LexError
from ..lang.parser import ParseError, parse_file, syntax_error_site
from ..obs import METRICS
from .context import LintContext
from .registry import (
    ANALYZER_VERSION,
    SYNTAX_ERROR_CODE,
    LintConfig,
    Rule,
    RuleRegistry,
    default_registry,
)
from .sarif import SARIF_SCHEMA_URI, SARIF_VERSION, to_sarif

# Importing the rule modules registers their rules (in code order at
# selection time, so import order is irrelevant).
from . import constraints as _constraints  # noqa: F401  (registration)
from . import clauses as _clauses  # noqa: F401  (registration)
from . import flow as _flow  # noqa: F401  (registration)
from . import modes as _modes  # noqa: F401  (registration)
from .absint import rules as _absint_rules  # noqa: F401  (registration)
from .polytypes import rules as _polytypes_rules  # noqa: F401  (registration)

__all__ = [
    "ANALYZER_VERSION",
    "SYNTAX_ERROR_CODE",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "LintConfig",
    "LintReport",
    "Rule",
    "RuleRegistry",
    "default_registry",
    "lint_source",
    "lint_text",
    "ruleset_fingerprint",
    "to_sarif",
]


@dataclass
class LintReport:
    """Everything one lint run produced for one file."""

    path: str = "<text>"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True iff no error-severity findings."""
        return not self.errors

    def render(self) -> str:
        return "\n".join(str(d) for d in self.diagnostics)


def ruleset_fingerprint(
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> str:
    """The enabled rule set's stable digest (for cache keys)."""
    return (registry or default_registry()).fingerprint(config or LintConfig())


def lint_source(
    source: SourceFile,
    path: str = "<text>",
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> LintReport:
    """Run every enabled rule over a parsed source file."""
    registry = registry or default_registry()
    config = config or LintConfig()
    report = LintReport(path=path, fingerprint=registry.fingerprint(config))
    with METRICS.time("analysis.lint"):
        ctx = LintContext.build(source, path=path)
        for rule in registry.selected(config):
            before = len(ctx.bag)
            # Rebind the check function's rule so severity overrides
            # apply to findings reported through ``check._rule``.
            rule.check._rule = rule
            with METRICS.time(f"analysis.pass.{rule.code}"):
                rule.check(ctx)
            fired = len(ctx.bag) - before
            if fired and METRICS.enabled:
                METRICS.inc(f"analysis.rule.{rule.code}", fired)
    if METRICS.enabled:
        METRICS.inc("analysis.files")
        if ctx.bag.has_errors:
            METRICS.inc("analysis.files_with_errors")
    report.diagnostics = list(ctx.bag)
    return report


def lint_text(
    text: str,
    path: str = "<text>",
    config: Optional[LintConfig] = None,
    registry: Optional[RuleRegistry] = None,
) -> LintReport:
    """Parse and lint ``text``; syntax errors become ``TLP001`` findings."""
    registry = registry or default_registry()
    config = config or LintConfig()
    try:
        with METRICS.time("analysis.parse"):
            source = parse_file(text)
    except (ParseError, LexError) as error:
        report = LintReport(path=path, fingerprint=registry.fingerprint(config))
        message, position = syntax_error_site(error)
        bag = DiagnosticBag()
        bag.error(message, position, code=SYNTAX_ERROR_CODE)
        report.diagnostics = list(bag)
        if METRICS.enabled:
            METRICS.inc(f"analysis.rule.{SYNTAX_ERROR_CODE}")
            METRICS.inc("analysis.files")
            METRICS.inc("analysis.files_with_errors")
        return report
    return lint_source(source, path=path, config=config, registry=registry)
