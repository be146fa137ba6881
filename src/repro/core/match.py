"""The ``match`` function (Definition 13, Theorems 4–5).

``match(τ, t)`` computes a most general *respectful* typing for the
variables of ``t`` under ``τ``, or reports that none exists (``fail``) or
that it cannot tell (``⊥``).  It is the basis of the well-typedness
conditions of Section 6.  The four defining clauses, transcribed:

1. ``match(τ, x) = {x ↦ τ}`` — a variable takes the whole type.
2. ``match(x, f(t1,...,tn)) = ⊥`` — a bare type variable against a
   compound term: the most general typing exists but is not respectful,
   so the answer is "don't know".
3. ``match(g(τ1,...,τn), f(t1,...,tm))`` with ``g ∈ F``:
   ``fail`` on a symbol clash, ``{}`` for matching constants, otherwise
   match componentwise; ``fail`` dominates, then ``⊥``/disagreement,
   otherwise the union of the component typings.
4. ``match(c(τ1,...,τn), f(t1,...,tm))`` with ``c ∈ T``: compute the
   *set* ``S`` of results over all one-step expansions ``c(…) →_C σ``;
   ``S = {fail}`` gives ``fail``; a unique non-fail result gives that
   result; anything else gives ``⊥``.

Note the set semantics in clause 4: two constraints producing the *same*
typing collapse to one element, while genuinely different typings (the
paper's ``match(f(int)+f(list(A)), f(X))`` example) yield ``⊥`` because
neither is most general.  An empty ``S`` (a constructor with no
constraints) also yields ``⊥`` by the letter of the definition — the
definition's ``else`` branch — even though ``fail`` would be sound; we
follow the paper.

Preconditions: the constraint set must be uniform polymorphic and guarded;
Theorem 5's termination argument (and clause 4's direct-substitution
expansion) depend on both.  The :class:`Matcher` validates this once at
construction.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

from ..obs import METRICS, TRACER, CacheProbeEvent, MatchCallEvent
from ..terms.pretty import pretty
from ..terms.substitution import EMPTY_SUBSTITUTION, Substitution
from ..terms.term import Struct, Term, Var
from .automata import AUTOMATA
from .declarations import ConstraintSet
from .recursion import ensure_recursion_capacity
from .restrictions import validate_restrictions
from .typing import agreeing_union

__all__ = [
    "MATCH_FAIL",
    "MATCH_BOTTOM",
    "MEMO_LIMIT",
    "MatchResult",
    "Matcher",
    "is_typing_result",
]

MEMO_LIMIT = 1 << 15
"""Entries a matcher memo holds before it is cleared wholesale.

Both :class:`Matcher` and the Section 7 ``ConstraintMatcher`` memoize on
``(τ, t)`` pairs.  SLD renaming mints new variable names on every
resolution step, so a long-lived matcher (REPL, server, typed run) keeps
seeing new keys; past this size the memo is emptied, like the automata
caches, rather than growing without bound."""


def remember(memo: Dict, key: object, value: object) -> None:
    """Store ``memo[key] = value``, clearing ``memo`` first when it is full."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value


class _MatchFail:
    """Singleton: no typing exists (Theorem 4.2 guarantees this claim)."""

    _instance: Optional["_MatchFail"] = None

    def __new__(cls) -> "_MatchFail":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "fail"


class _MatchBottom:
    """Singleton: ``match`` cannot produce a verdict (the paper's ``⊥``)."""

    _instance: Optional["_MatchBottom"] = None

    def __new__(cls) -> "_MatchBottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


MATCH_FAIL = _MatchFail()
MATCH_BOTTOM = _MatchBottom()

MatchResult = Union[Substitution, _MatchFail, _MatchBottom]


def is_typing_result(result: MatchResult) -> bool:
    """True iff ``result`` is an actual typing (not ``fail`` / ``⊥``)."""
    return isinstance(result, Substitution)


class Matcher:
    """``match`` over a fixed uniform, guarded constraint set."""

    def __init__(
        self,
        constraints: ConstraintSet,
        validate: bool = True,
        memoize: bool = True,
        automata: bool = True,
    ) -> None:
        if validate:
            validate_restrictions(constraints)
        self.constraints = constraints
        self.symbols = constraints.symbols
        self.memoize = memoize
        self._memo: Dict[Tuple[Term, Term], MatchResult] = {}
        #: Compiled tree automaton: ground (τ, t) pairs — where a typing
        #: is necessarily empty — are answered by its three-valued table
        #: walk; everything else keeps the clause-by-clause evaluation.
        self._automaton = AUTOMATA.automaton_for(constraints) if automata else None

    def match(self, type_term: Term, term: Term) -> MatchResult:
        """``match(τ, t)`` per Definition 13."""
        ensure_recursion_capacity(type_term, term)
        if METRICS.enabled or TRACER.enabled:
            return self._match_observed(type_term, term)
        return self._match(type_term, term)

    def _match_observed(self, type_term: Term, term: Term) -> MatchResult:
        """Telemetry wrapper around one public ``match`` call."""
        handle = TRACER.begin() if TRACER.enabled else None
        start = time.perf_counter()
        result = self._match(type_term, term)
        elapsed = time.perf_counter() - start
        if result is MATCH_FAIL:
            outcome = "fail"
        elif result is MATCH_BOTTOM:
            outcome = "bottom"
        else:
            outcome = "typing"
        if METRICS.enabled:
            METRICS.inc("match.calls")
            METRICS.inc(f"match.{outcome}")
            METRICS.observe("match.match", elapsed)
        if handle is not None:
            TRACER.end(
                handle,
                MatchCallEvent,
                matcher="plain",
                type_term=pretty(type_term),
                term=pretty(term),
                outcome=outcome,
                typed_variables=len(result) if isinstance(result, Substitution) else 0,
            )
        return result

    def _match(self, type_term: Term, term: Term) -> MatchResult:
        # Clause 1: a variable term takes the whole type.
        if isinstance(term, Var):
            return Substitution({term: type_term})
        # Clause 2: a type variable against a compound term.
        if isinstance(type_term, Var):
            return MATCH_BOTTOM
        if self.memoize:
            key = (type_term, term)
            cached = self._memo.get(key)
            if TRACER.enabled:
                TRACER.point(
                    CacheProbeEvent, cache="match.memo", hit=cached is not None
                )
            if cached is None:
                cached = self._match_resolved(type_term, term)
                remember(self._memo, key, cached)
            return cached
        return self._match_resolved(type_term, term)

    def _match_resolved(self, type_term: Struct, term: Struct) -> MatchResult:
        """Dispatch a struct/struct pair: automaton table walk when both
        sides are ground (a respectful typing of a ground term is the
        empty substitution, so only the verdict needs computing), else
        the clause 3/4 evaluation."""
        automaton = self._automaton
        if automaton is not None and type_term.ground and term.ground:
            verdict = automaton.match_ground(type_term, term)
            if METRICS.enabled:
                METRICS.inc("subtype.automaton.match_hits")
            if verdict == "typing":
                return EMPTY_SUBSTITUTION
            return MATCH_FAIL if verdict == "fail" else MATCH_BOTTOM
        return self._match_struct(type_term, term)

    def _match_struct(self, type_term: Struct, term: Struct) -> MatchResult:
        if self.symbols.is_type_constructor(type_term.functor):
            return self._match_constructor(type_term, term)
        return self._match_function(type_term, term)

    def _match_function(self, type_term: Struct, term: Struct) -> MatchResult:
        """Clause 3: the type is headed by a function symbol ``g ∈ F``."""
        if type_term.functor != term.functor or len(type_term.args) != len(term.args):
            return MATCH_FAIL
        if not type_term.args:
            return Substitution()
        results = [self._match(tau, t) for tau, t in zip(type_term.args, term.args)]
        if any(r is MATCH_FAIL for r in results):
            return MATCH_FAIL
        if any(r is MATCH_BOTTOM for r in results):
            return MATCH_BOTTOM
        union = agreeing_union(results)  # type: ignore[arg-type]
        if union is None:
            return MATCH_BOTTOM
        return Substitution(union)

    def _match_constructor(self, type_term: Struct, term: Struct) -> MatchResult:
        """Clause 4: the type is headed by a type constructor ``c ∈ T``."""
        outcomes: List[MatchResult] = []
        for expansion in self.constraints.expansions(type_term):
            if METRICS.enabled:
                METRICS.inc("match.constraint_expansions")
            result = self._match(expansion, term)
            if result not in outcomes:
                outcomes.append(result)
        if outcomes == [MATCH_FAIL]:
            return MATCH_FAIL
        non_fail = [r for r in outcomes if r is not MATCH_FAIL]
        if len(non_fail) == 1 and len(outcomes) <= 2:
            return non_fail[0]
        return MATCH_BOTTOM
