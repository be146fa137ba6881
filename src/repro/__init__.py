"""repro — Type Declarations as Subtype Constraints in Logic Programming.

A complete implementation of the prescriptive type system of Dean Jacobs
(PLDI 1990): name-based subtyping via subtype constraints, the Horn-theory
semantics of ``>=``, the deterministic derivation strategy, the ``match``
function, well-typedness checking of logic programs, typed execution, and
the Section 7 extensions (modes, filters).

Quickstart::

    from repro import check_text, TypedRunner

    module = check_text('''
        FUNC nil, cons.
        TYPE elist, nelist, list.
        elist >= nil.
        nelist(A) >= cons(A,list(A)).
        list(A) >= elist + nelist(A).
        PRED app(list(A),list(A),list(A)).
        app(nil,L,L).
        app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
        :- app(cons(nil,nil), nil, X).
    ''')
    assert module.ok
    runner = TypedRunner(module.checker, module.program)
    result = runner.run(module.queries[0])
    print(result.answers)   # X = cons(nil, nil); every resolvent re-checked

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from . import obs
from .checker import CheckedModule, check_source, check_text
from .core import (
    ConstraintSet,
    DeclarationError,
    MATCH_BOTTOM,
    MATCH_FAIL,
    Matcher,
    ModeChecker,
    ModeEnv,
    NaiveSubtypeProver,
    PredicateTypeEnv,
    RestrictionViolation,
    SubtypeConstraint,
    SubtypeEngine,
    SymbolTable,
    TypedRunner,
    TypeSemantics,
    WellTypedChecker,
    deep_filter,
    shallow_filter,
)
from .lang import parse_atom, parse_clause, parse_file, parse_query, parse_term, parse_type
from .lp import (
    Clause,
    ConstrainedInterpreter,
    Database,
    Program,
    Query,
    SLDEngine,
)
from .terms import Struct, Substitution, Term, Var, freeze, mgu, pretty, unify

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # terms
    "Var",
    "Struct",
    "Term",
    "Substitution",
    "unify",
    "mgu",
    "freeze",
    "pretty",
    # language
    "parse_term",
    "parse_type",
    "parse_atom",
    "parse_clause",
    "parse_query",
    "parse_file",
    # logic programming
    "Clause",
    "Query",
    "Program",
    "Database",
    "SLDEngine",
    "ConstrainedInterpreter",
    # type system
    "SymbolTable",
    "SubtypeConstraint",
    "ConstraintSet",
    "DeclarationError",
    "RestrictionViolation",
    "SubtypeEngine",
    "NaiveSubtypeProver",
    "TypeSemantics",
    "Matcher",
    "MATCH_FAIL",
    "MATCH_BOTTOM",
    "PredicateTypeEnv",
    "WellTypedChecker",
    "TypedRunner",
    "ModeEnv",
    "ModeChecker",
    "shallow_filter",
    "deep_filter",
    # frontend
    "check_text",
    "check_source",
    "CheckedModule",
]
