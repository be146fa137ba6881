"""The paper's type system: declarations, subtyping, match, well-typedness."""

from .builtins import (
    BUILTIN_MODES,
    BUILTIN_PREDICATES,
    builtin_heads,
    is_builtin_goal,
    is_builtin_indicator,
    numeric_type_name,
    uses_builtin_goals,
)
from .constraint_match import ConstraintMatcher, ConstraintMatchResult, ShapeEquation
from .declarations import (
    ConstraintSet,
    DeclarationError,
    SubtypeConstraint,
    SymbolKind,
    SymbolTable,
    UNION_CONSTRAINTS,
)
from .derivation import Derivation, DerivationBuilder, DerivationStep, verify_derivation
from .filtering import FilterDefinition, constructor_shapes, deep_filter, shallow_filter
from .fixpoint import LeastModel, expansion_closed_universe
from .horn import SUBTYPE_PREDICATE, horn_program, subtype_goal
from .infer import CommonTypeInference
from .match import MATCH_BOTTOM, MATCH_FAIL, Matcher, MatchResult, is_typing_result
from .moded_welltyped import ModedClauseReport, ModedWellTypedChecker
from .modes import IN, OUT, ModeChecker, ModeEnv, ModeReport, ModeViolation
from .predicate_types import PredicateTypeEnv
from .restrictions import (
    DependenceGraph,
    RestrictionViolation,
    direct_dependence_graph,
    is_guarded,
    is_uniform_polymorphic,
    non_uniform_constraints,
    unguarded_constructors,
    validate_restrictions,
)
from .semantics import GeneralTypeSemantics, TypeSemantics, herbrand_universe
from .subtype import SubtypeEngine, SubtypeStats
from .subtype_sld import NaiveSubtypeProver, NaiveVerdict
from .typed_run import (
    TYPED_RUN_CODE,
    SubjectReductionViolation,
    TypedRunResult,
    TypedRunner,
)
from .typing import (
    agreeing_union,
    in_agreement,
    is_respectful_typing,
    is_typing,
    merge_typings,
    more_general_typing,
)
from .welltyped import (
    AtomCheck,
    ClauseReport,
    ClauseTyping,
    ProgramReport,
    ResolventTyping,
    WellTypedChecker,
)

__all__ = [
    # built-in constraint predicates (typed-CLP extension)
    "BUILTIN_MODES",
    "BUILTIN_PREDICATES",
    "builtin_heads",
    "is_builtin_goal",
    "is_builtin_indicator",
    "numeric_type_name",
    "uses_builtin_goals",
    # declarations
    "SymbolTable",
    "SymbolKind",
    "SubtypeConstraint",
    "ConstraintSet",
    "DeclarationError",
    "UNION_CONSTRAINTS",
    # horn / provers
    "SUBTYPE_PREDICATE",
    "horn_program",
    "subtype_goal",
    "NaiveSubtypeProver",
    "NaiveVerdict",
    "SubtypeEngine",
    "SubtypeStats",
    # restrictions
    "RestrictionViolation",
    "DependenceGraph",
    "direct_dependence_graph",
    "is_uniform_polymorphic",
    "non_uniform_constraints",
    "is_guarded",
    "unguarded_constructors",
    "validate_restrictions",
    # semantics
    "TypeSemantics",
    "GeneralTypeSemantics",
    "herbrand_universe",
    # typings and match
    "is_typing",
    "is_respectful_typing",
    "more_general_typing",
    "in_agreement",
    "agreeing_union",
    "merge_typings",
    "Matcher",
    "MatchResult",
    "MATCH_FAIL",
    "MATCH_BOTTOM",
    "is_typing_result",
    "ConstraintMatcher",
    "ConstraintMatchResult",
    "ShapeEquation",
    # well-typedness and execution
    "PredicateTypeEnv",
    "WellTypedChecker",
    "ClauseReport",
    "ProgramReport",
    "AtomCheck",
    "ClauseTyping",
    "ResolventTyping",
    "TYPED_RUN_CODE",
    "SubjectReductionViolation",
    "TypedRunResult",
    "TypedRunner",
    # extensions
    "IN",
    "OUT",
    "ModeEnv",
    "ModeChecker",
    "ModeReport",
    "ModeViolation",
    "ModedWellTypedChecker",
    "ModedClauseReport",
    "CommonTypeInference",
    "FilterDefinition",
    "constructor_shapes",
    "shallow_filter",
    "deep_filter",
    # semantics cross-checks and proof objects
    "LeastModel",
    "expansion_closed_universe",
    "Derivation",
    "DerivationStep",
    "DerivationBuilder",
    "verify_derivation",
]
