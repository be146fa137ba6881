"""Type-constrained execution — the paper's third Section 7 alternative.

    "Another alternative, possible only in a system that supports typed
    unification [GM86, AKN86, Smo88], is to constrain X to be a nat,
    e.g., :- p(X), X:nat, q(X)."

This module makes that query executable.  A goal list may contain *type
constraints* ``X : τ`` alongside ordinary atoms; execution proceeds by
SLD-resolution on the ordinary atoms while the constraint store watches
the bindings:

* a constraint whose term is **ground** is checked immediately against
  ``M_C[[τ]]`` (via the deterministic subtype engine) — failure prunes
  the branch exactly where typed unification would have failed;
* a constraint whose term still has variables is **delayed**
  (coroutining) and re-examined after every resolution step;
* constraints still unresolved at an answer are reported as *residual*
  (the answer is conditional on them), mirroring how order-sorted logic
  programming presents constrained answers.

This is deliberately a separate computation model from the Definition 16
pipeline: the paper contrasts it with the prescriptive approach, where
the same effect needs a conversion predicate.  The tests replay the
paper's scenario — ``p`` over ``nat``, ``q`` over ``int`` — and show the
constraint store stopping the int→nat flow that Definition 16 could only
forbid statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.subtype import SubtypeEngine
from ..terms.pretty import pretty
from ..terms.substitution import EMPTY_SUBSTITUTION, Substitution
from ..terms.term import Struct, Term, is_ground, variables_of
from .database import Database
from .resolution import resolve_answer, resolve_step

__all__ = [
    "TypeConstraint",
    "ConstrainedAnswer",
    "ConstrainedResult",
    "ConstrainedInterpreter",
]

CONSTRAINT_FUNCTOR = ":"
"""Constraint goals travel as ``':'(term, type)`` structs."""


@dataclass(frozen=True)
class TypeConstraint:
    """``term : type`` — the term must inhabit ``M_C[[type]]``."""

    term: Term
    type_term: Term

    def __str__(self) -> str:
        return f"{pretty(self.term)} : {pretty(self.type_term)}"


@dataclass
class ConstrainedAnswer:
    """An answer substitution plus any constraints left unresolved."""

    substitution: Substitution
    residual: Tuple[TypeConstraint, ...] = ()

    @property
    def unconditional(self) -> bool:
        return not self.residual


@dataclass
class ConstrainedResult:
    """All answers of one constrained run."""

    answers: List[ConstrainedAnswer] = field(default_factory=list)
    pruned_by_constraints: int = 0
    hit_depth_limit: bool = False


class _Frame:
    """A node of the SLD tree; ``theta`` is the goal-side mgu of the step
    that produced it (see ``repro.lp.resolution``)."""

    __slots__ = ("goals", "constraints", "theta", "depth", "choices", "position")

    def __init__(self, goals, constraints, theta, depth, choices) -> None:
        self.goals = goals
        self.constraints = constraints
        self.theta = theta
        self.depth = depth
        self.choices = choices
        self.position = 0


class ConstrainedInterpreter:
    """SLD-resolution with a delayed type-constraint store."""

    def __init__(self, database: Database, engine: SubtypeEngine) -> None:
        self.database = database
        self.engine = engine

    # -- goal-list plumbing ---------------------------------------------------------

    @staticmethod
    def split_goals(
        goals: Sequence[Struct],
    ) -> Tuple[Tuple[Struct, ...], Tuple[TypeConstraint, ...]]:
        """Separate ordinary atoms from ``':'``-shaped constraint goals."""
        ordinary: List[Struct] = []
        constraints: List[TypeConstraint] = []
        for goal in goals:
            if goal.functor == CONSTRAINT_FUNCTOR and len(goal.args) == 2:
                constraints.append(TypeConstraint(goal.args[0], goal.args[1]))
            else:
                ordinary.append(goal)
        return tuple(ordinary), tuple(constraints)

    def _settle(
        self, constraints: Tuple[TypeConstraint, ...]
    ) -> Optional[Tuple[TypeConstraint, ...]]:
        """Check every ground constraint; ``None`` means a violation
        (prune), otherwise the remaining (delayed) constraints."""
        remaining: List[TypeConstraint] = []
        for constraint in constraints:
            if is_ground(constraint.term):
                if not self.engine.contains(constraint.type_term, constraint.term):
                    return None
            else:
                remaining.append(constraint)
        return tuple(remaining)

    # -- execution ----------------------------------------------------------------------

    def run(
        self,
        goals: Sequence[Struct],
        max_answers: Optional[int] = None,
        depth_limit: int = 10_000,
    ) -> ConstrainedResult:
        """Execute ``goals`` (ordinary atoms and ``X : τ`` constraints)."""
        result = ConstrainedResult()
        ordinary, constraints = self.split_goals(goals)
        query_vars = sorted(
            {v for g in goals for v in variables_of(g)}, key=lambda v: v.name
        )
        settled = self._settle(constraints)
        if settled is None:
            result.pruned_by_constraints += 1
            return result
        if not ordinary:
            result.answers.append(ConstrainedAnswer(EMPTY_SUBSTITUTION, settled))
            return result
        stack = [
            _Frame(
                ordinary,
                settled,
                EMPTY_SUBSTITUTION,
                0,
                self.database.templates(ordinary[0]),
            )
        ]
        while stack:
            frame = stack[-1]
            if frame.depth >= depth_limit:
                result.hit_depth_limit = True
                stack.pop()
                continue
            if frame.position >= len(frame.choices):
                stack.pop()
                continue
            template = frame.choices[frame.position]
            frame.position += 1
            resolved = resolve_step(template, frame.goals)
            if resolved is None:
                continue
            theta, new_goals = resolved
            # Clause bodies may themselves carry constraints.
            new_goals, body_constraints = self.split_goals(new_goals)
            new_constraints = tuple(
                TypeConstraint(theta.apply(c.term), c.type_term)
                for c in frame.constraints
            ) + body_constraints
            settled = self._settle(new_constraints)
            if settled is None:
                result.pruned_by_constraints += 1
                continue
            if not new_goals:
                path = [node.theta for node in stack[1:]]
                path.append(theta)
                answer = resolve_answer(query_vars, path)
                result.answers.append(ConstrainedAnswer(answer, settled))
                if max_answers is not None and len(result.answers) >= max_answers:
                    return result
                continue
            stack.append(
                _Frame(
                    new_goals,
                    settled,
                    theta,
                    frame.depth + 1,
                    self.database.templates(new_goals[0]),
                )
            )
        return result
