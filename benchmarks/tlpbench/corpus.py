"""Seeded inputs for the tlpbench workloads, with their known answers.

Every input is built from templates shaped like ``repro.workloads``
programs, so each expected answer comes from the construction, never from
the checker under test:

* a check member's verdict and error count follow from whether one of the
  six ``ILL_TYPED_EXAMPLES`` patterns was injected into it;
* a lint member's finding codes are the sum of the pinned codes of its
  template's blocks plus the pinned prelude findings for that template;
* the six ``examples/corpus/lint/*.tlp`` files carry the finding lists the
  CI lint gates pin;
* typed-run answers are computed here in plain Python, and the ill-moded
  query's TLP590 step is pinned from the SLD derivation.

Member sizes sit at the midpoints of equal-probability strata of a
log-uniform size distribution, per template; deep-term sizes follow a fixed
sequence; list elements and literals are fixed multisets in a seeded order;
and the ill-typed members sit at fixed places in size order.  So every seed
yields the same cost profile: the seed changes the inputs (universe names,
the order of list elements, expression shapes), not the workload's shape.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# -- helpers -----------------------------------------------------------------


def midpoints(n: int, lo: float, hi: float) -> List[int]:
    """``n`` sizes at the midpoints of ``n`` equal-probability strata of the
    log-uniform distribution on ``[lo, hi]``."""
    return [int(round(lo * (hi / lo) ** ((i + 0.5) / n))) for i in range(n)]


def apportion(n: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Split ``n`` into counts proportional to ``weights`` (largest
    remainder, ties broken by name)."""
    total = sum(weights.values())
    quotas = {name: n * w / total for name, w in weights.items()}
    counts = {name: int(q) for name, q in quotas.items()}
    short = n - sum(counts.values())
    for name in sorted(quotas, key=lambda k: (counts[k] - quotas[k], k))[:short]:
        counts[name] += 1
    return counts


@dataclass(frozen=True)
class Universe:
    """One project's renamed declaration universe.

    Function symbols and the list/expression types carry the project tag,
    so every project is its own declaration scope (its own shared-memo
    table and compiled automaton).  ``nat``/``unnat``/``int`` keep their
    names because the built-in constraint predicates are typed over them.
    """

    tag: str

    def __getattr__(self, name: str) -> str:
        if name.startswith("_"):
            raise AttributeError(name)
        return f"{name}{self.tag}"

    def nat(self, n: int) -> str:
        return f"{self.s}(" * n + self.z + ")" * n

    def unnat(self, n: int) -> str:
        return f"{self.p}(" * n + self.z + ")" * n

    def nat_list(self, values: Sequence[int]) -> str:
        text = self.nil
        for value in reversed(values):
            text = f"{self.cons}({self.nat(value)}, {text})"
        return text

    def prelude(self, expressions: bool) -> str:
        functions = ["z", "s", "p", "nil", "cons"]
        types = [f"elist{self.tag}", f"nelist{self.tag}", f"list{self.tag}"]
        lines = [
            f"nat >= {self.z} + {self.s}(nat).",
            f"unnat >= {self.z} + {self.p}(unnat).",
            "int >= nat + unnat.",
            f"{self.elist} >= {self.nil}.",
            f"{self.nelist}(A) >= {self.cons}(A, {self.list}(A)).",
            f"{self.list}(A) >= {self.elist} + {self.nelist}(A).",
        ]
        if expressions:
            functions += ["lit", "add", "mul", "ife", "tt", "ff", "leq"]
            types += [f"aexp{self.tag}", f"bexp{self.tag}", f"bool{self.tag}"]
            a, b = self.aexp, self.bexp
            lines += [
                f"{a} >= {self.lit}(nat) + {self.add}({a}, {a}) + "
                f"{self.mul}({a}, {a}) + {self.ife}({b}, {a}, {a}).",
                f"{b} >= {self.tt} + {self.ff} + {self.leq}({a}, {a}).",
                f"{self.bool} >= {self.tt} + {self.ff}.",
            ]
        head = [
            "FUNC " + ", ".join(f"{name}{self.tag}" for name in functions) + ".",
            "TYPE nat, unnat, int, " + ", ".join(types) + ".",
        ]
        return "\n".join(head + lines) + "\n"


@dataclass
class Block:
    """A template instance: one declaration, clause or query per line."""

    lines: List[str]

    @property
    def queries(self) -> int:
        return sum(1 for line in self.lines if line.startswith(":-"))

    @property
    def clauses(self) -> int:
        return sum(
            1 for line in self.lines if not line.startswith((":-", "PRED ", "MODE "))
        )


# -- templates -----------------------------------------------------------------
#
# Each template takes the universe, a block id ``j`` (suffixing every
# predicate it defines, so blocks of one member never collide) and the
# member's draws.  Deep terms run up to succ^256(0) and 128-element lists;
# polymorphic predicates only get deep *queries*, since a defining fact like
# len(cons(0, nil), ...) would commit A (Section 5).


class Draws:
    """A member's deep-term sizes and data values.

    Sizes follow the golden-ratio sequence on a log scale, so a member of a
    given template and size draws the same sizes whatever the seed, and its
    cost does not depend on the seed.  Data values (list elements,
    expression shapes, literals) come from the seeded ``rng``, the numbers
    as fixed multisets in a seeded order, so a term of a given size has the
    same number of nodes whatever the seed.
    """

    GOLDEN = 0.6180339887498949

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._k = 0

    def size(self, hi: int) -> int:
        """A size in ``[1, hi]``, log-uniform over a member's draws."""
        self._k += 1
        return int(round(hi ** ((self._k * self.GOLDEN) % 1.0)))

    def values(self, n: int) -> List[int]:
        elements = [k % 4 for k in range(n)]
        self.rng.shuffle(elements)
        return elements


def block_list(u: Universe, j: int, g: Draws) -> Block:
    L = u.list
    n = g.size(128)
    lines = [
        f"PRED app_{j}({L}(A), {L}(A), {L}(A)).",
        f"app_{j}({u.nil}, L, L).",
        f"app_{j}({u.cons}(X, L), M, {u.cons}(X, N)) :- app_{j}(L, M, N).",
        f"PRED member_{j}(A, {L}(A)).",
        f"member_{j}(X, {u.cons}(X, _L)).",
        f"member_{j}(X, {u.cons}(_Y, L)) :- member_{j}(X, L).",
        f"PRED revacc_{j}({L}(A), {L}(A), {L}(A)).",
        f"revacc_{j}({u.nil}, Acc, Acc).",
        f"revacc_{j}({u.cons}(X, L), Acc, R) :- revacc_{j}(L, {u.cons}(X, Acc), R).",
        f"PRED reverse_{j}({L}(A), {L}(A)).",
        f"reverse_{j}(L, R) :- revacc_{j}(L, {u.nil}, R).",
        f"PRED nlen_{j}({L}(nat), nat).",
        f"nlen_{j}({u.nil}, {u.z}).",
        f"nlen_{j}({u.cons}(_X, L), {u.s}(N)) :- nlen_{j}(L, N).",
        f"nlen_{j}({u.nat_list(g.values(n))}, {u.nat(n)}).",
        f":- app_{j}({u.nat_list(g.values(g.size(128)))}, "
        f"{u.nat_list(g.values(3))}, R).",
        f":- reverse_{j}({u.nat_list(g.values(g.size(128)))}, R).",
    ]
    return Block(lines)


def block_nat(u: Universe, j: int, g: Draws) -> Block:
    z, s = u.z, u.s
    lines = [
        f"PRED plus_{j}(nat, nat, nat).",
        f"plus_{j}({z}, N, N).",
        f"plus_{j}({s}(M), N, {s}(K)) :- plus_{j}(M, N, K).",
        f"PRED times_{j}(nat, nat, nat).",
        f"times_{j}({z}, _N, {z}).",
        f"times_{j}({s}(M), N, K) :- times_{j}(M, N, P), plus_{j}(P, N, K).",
        f"PRED le_{j}(nat, nat).",
        f"le_{j}({z}, _N).",
        f"le_{j}({s}(M), {s}(N)) :- le_{j}(M, N).",
        f"PRED int2nat_{j}(int, nat).",
        f"int2nat_{j}({z}, {z}).",
        f"int2nat_{j}({s}(X), {s}(X)).",
        f"PRED double_{j}(nat, nat).",
        f"double_{j}({z}, {z}).",
        f"double_{j}({s}(M), {s}({s}(N))) :- double_{j}(M, N).",
        f"double_{j}({u.nat(g.size(256) // 2)}, R) :- plus_{j}({z}, {z}, R).",
        f":- plus_{j}({u.nat(g.size(256))}, {u.nat(g.size(256))}, R).",
        f":- le_{j}({u.nat(g.size(256))}, {u.nat(256)}).",
    ]
    return Block(lines)


def block_isort(u: Universe, j: int, g: Draws) -> Block:
    z, s, L = u.z, u.s, u.list
    lines = [
        f"PRED le_{j}(nat, nat).",
        f"le_{j}({z}, _N).",
        f"le_{j}({s}(M), {s}(N)) :- le_{j}(M, N).",
        f"PRED gt_{j}(nat, nat).",
        f"gt_{j}({s}(_N), {z}).",
        f"gt_{j}({s}(M), {s}(N)) :- gt_{j}(M, N).",
        f"PRED insert_{j}(nat, {L}(nat), {L}(nat)).",
        f"insert_{j}(X, {u.nil}, {u.cons}(X, {u.nil})).",
        f"insert_{j}(X, {u.cons}(Y, L), {u.cons}(X, {u.cons}(Y, L))) :- le_{j}(X, Y).",
        f"insert_{j}(X, {u.cons}(Y, L), {u.cons}(Y, M)) :- gt_{j}(X, Y), insert_{j}(X, L, M).",
        f"PRED isort_{j}({L}(nat), {L}(nat)).",
        f"isort_{j}({u.nil}, {u.nil}).",
        f"isort_{j}({u.cons}(X, L), S) :- isort_{j}(L, S1), insert_{j}(X, S1, S).",
        f"isort_{j}({u.nat_list(sorted(g.values(g.size(128))))}, R) "
        f":- isort_{j}({u.nil}, R).",
        f":- isort_{j}({u.nat_list(g.values(g.size(128)))}, S).",
    ]
    return Block(lines)


def _expression(u: Universe, rng: random.Random, size: int) -> str:
    """An expression over ``size`` literals spread evenly over 0..40: the
    seed picks the tree, the operators and the literals' order."""
    literals = [40 * k // max(1, size - 1) for k in range(size)]
    rng.shuffle(literals)

    def tree(n: int) -> str:
        if n <= 1:
            return f"{u.lit}({u.nat(literals.pop())})"
        left = rng.randint(1, n - 1)
        op = rng.choice([u.add, u.mul])
        return f"{op}({tree(left)}, {tree(n - left)})"

    return tree(size)


def block_expr(u: Universe, j: int, g: Draws) -> Block:
    z, s, A, B = u.z, u.s, u.aexp, u.bexp
    tt, ff = u.tt, u.ff
    lines = [
        f"PRED plus_{j}(nat, nat, nat).",
        f"plus_{j}({z}, N, N).",
        f"plus_{j}({s}(M), N, {s}(K)) :- plus_{j}(M, N, K).",
        f"PRED times_{j}(nat, nat, nat).",
        f"times_{j}({z}, _N, {z}).",
        f"times_{j}({s}(M), N, K) :- times_{j}(M, N, P), plus_{j}(P, N, K).",
        f"PRED le_{j}(nat, nat).",
        f"le_{j}({z}, _N).",
        f"le_{j}({s}(M), {s}(N)) :- le_{j}(M, N).",
        f"PRED gt_{j}(nat, nat).",
        f"gt_{j}({s}(_N), {z}).",
        f"gt_{j}({s}(M), {s}(N)) :- gt_{j}(M, N).",
        f"PRED aeval_{j}({A}, nat).",
        f"PRED beval_{j}({B}, {u.bool}).",
        f"aeval_{j}({u.lit}(N), N).",
        f"aeval_{j}({u.add}(E1, E2), N) :- aeval_{j}(E1, N1), aeval_{j}(E2, N2), plus_{j}(N1, N2, N).",
        f"aeval_{j}({u.mul}(E1, E2), N) :- aeval_{j}(E1, N1), aeval_{j}(E2, N2), times_{j}(N1, N2, N).",
        f"aeval_{j}({u.ife}(B, E1, _E2), N) :- beval_{j}(B, {tt}), aeval_{j}(E1, N).",
        f"aeval_{j}({u.ife}(B, _E1, E2), N) :- beval_{j}(B, {ff}), aeval_{j}(E2, N).",
        f"beval_{j}({tt}, {tt}).",
        f"beval_{j}({ff}, {ff}).",
        f"beval_{j}({u.leq}(E1, E2), {tt}) :- aeval_{j}(E1, N1), aeval_{j}(E2, N2), le_{j}(N1, N2).",
        f"beval_{j}({u.leq}(E1, E2), {ff}) :- aeval_{j}(E1, N1), aeval_{j}(E2, N2), gt_{j}(N1, N2).",
        f":- aeval_{j}({_expression(u, g.rng, max(2, g.size(24)))}, N).",
    ]
    return Block(lines)


def block_moded(u: Universe, j: int, g: Draws) -> Block:
    """The ``examples/programs/modes.tlp`` shape: an OUT nat producer
    feeding an IN int consumer, directly and through a widening coercion."""
    z, s, p = u.z, u.s, u.p
    lines = [
        f"PRED produce_{j}(OUT nat).",
        f"produce_{j}({s}({z})).",
        f"produce_{j}({u.nat(g.size(256))}).",
        f"PRED consume_{j}(int).",
        f"MODE consume_{j}(IN).",
        f"consume_{j}({z}).",
        f"consume_{j}({s}({z})).",
        f"consume_{j}({p}({z})).",
        f"consume_{j}({u.unnat(g.size(256))}).",
        f"PRED nat2int_{j}(nat, int).",
        f"MODE nat2int_{j}(IN, OUT).",
        f"nat2int_{j}(X, X).",
        f":- produce_{j}(X), consume_{j}(X).",
        f":- produce_{j}(X), nat2int_{j}(X, Y), consume_{j}(Y).",
    ]
    return Block(lines)


def block_poly(u: Universe, j: int, g: Draws) -> Block:
    """Polymorphic declarations plus the infix built-in constraints."""
    L = u.list
    return Block([
        f"PRED max_{j}(int, int, int).",
        f"max_{j}(X, Y, Y) :- X =< Y.",
        f"max_{j}(X, Y, X) :- Y < X.",
        f"PRED clamp_{j}(int, int, int).",
        f"clamp_{j}(X, Hi, X) :- X =< Hi.",
        f"clamp_{j}(X, Hi, Hi) :- Hi < X.",
        f"PRED same_{j}(int, int).",
        f"same_{j}(X, Y) :- X =:= Y.",
        f"PRED bump_{j}(int, int).",
        f"bump_{j}(X, Y) :- Y is X.",
        f"PRED push_{j}(A, {L}(A), {L}(A)).",
        f"push_{j}(X, L, {u.cons}(X, L)).",
        f"PRED first_{j}({L}(A), A).",
        f"first_{j}({u.cons}(X, _L), X).",
        f"PRED count_{j}({L}(A), int).",
        f"count_{j}({u.nil}, {u.z}).",
        f"count_{j}({u.cons}(_X, L), N) :- count_{j}(L, M), N is M.",
        f":- max_{j}({u.nat(g.size(256))}, {u.nat(g.size(256))}, _R).",
        f":- count_{j}({u.nat_list(g.values(g.size(128)))}, _N).",
    ])


def block_undeclared(u: Universe, j: int, g: Draws) -> Block:
    """Lint-only: predicates used without a PRED declaration (TLP201)."""
    z, s = u.z, u.s
    lines = [
        f"half_{j}({z}, {z}).",
        f"half_{j}({s}({s}(M)), {s}(N)) :- half_{j}(M, N).",
        f"PRED quarter_{j}(nat, nat).",
        f"quarter_{j}(M, N) :- half_{j}(M, K), half_{j}(K, N).",
        f":- quarter_{j}({u.nat(4 * (g.size(256) // 4))}, R).",
    ]
    return Block(lines)


def block_ill_typed(u: Universe, j: int, kind: str) -> Block:
    """One of the six ``ILL_TYPED_EXAMPLES`` patterns, renamed into the
    universe: each adds exactly one ill-typed clause or query."""
    L, z = u.list, u.z
    patterns = {
        "query_two_contexts": [
            f"PRED bp_{j}(int).", f"PRED bq_{j}({L}(A)).",
            f"bp_{j}({z}).", f"bq_{j}({u.nil}).",
            f":- bp_{j}(X), bq_{j}(X).",
        ],
        "clause_two_contexts": [
            f"PRED bp_{j}(int).", f"PRED br_{j}({L}(A)).",
            f"bp_{j}({z}).", f"br_{j}(X) :- bp_{j}(X).",
        ],
        "head_two_contexts": [
            f"PRED bs_{j}(int, {L}(A)).", f"bs_{j}(X, X).",
        ],
        "head_commits_type_variable": [
            f"PRED bc_{j}({L}(A)).", f"bc_{j}({u.cons}({u.nil}, {u.nil})).",
        ],
        "subtype_flow": [
            f"PRED bp_{j}(nat).", f"PRED bq_{j}(int).",
            f"bp_{j}({z}).", f"bq_{j}({z}).",
            f":- bp_{j}(X), bq_{j}(X).",
        ],
        "append_on_naturals": [
            f"PRED bapp_{j}({L}(A), {L}(A), {L}(A)).",
            f"bapp_{j}({u.nil}, L, L).",
            f"bapp_{j}({u.cons}(X, L), M, {u.cons}(X, N)) :- bapp_{j}(L, M, N).",
            f":- bapp_{j}({u.nil}, {z}, {z}).",
        ],
    }
    return Block(patterns[kind])


ILL_TYPED_KINDS = (
    "query_two_contexts",
    "clause_two_contexts",
    "head_two_contexts",
    "head_commits_type_variable",
    "subtype_flow",
    "append_on_naturals",
)

TEMPLATES = {
    "list": block_list,
    "nat": block_nat,
    "isort": block_isort,
    "expr": block_expr,
    "moded": block_moded,
    "poly": block_poly,
    "undeclared": block_undeclared,
}

#: Template mix of the check-cold corpus.
CHECK_MIX = {"list": 0.2, "nat": 0.2, "isort": 0.15, "expr": 0.15, "moded": 0.15, "poly": 0.15}
#: Lint-heavy mix: modes, polytypes, undeclared predicates; never ``expr``,
#: whose success-set inference does not finish (:data:`HANGING_SOURCE`).
LINT_MIX = {"list": 0.2, "nat": 0.15, "moded": 0.25, "poly": 0.25, "undeclared": 0.15}
ILL_TYPED_SHARE = 0.15

#: Pinned lint findings per lint template: (findings on the shared prelude,
#: findings per block).  The prelude findings are TLP104 for the prelude
#: types a template never reaches; the per-block ones are the query
#: singletons (TLP203), the undeclared helper (TLP201), and the
#: once-used type variable of ``count`` (TLP604).
LINT_FINDINGS: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {
    "list": ({"TLP104": 2}, {"TLP203": 2}),
    "nat": ({"TLP104": 3}, {"TLP203": 1}),
    "moded": ({"TLP104": 3}, {}),
    "poly": ({}, {"TLP604": 1}),
    "undeclared": ({"TLP104": 5}, {"TLP201": 1, "TLP203": 1}),
}

#: ``examples/corpus/lint/*.tlp`` with the (code, line) findings its CI
#: lint gates pin, one seeded defect per rule.
LINT_FILES: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "missing_filter.tlp": (("TLP301", 19),),
    "modes.tlp": (
        ("TLP203", 28), ("TLP403", 8), ("TLP403", 22), ("TLP501", 23),
        ("TLP502", 36), ("TLP503", 28), ("TLP504", 31), ("TLP505", 34),
    ),
    "polytypes.tlp": (
        ("TLP601", 23), ("TLP602", 27), ("TLP603", 31), ("TLP604", 34),
        ("TLP605", 38),
    ),
    "success_sets.tlp": (
        ("TLP401", 28), ("TLP401", 31), ("TLP402", 28), ("TLP403", 33),
        ("TLP404", 30),
    ),
    "unguarded.tlp": (("TLP102", 8), ("TLP102", 10)),
    "uninhabited.tlp": (("TLP103", 9), ("TLP401", 13), ("TLP402", 13)),
}

#: The source whose success-set inference does not terminate in practice:
#: ``aeval`` over ``mul`` calling ``times``.  A benchmark run leaves it out;
#: the self-test adds it to check that an op past the deadline is counted.
HANGING_SOURCE = "expression_interpreter"


@dataclass(frozen=True)
class Member:
    """One generated source file and its known answers."""

    name: str
    text: str
    ok: bool  # expected verdict
    errors: int  # expected error diagnostics
    items: int  # clauses + queries
    #: expected lint finding codes with their counts (lint corpora only)
    lint: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Project:
    """Members sharing one declaration prelude (a ``tlp-project.json``)."""

    name: str
    prelude: str
    members: Tuple[Member, ...]


def _member(
    u: Universe,
    name: str,
    family: str,
    target: int,
    rng: random.Random,
    ill_kind: Optional[str] = None,
) -> Member:
    """Blocks of one template until ``target`` clauses, plus at most one
    ill-typed pattern."""
    blocks: List[Block] = []
    draws = Draws(rng)
    while sum(block.clauses for block in blocks) < target:
        blocks.append(TEMPLATES[family](u, len(blocks), draws))
    lint: Counter = Counter()
    if family in LINT_FINDINGS:
        on_prelude, per_block = LINT_FINDINGS[family]
        lint.update(on_prelude)
        for _ in blocks:
            lint.update(per_block)
    if ill_kind is not None:
        blocks.append(block_ill_typed(u, len(blocks), ill_kind))
    return Member(
        name=name,
        text="\n".join(line for block in blocks for line in block.lines) + "\n",
        ok=ill_kind is None and family != "undeclared",
        errors=1 if ill_kind is not None else 0,
        items=sum(block.clauses + block.queries for block in blocks),
        lint=tuple(sorted(lint.items())),
    )


def _ill_typed(n: int) -> Dict[int, str]:
    """Which of ``n`` size-sorted members get an ill-typed pattern, and
    which pattern: evenly spaced, the six patterns in turn.  Not seeded: an
    ill-typed member costs a multiple, or a fraction, of its well-typed
    twin, so a seeded choice would move the percentiles from seed to seed."""
    count = round(n * ILL_TYPED_SHARE)
    return {int((k + 0.5) * n / count): ILL_TYPED_KINDS[k % len(ILL_TYPED_KINDS)]
            for k in range(count)}


def _plan_members(n: int, mix: Dict[str, float], lo: int, hi: int) -> List[Tuple[str, int]]:
    """(template, clause target) pairs: per template, sizes at the stratum
    midpoints of [lo, hi].  Sorted by size, so files that share a
    declaration scope meet its compiled automaton and shared memo in the
    same order whatever the seed."""
    return sorted(
        ((family, size)
         for family, count in apportion(n, mix).items()
         for size in midpoints(count, lo, hi)),
        key=lambda pair: (pair[1], pair[0]),
    )


def check_projects(seed: int, members: int, projects: int = 8) -> List[Project]:
    """The check-cold corpus: ``projects`` renamed universes sharing
    ``members`` files of 10-300 clauses; ~15% carry one ill-typed pattern."""
    rng = random.Random(f"check:{seed}")
    plan = _plan_members(members, CHECK_MIX, 10, 300)
    ill = _ill_typed(members)
    # Dealt in size order, so every project gets the same size profile and
    # its first (automaton-compiling) member is one of the smallest.
    out = []
    for k in range(projects):
        u = Universe(f"{k}{rng.choice('abcdefgh')}")
        built = tuple(
            _member(u, f"{plan[i][0]}_{i:03d}.tlp", plan[i][0], plan[i][1], rng, ill.get(i))
            for i in range(k, members, projects)
        )
        out.append(Project(f"project{k}", u.prelude(expressions=True), built))
    return out


@dataclass(frozen=True)
class LintCase:
    """One ``lint_text`` call and how its findings are judged."""

    name: str
    text: str
    #: "codes": finding-code counts equal ``expect``; "findings": the
    #: sorted (code, line) list equals ``expect``; "no-errors": a canonical
    #: well-typed source, so no error-severity finding.
    judge: str
    expect: Tuple[Tuple[str, int], ...] = ()


def lint_cases(seed: int, members: int, root: Path, projects: int = 4) -> List[LintCase]:
    """Generated lint members (with their project prelude) plus the six
    seeded ``examples/corpus/lint`` files verbatim."""
    rng = random.Random(f"lint:{seed}")
    plan = _plan_members(members, LINT_MIX, 5, 100)
    universes = [Universe(f"{k}{rng.choice('pqrstuvw')}") for k in range(projects)]
    cases = []
    for i, (family, size) in enumerate(plan):
        u = universes[i % projects]
        member = _member(u, f"{family}_{i:03d}.tlp", family, size, rng)
        cases.append(
            LintCase(member.name, u.prelude(expressions=False) + "\n" + member.text,
                     "codes", member.lint)
        )
    lint_dir = root / "examples" / "corpus" / "lint"
    for name, findings in sorted(LINT_FILES.items()):
        text = (lint_dir / name).read_text(encoding="utf-8")
        cases.append(LintCase(f"lint/{name}", text, "findings", tuple(sorted(findings))))
    return cases


def canonical_lint_cases(sources: Dict[str, str]) -> List[LintCase]:
    """The ``repro.workloads.SOURCES`` programs, linted verbatim, except
    :data:`HANGING_SOURCE`."""
    return [
        LintCase(f"sources/{name}", text, "no-errors")
        for name, text in sorted(sources.items())
        if name != HANGING_SOURCE
    ]


# -- typed execution -------------------------------------------------------------

#: An OUT producer of a genuine ``int`` feeding a ``nat`` IN consumer, reached
#: after a five-step countdown.  ``relay`` is statically ill-moded (the
#: frontend rejects it), which ``--typed-run`` ignores: steps 1-5 resolve
#: the recursive ``down`` clause, step 6 the ``down(0)`` fact, and step 7
#: resolves ``relay(0)`` into the ill-typed resolvent
#: ``makeint(X), usenat(X)``.
ILL_MODED = """\
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED down(nat).
MODE down(IN).
down(0).
down(succ(N)) :- down(N).
PRED makeint(int).
MODE makeint(OUT).
makeint(pred(0)).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
PRED relay(nat).
MODE relay(IN).
relay(0) :- makeint(X), usenat(X).
"""
ILL_MODED_QUERY = ":- down(succ(succ(succ(succ(succ(0)))))), relay(0)."
ILL_MODED_STEP = 7


def typed_modules(sources: Dict[str, str], root: Path) -> Dict[str, str]:
    """Module name → source text for the typed-run workload, from
    ``repro.workloads.SOURCES`` and the checkout at ``root``."""
    modules = {
        name: sources[name]
        for name in ("list_library", "naturals_arithmetic", "insertion_sort")
    }
    modules["modes"] = (root / "examples" / "programs" / "modes.tlp").read_text(
        encoding="utf-8"
    )
    modules["ill_moded"] = ILL_MODED
    return modules


def _nat(n: int) -> str:
    return "succ(" * n + "0" + ")" * n


def _list(values: Sequence[int]) -> str:
    text = "nil"
    for value in reversed(values):
        text = f"cons({_nat(value)}, {text})"
    return text


@dataclass(frozen=True)
class QueryCase:
    """One ``TypedRunner.run`` call and its answers, computed in Python."""

    module: str
    text: str
    #: rendered answers, each "Var = term; ..." over the query's variables
    answers: Tuple[str, ...]
    #: the resolution step of the expected TLP590 abort (0: none)
    abort_step: int = 0


def typed_queries(seed: int, scale: float) -> List[QueryCase]:
    """One pass of typed-run queries: list append/reverse, insertion sort,
    Peano plus/times, the ``modes.tlp`` queries and the ill-moded query.

    Sizes are fixed stratum midpoints (and the sort inputs descending), so
    the seed changes list contents, not the pass's cost.  The order is a
    fixed shuffle: in a warm process a query's cost depends on the queries
    run before it (``plus`` on succ^128 took 65 or 88 ms by seeded order),
    so a seeded order would move the tail percentiles from seed to seed, and
    running each kind of query as one block lets one slow spell move all of
    them, and the median with them."""
    values = Draws(random.Random(f"typed:{seed}")).values

    def count(base: int) -> int:
        return max(1, round(base * scale))

    cases: List[QueryCase] = []
    for n in midpoints(count(30), 4, 32):
        a, b = values(n), values(3)
        cases.append(QueryCase("list_library", f":- app({_list(a)}, {_list(b)}, R).",
                               (f"R = {_list(a + b)}",)))
    for n in midpoints(count(30), 4, 32):
        a = values(n)
        cases.append(QueryCase("list_library", f":- reverse({_list(a)}, R).",
                               (f"R = {_list(a[::-1])}",)))
    for n in midpoints(count(20), 4, 12):
        a = list(range(n - 1, -1, -1))
        cases.append(QueryCase("insertion_sort", f":- isort({_list(a)}, S).",
                               (f"S = {_list(sorted(a))}",)))
    sizes = midpoints(count(40), 1, 128)
    for a, b in zip(sizes, reversed(sizes)):
        cases.append(QueryCase("naturals_arithmetic", f":- plus({_nat(a)}, {_nat(b)}, R).",
                               (f"R = {_nat(a + b)}",)))
    factors = midpoints(count(24), 1, 6)
    for a, b in zip(factors, reversed(factors)):
        cases.append(QueryCase("naturals_arithmetic", f":- times({_nat(a)}, {_nat(b)}, R).",
                               (f"R = {_nat(a * b)}",)))
    for _ in range(count(8)):
        cases.append(QueryCase("modes", ":- produce(X), consume(X).",
                               (f"X = {_nat(1)}",)))
        cases.append(QueryCase("modes", ":- produce(X), nat2int(X, Y), consume(Y).",
                               (f"X = {_nat(1)}; Y = {_nat(1)}",)))
    cases.append(QueryCase("ill_moded", ILL_MODED_QUERY, (), ILL_MODED_STEP))
    random.Random("typed-order").shuffle(cases)
    return cases


# -- serving -------------------------------------------------------------------------

#: Request kinds of the serve-edit session, in this order: 40% check of an
#: edited text, 20% lint, 30% hot check, 10% didChange.  Each lint, the
#: slowest request, is followed by a hot check, so the next costly request
#: is due two slots later: otherwise a lint that ran a little long would
#: share the interpreter with the next check by chance, and that chance,
#: not the server, would set the tail latency.
SERVE_ORDER = ("check", "lint", "hot", "check", "change", "check", "lint", "hot", "check", "hot")
#: Texts per request kind.  One cycle of :data:`SERVE_CYCLE` requests sends
#: every text exactly once, so any whole number of cycles holds the same
#: request costs whatever the seed, and a latency percentile cannot move
#: with how often the seed happened to send the largest texts.
SERVE_POOLS = {"check": 16, "lint": 8, "hot": 12, "change": 4}
SERVE_CYCLE = sum(SERVE_POOLS.values())
#: Lint texts of the serve-edit session: half of them list programs, whose
#: success-set inference makes them the slowest requests.  At 10% of the
#: requests they put the latency p95 inside one class of requests; at 5% it
#: would sit on the step between that class and the checks below it, where
#: every run reads a different side of the step.
SERVE_LINT_MIX = {"list": 0.5, "nat": 0.125, "moded": 0.125, "poly": 0.125, "undeclared": 0.125}
#: Members of the mounted workspace; ``didChange`` edits the first
#: ``SERVE_POOLS["change"]`` of them.
SERVE_WORKSPACE = 8


@dataclass(frozen=True)
class ServeInputs:
    """Everything the serve-edit session sends, with known answers."""

    prelude: str  # the workspace's shared declarations
    workspace: Tuple[Member, ...]  # mounted members (prelude shared)
    open_files: Tuple[Member, ...]  # full texts, checked by path
    check_pool: Tuple[Member, ...]  # full texts, edited then checked
    lint_pool: Tuple[LintCase, ...]  # full texts, edited then linted
    #: (kind, pool index) per request, in send order
    schedule: Tuple[Tuple[str, int], ...]


def serve_inputs(seed: int, cycles: int, warmup: int) -> ServeInputs:
    """``warmup`` requests, then ``cycles`` cycles of requests, each a
    seeded order of every text."""
    rng = random.Random(f"serve:{seed}")
    u = Universe(f"w{rng.choice('abcdefgh')}")
    prelude = u.prelude(expressions=True)

    def members(prefix: str, n: int, ill: bool) -> List[Member]:
        plan = _plan_members(n, CHECK_MIX, 3, 15)
        bad = _ill_typed(n) if ill else {}
        return [
            _member(u, f"{prefix}{i:02d}.tlp", family, size, rng, bad.get(i))
            for i, (family, size) in enumerate(plan)
        ]

    def inlined(member: Member) -> Member:
        return Member(member.name, prelude + "\n" + member.text, member.ok,
                      member.errors, member.items, member.lint)

    # didChange edits the first members: every other one in size order, so
    # the edited sizes, and the re-checks they cost, are the same every seed.
    by_size = members("ws", SERVE_WORKSPACE, ill=False)
    workspace = by_size[::2] + by_size[1::2]
    open_files = [inlined(m) for m in members("open", SERVE_POOLS["hot"], ill=True)]
    check_pool = [inlined(m) for m in members("edit", SERVE_POOLS["check"], ill=True)]
    lint_u = Universe(f"v{rng.choice('abcdefgh')}")
    lint_pool = []
    # At most 10 clauses: one template block each, so the list texts cost
    # the same.
    for i, (family, size) in enumerate(_plan_members(SERVE_POOLS["lint"], SERVE_LINT_MIX, 3, 10)):
        member = _member(lint_u, f"lint{i:02d}.tlp", family, size, rng)
        lint_pool.append(LintCase(member.name, lint_u.prelude(expressions=False)
                                  + "\n" + member.text, "codes", member.lint))
    kinds = SERVE_ORDER * (SERVE_CYCLE // len(SERVE_ORDER))
    schedule = []
    for _ in range(cycles + 1):
        orders = {kind: rng.sample(range(n), n) for kind, n in SERVE_POOLS.items()}
        schedule += [(kind, orders[kind].pop()) for kind in kinds]
    # The warm-up is the tail of the first cycle.
    schedule = schedule[SERVE_CYCLE - warmup:]
    return ServeInputs(prelude, tuple(workspace), tuple(open_files),
                       tuple(check_pool), tuple(lint_pool), tuple(schedule))


def digest(inputs: object) -> str:
    """A short content digest of generated inputs (same seed, same digest)."""
    def plain(value: object) -> object:
        if hasattr(value, "__dataclass_fields__"):
            return asdict(value)
        return value

    encoded = json.dumps(inputs, default=plain, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]
