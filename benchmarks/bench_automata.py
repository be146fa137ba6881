"""Tree-automata benchmarks: the table-walk contract for ground queries.

The compiled automaton's pitch is that deep-term membership and ground
match stop paying per-node SLD-style resolution: after one compilation
per constraint-set fingerprint (shared process-wide), a query is a
bottom-up walk over interned node ids with every state cached.  This
module measures the three legs — compilation, membership, match — in the
*fresh-object-per-query* shape ``summary.py`` times (every engine and
matcher attaches to the process-wide store, so only the first query per
scope pays the walk), and **asserts the automaton path is ≥3x faster
than the template-expansion path** (engines and matchers built with
``automata=False``) on both workloads.

Run standalone::

    python benchmarks/bench_automata.py [--quick] [--json OUT]

or let ``benchmarks/summary.py`` pull the rows into the one-shot table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.automata import AutomataStore
from repro.core.match import Matcher
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term as T
from repro.workloads import deep_nat, nat_list, paper_universe

Row = Tuple[str, str]

#: Hard floor for the table-walk win (the PR's acceptance bar, enforced
#: here and in CI via check_regression.py --min-speedup).
REQUIRED_SPEEDUP = 3.0

ROUNDS = 5

NAT_DEPTH = 256
LIST_LENGTH = 64


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _best_per_op(thunk: Callable[[], None], iterations: int) -> float:
    """Best-of-N mean seconds per op (N rounds shrug off scheduler noise)."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(iterations):
            thunk()
        best = min(best, time.perf_counter() - start)
    return best / iterations


def _member_per_op(iterations: int, automata: bool = True) -> float:
    """Fresh engine per query, ``succ^256(0) ∈ nat`` — summary.py's E1 shape."""
    cset = paper_universe()
    nat = T("nat")
    term = deep_nat(NAT_DEPTH)
    assert SubtypeEngine(cset, automata=automata).contains(nat, term) is True  # warm-up
    return _best_per_op(
        lambda: SubtypeEngine(cset, automata=automata).contains(
            nat, deep_nat(NAT_DEPTH)
        ),
        iterations,
    )


def _match_per_op(iterations: int, automata: bool = True) -> float:
    """Fresh matcher per query, ``match(list(nat), 64-element list)``."""
    cset = paper_universe()
    list_nat = T("list(nat)")
    Matcher(cset, automata=automata).match(list_nat, nat_list(LIST_LENGTH))  # warm-up
    return _best_per_op(
        lambda: Matcher(cset, automata=automata).match(
            list_nat, nat_list(LIST_LENGTH)
        ),
        iterations,
    )


def _compile_per_op(iterations: int) -> float:
    """One cold store compile of the paper universe (states + rules +
    nullary-root determinization seeds)."""
    cset = paper_universe()

    def compile_once() -> None:
        store = AutomataStore()
        assert store.automaton_for(cset) is not None

    return _best_per_op(compile_once, max(1, iterations))


def automata_measurements(
    quick: bool = False,
) -> Tuple[List[Row], List[Dict[str, object]]]:
    """Run the automata benchmarks once.

    Returns human-readable ``(label, measured)`` rows and machine rows
    (``{"id", "label", "ns_per_op"}``) for ``BENCH_subtype.json``.
    """
    fast_iterations = 50 if quick else 200
    slow_iterations = 2 if quick else 5
    compile_iterations = 5 if quick else 20

    compile_s = _compile_per_op(compile_iterations)

    enabled_member = _member_per_op(fast_iterations)
    enabled_match = _match_per_op(fast_iterations)

    fallback_member = _member_per_op(slow_iterations, automata=False)
    fallback_match = _match_per_op(slow_iterations, automata=False)

    member_speedup = fallback_member / enabled_member if enabled_member else float("inf")
    match_speedup = fallback_match / enabled_match if enabled_match else float("inf")
    assert member_speedup >= REQUIRED_SPEEDUP, (
        f"automaton membership only {member_speedup:.2f}x faster than the "
        f"automata-off template path (automaton {fmt(enabled_member)}, "
        f"template {fmt(fallback_member)}); the table-walk "
        f"≥{REQUIRED_SPEEDUP:.0f}x contract is broken"
    )
    assert match_speedup >= REQUIRED_SPEEDUP, (
        f"automaton match only {match_speedup:.2f}x faster than the "
        f"automata-off template path (automaton {fmt(enabled_match)}, "
        f"template {fmt(fallback_match)}); the table-walk "
        f"≥{REQUIRED_SPEEDUP:.0f}x contract is broken"
    )

    rows: List[Row] = [
        (
            "TA1 compile paper universe -> tree automaton",
            fmt(compile_s),
        ),
        (
            f"TA2 automaton member: succ^{NAT_DEPTH}(0) ∈ nat, fresh engines",
            f"{fmt(enabled_member)} ({member_speedup:.0f}x over template path)",
        ),
        (
            f"TA2 template member: succ^{NAT_DEPTH}(0) ∈ nat, automata off",
            fmt(fallback_member),
        ),
        (
            f"TA3 automaton match(list(nat), {LIST_LENGTH}-element list)",
            f"{fmt(enabled_match)} ({match_speedup:.0f}x over template path)",
        ),
        (
            f"TA3 template match(list(nat), {LIST_LENGTH}-element list), automata off",
            fmt(fallback_match),
        ),
    ]
    measurements: List[Dict[str, object]] = [
        {
            "id": "automata.compile.paper_universe",
            "label": "compile the paper universe into a tree automaton",
            "ns_per_op": compile_s * 1e9,
        },
        {
            "id": f"automata.member.nat.{NAT_DEPTH}",
            "label": f"succ^{NAT_DEPTH}(0) ∈ nat via automaton, fresh engines",
            "ns_per_op": enabled_member * 1e9,
        },
        {
            "id": f"automata.member.nat.{NAT_DEPTH}.fallback",
            "label": f"succ^{NAT_DEPTH}(0) ∈ nat, automata-off template path",
            "ns_per_op": fallback_member * 1e9,
        },
        {
            "id": f"automata.match.list.{LIST_LENGTH}",
            "label": f"match(list(nat), {LIST_LENGTH}-element list) via automaton",
            "ns_per_op": enabled_match * 1e9,
        },
        {
            "id": f"automata.match.list.{LIST_LENGTH}.fallback",
            "label": (
                f"match(list(nat), {LIST_LENGTH}-element list), "
                "automata-off template path"
            ),
            "ns_per_op": fallback_match * 1e9,
        },
    ]
    return rows, measurements


def automata_rows(quick: bool = False) -> List[Row]:
    """The human-readable rows (``summary.py`` pulls these)."""
    rows, _ = automata_measurements(quick=quick)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-smoke sizes")
    parser.add_argument("--json", metavar="OUT", default=None)
    arguments = parser.parse_args(argv)
    rows, measurements = automata_measurements(quick=arguments.quick)
    width = max(len(label) for label, _ in rows) + 2
    for label, value in rows:
        print(label.ljust(width) + value)
    if arguments.json is not None:
        payload = {"quick": arguments.quick, "measurements": measurements}
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
