"""A realistic typed program: the list library under the paper's types.

The kind of program the paper's introduction motivates — polymorphic
lists with naturals — written in the declaration language, checked by the
frontend, and exercised through ``TypedRunner``: append, reverse,
member, length, sum, with polymorphic instantiation happening per query
(the η commitments of Definition 16).

Run:  python examples/typed_list_library.py
"""

from repro import TypedRunner, pretty
from repro.lang import parse_query
from repro.lp import Query
from repro.workloads import load


QUERIES = [
    # append two nat lists
    ":- app(cons(0, cons(succ(0), nil)), cons(succ(succ(0)), nil), R).",
    # append backwards: enumerate splits of a list of lists
    ":- app(X, Y, cons(nil, cons(nil, nil))).",
    # reverse
    ":- reverse(cons(0, cons(succ(0), cons(succ(succ(0)), nil))), R).",
    # member enumerates elements
    ":- member(X, cons(0, cons(succ(0), nil))).",
    # length
    ":- len(cons(nil, cons(nil, nil)), N).",
    # sum of a list of naturals (uses plus/3 in the body)
    ":- sum(cons(succ(0), cons(succ(succ(0)), nil)), N).",
    # last element
    ":- last(cons(0, cons(succ(0), nil)), X).",
]


def main() -> None:
    module = load("list_library")
    print(f"list library: {len(module.program)} clauses, all well-typed")
    runner = TypedRunner(module.checker, module.program)

    total_resolvents = 0
    total_violations = 0
    for text in QUERIES:
        query = Query(parse_query(text).body)
        result = runner.run(
            query, max_answers=5, abort_on_violation=False, check_answers=True
        )
        print(f"\n?- {', '.join(pretty(g) for g in query.goals)}.")
        if not result.answers:
            print("   no.")
        for answer in result.answers:
            if len(answer) == 0:
                print("   yes.")
            else:
                bindings = ", ".join(
                    f"{var} = {pretty(value)}"
                    for var, value in sorted(answer.items(), key=lambda p: p[0].name)
                )
                print(f"   {bindings}")
        total_resolvents += result.steps
        total_violations += len(result.violations) + len(result.answer_violations)

    print(
        f"\nTheorem 6 scoreboard: {total_resolvents} resolvents re-checked, "
        f"{total_violations} violations (expected 0)"
    )


if __name__ == "__main__":
    main()
