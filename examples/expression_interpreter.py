"""A typed big-step interpreter, written in the paper's typed Prolog.

This is the kind of program a prescriptive type system earns its keep on:
the expression AST is carved out of the Herbrand universe by subtype
constraints —

    aexp >= lit(nat) + add(aexp, aexp) + mul(aexp, aexp) + if_e(bexp, aexp, aexp).
    bexp >= tt + ff + leq(aexp, aexp).

— and the evaluator's predicate types (``PRED aeval(aexp, nat)``)
guarantee statically that evaluation only ever relates well-formed
expressions to ``nat`` values.  Ill-formed programs (evaluating a boolean
as an arithmetic expression, returning an expression instead of a value)
are rejected by the checker, and execution re-checks every resolvent
(Theorem 6) along the way.

Run:  python examples/expression_interpreter.py
"""

from repro import TypedRunner, check_text, pretty
from repro.lang import parse_query
from repro.lp import Query
from repro.workloads import EXPRESSION_INTERPRETER


def lit(n: int) -> str:
    inner = "0"
    for _ in range(n):
        inner = f"succ({inner})"
    return f"lit({inner})"


QUERIES = [
    # (2 + 1) * 2
    f":- aeval(mul(add({lit(2)}, {lit(1)}), {lit(2)}), R).",
    # if 1 <= 2 then 1 + 1 else 0
    f":- aeval(if_e(leq({lit(1)}, {lit(2)}), add({lit(1)}, {lit(1)}), {lit(0)}), R).",
    # if 2 <= 1 then 5 else 3 * 1
    f":- aeval(if_e(leq({lit(2)}, {lit(1)}), {lit(5)}, mul({lit(3)}, {lit(1)})), R).",
    # boolean evaluation
    f":- beval(leq({lit(3)}, {lit(3)}), B).",
    # run the evaluator backwards: which literal expressions mean 2?
    ":- aeval(lit(N), succ(succ(0))).",
]

ILL_TYPED = [
    # A boolean where an arithmetic expression is expected.
    ":- aeval(tt, R).",
    # An expression where a value is expected.
    f":- aeval({lit(1)}, lit(0)).",
    # if over a nat condition.
    f":- aeval(if_e({lit(1)}, {lit(1)}, {lit(0)}), R).",
]


def peano_to_int(text: str) -> str:
    count = text.count("succ")
    return f"{text}  (= {count})" if "succ" in text or text == "0" else text


def main() -> None:
    module = check_text(EXPRESSION_INTERPRETER)
    assert module.ok, module.diagnostics.render()
    print(f"interpreter: {len(module.program)} clauses, all well-typed")
    runner = TypedRunner(module.checker, module.program)

    for text in QUERIES:
        query = Query(parse_query(text).body)
        result = runner.run(query, max_answers=4, check_answers=True)
        print(f"\n?- {', '.join(pretty(g) for g in query.goals)}.")
        for answer in result.answers:
            bindings = ", ".join(
                f"{var} = {peano_to_int(pretty(value))}"
                for var, value in sorted(answer.items(), key=lambda p: p[0].name)
            )
            print(f"   {bindings or 'yes.'}")
        assert result.ok

    print("\nill-typed evaluator queries (all rejected by the checker):")
    for text in ILL_TYPED:
        query = Query(parse_query(text).body)
        report = module.checker.check_query(query)
        assert not report.well_typed
        print(f"  {text}  ->  {report.reason}")


if __name__ == "__main__":
    main()
