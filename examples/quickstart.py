"""Quickstart: declare types, type-check a program, run a query.

This is the paper's running example end to end: the polymorphic list
declarations of Section 1, the ``app`` predicate with its predicate type,
one query the type system *accepts* (and executes, with every resolvent
re-checked for well-typedness — Theorem 6 live), and one query it
*rejects* (``:- app(nil,0,0).``, the paper's own example of a successful
but ill-typed query).

Run:  python examples/quickstart.py
"""

from repro import TypedRunner, check_text, pretty

SOURCE = """
% --- the paper's Section 1 declarations -------------------------------
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).

% --- the paper's append ------------------------------------------------
PRED app(list(A),list(A),list(A)).
app(nil,L,L).
app(cons(X,L),M,cons(X,N)) :- app(L,M,N).

% --- a well-typed query -------------------------------------------------
:- app(cons(nil,nil), cons(nil,nil), R).
"""

REJECTED_QUERY = """
FUNC nil, cons, 0, succ, pred.
TYPE elist, nelist, list, nat, unnat, int.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED app(list(A),list(A),list(A)).
app(nil,L,L).
app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
:- app(nil,0,0).
"""


def main() -> None:
    print("== checking the paper's append program ==")
    module = check_text(SOURCE)
    assert module.ok, module.diagnostics.render()
    print(f"well-typed: {len(module.program)} clauses, {len(module.queries)} query")

    print("\n== running the query with per-resolvent consistency checks ==")
    runner = TypedRunner(module.checker, module.program)
    result = runner.run(module.queries[0])
    for answer in result.answers:
        for variable, value in sorted(answer.items(), key=lambda p: p[0].name):
            print(f"  {variable} = {pretty(value)}")
    print(f"  resolvents re-checked: {result.steps}")
    print(f"  Theorem 6 violations:  {len(result.violations)} (expected 0)")

    print("\n== the paper's ill-typed query is rejected ==")
    rejected = check_text(REJECTED_QUERY)
    assert not rejected.ok
    for diagnostic in rejected.diagnostics:
        print(f"  {diagnostic}")


if __name__ == "__main__":
    main()
