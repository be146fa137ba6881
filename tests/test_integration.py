"""End-to-end integration tests: source text → frontend → typed execution.

These tie every layer together the way a user would: the concrete syntax
in, answers out, with the type system active throughout.
"""

import pytest

from repro import TypedRunner, check_text, pretty
from repro.lp import Query
from repro.terms import Var


def run_file(source, max_answers=10):
    """Check ``source`` and execute all its queries; return the module and
    the list of per-query results."""
    module = check_text(source)
    assert module.ok, module.diagnostics.render()
    checker = module.moded_checker or module.checker
    runner = TypedRunner(checker, module.program)
    results = [
        runner.run(query, max_answers=max_answers, check_answers=True)
        for query in module.queries
    ]
    return module, results


def answers_of(result, variable):
    return [pretty(answer.apply(Var(variable))) for answer in result.answers]


def test_append_pipeline():
    module, results = run_file(
        """
        FUNC nil, cons.
        TYPE elist, nelist, list.
        elist >= nil.
        nelist(A) >= cons(A,list(A)).
        list(A) >= elist + nelist(A).
        PRED app(list(A),list(A),list(A)).
        app(nil,L,L).
        app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
        :- app(cons(nil,nil), cons(nil,nil), R).
        :- app(X, Y, cons(nil, nil)).
        """
    )
    assert answers_of(results[0], "R") == ["cons(nil, cons(nil, nil))"]
    assert len(results[1].answers) == 2
    assert all(result.ok for result in results)


def test_arithmetic_pipeline():
    _, results = run_file(
        """
        FUNC 0, succ, pred.
        TYPE nat, unnat, int.
        nat >= 0 + succ(nat).
        unnat >= 0 + pred(unnat).
        int >= nat + unnat.
        PRED plus(nat,nat,nat).
        plus(0,N,N).
        plus(succ(M),N,succ(K)) :- plus(M,N,K).
        PRED fib(nat,nat).
        fib(0,0).
        fib(succ(0),succ(0)).
        fib(succ(succ(N)),R) :- fib(succ(N),A), fib(N,B), plus(A,B,R).
        :- fib(succ(succ(succ(succ(succ(0))))), R).
        """
    )
    # fib(5) = 5.
    assert answers_of(results[0], "R") == ["succ(succ(succ(succ(succ(0)))))"]
    assert results[0].ok


def test_moded_pipeline_executes():
    module, results = run_file(
        """
        FUNC 0, succ, pred.
        TYPE nat, unnat, int.
        nat >= 0 + succ(nat).
        unnat >= 0 + pred(unnat).
        int >= nat + unnat.
        PRED produce(nat).
        MODE produce(OUT).
        produce(succ(0)).
        produce(0).
        PRED consume(int).
        MODE consume(IN).
        consume(0).
        consume(succ(0)).
        consume(pred(0)).
        PRED nat2int(nat, int).
        MODE nat2int(IN, OUT).
        nat2int(X, X).
        :- produce(X), nat2int(X, Y), consume(Y).
        """
    )
    assert module.moded_checker is not None
    result = results[0]
    assert len(result.answers) == 2
    assert result.ok, result.violations


def test_polymorphic_instantiation_per_query():
    # The same predicate used at two instantiations in one file.
    _, results = run_file(
        """
        FUNC nil, cons, 0, succ, pred.
        TYPE elist, nelist, list, nat, unnat, int.
        elist >= nil.
        nelist(A) >= cons(A,list(A)).
        list(A) >= elist + nelist(A).
        nat >= 0 + succ(nat).
        unnat >= 0 + pred(unnat).
        int >= nat + unnat.
        PRED len(list(A),nat).
        len(nil,0).
        len(cons(X,L),succ(N)) :- len(L,N).
        :- len(cons(0, cons(succ(0), nil)), N).
        :- len(cons(nil, nil), N).
        """
    )
    assert answers_of(results[0], "N") == ["succ(succ(0))"]
    assert answers_of(results[1], "N") == ["succ(0)"]
    assert all(result.ok for result in results)


def test_heterogeneous_ground_list_commits_nat():
    # The cover-inference path end to end.
    _, results = run_file(
        """
        FUNC nil, cons, 0, succ, pred.
        TYPE elist, nelist, list, nat, unnat, int.
        elist >= nil.
        nelist(A) >= cons(A,list(A)).
        list(A) >= elist + nelist(A).
        nat >= 0 + succ(nat).
        unnat >= 0 + pred(unnat).
        int >= nat + unnat.
        PRED member(A,list(A)).
        member(X,cons(X,L)).
        member(X,cons(Y,L)) :- member(X,L).
        :- member(X, cons(0, cons(succ(0), nil))).
        """
    )
    assert answers_of(results[0], "X") == ["0", "succ(0)"]
    assert results[0].ok


def test_deep_execution_stays_consistent():
    lines = ["FUNC nil, cons.", "TYPE elist, nelist, list.",
             "elist >= nil.", "nelist(A) >= cons(A,list(A)).",
             "list(A) >= elist + nelist(A).",
             "PRED app(list(A),list(A),list(A)).",
             "app(nil,L,L).",
             "app(cons(X,L),M,cons(X,N)) :- app(L,M,N)."]
    big = "nil"
    for _ in range(30):
        big = f"cons(nil, {big})"
    lines.append(f":- app({big}, nil, R).")
    _, results = run_file("\n".join(lines))
    assert len(results[0].answers) == 1
    assert results[0].steps >= 30
    assert results[0].ok
