"""--typed-run's engine: per-resolvent subject reduction (Theorem 6)."""

from repro.checker import check_text
from repro.core.typed_run import TYPED_RUN_CODE, TypedRunner
from repro.workloads import APPEND

MODED = """\
TYPE nat, int.
FUNC 0, succ, pred.
int >= nat.
nat >= 0 + succ(nat).
int >= pred(int).
PRED produce(nat).
MODE produce(OUT).
produce(succ(0)).
PRED consume(int).
MODE consume(IN).
consume(X) :- nat2int(X, X).
PRED nat2int(nat, int).
MODE nat2int(IN, OUT).
nat2int(X, X).
:- produce(X), consume(X).
"""

#: makeint delivers a genuine int (pred(0)) into a nat-only consumer:
#: statically plausible under X : nat, dynamically a Theorem 6 violation.
ILL_MODED = """\
TYPE nat, int.
FUNC 0, pred.
int >= nat.
nat >= 0.
int >= pred(int).
PRED makeint(int).
MODE makeint(OUT).
makeint(pred(0)).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
:- makeint(X), usenat(X).
"""


def runner_for(text):
    module = check_text(text)
    checker = module.moded_checker or module.checker
    assert checker is not None
    return module, TypedRunner(checker, module.program)


def test_well_moded_query_holds_subject_reduction():
    module, runner = runner_for(MODED)
    result = runner.run(module.queries[0])
    assert result.ok and not result.aborted
    assert len(result.answers) == 1
    assert result.steps >= 2  # at least one resolvent per body goal


def test_ill_moded_query_aborts_at_the_first_bad_resolvent():
    module, runner = runner_for(ILL_MODED)
    result = runner.run(module.queries[0])
    assert result.aborted and not result.ok
    violation = result.violation
    assert violation.step == 1
    assert "usenat(pred(0))" in violation.render()
    assert "subject reduction violated at resolution step 1" in violation.render()


def test_abort_on_violation_false_records_but_keeps_running():
    module, runner = runner_for(ILL_MODED)
    result = runner.run(module.queries[0], abort_on_violation=False)
    assert result.violation is not None
    assert result.violation is result.violations[0]
    # Execution continued past the violation: the query simply fails.
    assert result.answers == []
    assert result.steps > result.violation.step or result.steps >= 1


def test_unmoded_program_uses_the_strict_checker():
    module = check_text(APPEND + ":- app(cons(nil,nil), nil, R).\n")
    assert module.moded_checker is None
    runner = TypedRunner(module.checker, module.program)
    result = runner.run(module.queries[0])
    assert result.ok and len(result.answers) == 1


def test_max_answers_stops_enumeration():
    module = check_text(APPEND + ":- app(X, Y, cons(nil,nil)).\n")
    runner = TypedRunner(module.checker, module.program)
    result = runner.run(module.queries[0], max_answers=1)
    assert result.ok and len(result.answers) == 1


def test_typed_run_code_is_reserved_outside_the_static_family():
    from repro.analysis import default_registry

    assert TYPED_RUN_CODE == "TLP590"
    assert all(rule.code != TYPED_RUN_CODE for rule in default_registry())


#: A five-step countdown, then an OUT int flowing into an IN nat consumer:
#: the violated resolvent ``makeint(_G…), usenat(_G…)`` holds a generated
#: variable, drawn afresh by every run.
COUNTDOWN = ILL_MODED.replace(":- makeint(X), usenat(X).\n", "") + (
    "FUNC succ.\nnat >= succ(nat).\n"
    "PRED down(nat).\nMODE down(IN).\ndown(0).\ndown(succ(N)) :- down(N).\n"
    "PRED relay(nat).\nMODE relay(IN).\nrelay(0) :- makeint(X), usenat(X).\n"
    ":- down(succ(succ(succ(succ(succ(0)))))), relay(0).\n"
)


def test_a_violation_renders_the_same_bytes_on_every_run():
    module, runner = runner_for(COUNTDOWN)
    texts = [runner.run(module.queries[0]).violation.render() for _ in range(3)]
    assert texts[0] == texts[1] == texts[2]
    assert "resolvent `makeint(_G0), usenat(_G0)`" in texts[0]
    assert "variable _G0:" in texts[0]


def test_rendering_keeps_the_users_names_and_never_reuses_them():
    from repro.core.typed_run import SubjectReductionViolation
    from repro.lang import parse_atom

    violation = SubjectReductionViolation(
        step=3,
        goals=(parse_atom("p(_G0, _G41, X)"), parse_atom("q(_G41, _G7)")),
        reason="_G7 : list(_E12) against _E3 and _E12",
        written=frozenset({"_G0", "X"}),
    )
    assert violation.render() == (
        "subject reduction violated at resolution step 3: resolvent "
        "`p(_G0, _G1, X), q(_G1, _G2)` is not well-typed — "
        "_G2 : list(_E0) against _E1 and _E0"
    )
