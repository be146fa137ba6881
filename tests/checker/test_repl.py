"""REPL tests via the non-interactive session driver."""

from pathlib import Path

import pytest

from repro.checker.repl import Repl, run_session
from repro.checker import check_text
from repro.workloads import APPEND, NATURALS_ARITHMETIC


def test_query_answers():
    out = run_session(APPEND, ["app(cons(nil,nil), nil, R)."])
    assert out == ["R = cons(nil, nil)"]


def test_query_without_dot_and_with_prefix():
    out = run_session(APPEND, [":- app(nil, nil, R)"])
    assert out == ["R = nil"]


def test_ground_query_yes_no():
    out = run_session(APPEND, ["app(nil, nil, nil).", "app(nil, nil, cons(nil,nil))."])
    assert out == ["yes.", "no."]


def test_ill_typed_query_reported():
    out = run_session(NATURALS_ARITHMETIC, ["plus(0, nil, R)."])
    assert len(out) == 1
    assert out[0].startswith("ill-typed query")


def test_syntax_error_reported():
    out = run_session(APPEND, ["app(((."])
    assert out[0].startswith("syntax error")


def test_syntax_error_columns_count_in_the_typed_line():
    # `?` is column 10 of the line as typed, with or without `:-`.
    out = run_session(
        APPEND,
        ["app(nil, ?, R).", ":- app(nil, ?, R).", ":why app(nil, ?, R)"],
    )
    assert out == [
        "syntax error: 1:10: unexpected character '?'",
        "syntax error: 1:13: unexpected character '?'",
        "syntax error: 1:10: unexpected character '?'",
    ]


def test_sub_command():
    out = run_session(NATURALS_ARITHMETIC, [":sub int >= nat", ":sub nat >= int"])
    assert out == ["int >= nat: yes", "nat >= int: no"]


def test_member_command():
    out = run_session(
        NATURALS_ARITHMETIC,
        [":member nat succ(0)", ":member nat pred(0)"],
    )
    assert out == [
        "succ(0) in M[nat]: yes",
        "pred(0) in M[nat]: no",
    ]


def test_member_requires_ground():
    out = run_session(NATURALS_ARITHMETIC, [":member nat succ(X)"])
    assert out == ["membership needs a ground term"]


def test_types_command():
    out = run_session(NATURALS_ARITHMETIC, [":types succ(0)"])
    assert len(out) == 1
    assert "nat" in out[0]
    assert "int" in out[0]
    assert "unnat" not in out[0]


def test_constrained_query_in_repl():
    # le(X, succ(0)) enumerates X ∈ {0, succ(0)} (finite); the unnat
    # store then keeps only 0.
    out = run_session(NATURALS_ARITHMETIC, ["le(X, succ(0)), X : unnat."])
    assert out == ["X = 0"]


def test_constrained_residual_shown():
    out = run_session(NATURALS_ARITHMETIC, ["X : nat."])
    assert len(out) == 1
    assert "| X : nat" in out[0]


def test_why_explains_accepted_query():
    out = run_session(APPEND, [":why app(cons(nil,nil), nil, R)"])
    text = "\n".join(out)
    assert text.startswith("well-typed")
    assert "goal 1:" in text
    assert "R : list" in text


def test_why_explains_rejected_query():
    out = run_session(NATURALS_ARITHMETIC, [":why plus(0, nil, R)"])
    text = "\n".join(out)
    assert text.startswith("NOT well-typed")


def test_help_and_unknown():
    out = run_session(APPEND, [":help"])
    assert any("commands" in line for line in out)
    out = run_session(APPEND, [":frobnicate"])
    assert "unknown command" in out[0]


def test_quit_stops_session():
    out = run_session(APPEND, [":quit", "app(nil, nil, R)."])
    assert out == []


def test_blank_and_comment_lines_ignored():
    out = run_session(APPEND, ["", "   ", "% a comment"])
    assert out == []


def test_repl_refuses_broken_module():
    module = check_text("FUNC .")
    with pytest.raises(ValueError):
        Repl(module)


def test_max_answers_respected():
    module = check_text(APPEND)
    repl = Repl(module, max_answers=2)
    out = repl.execute("app(X, Y, cons(nil, cons(nil, nil))).")
    assert len(out) == 2


def test_profile_command_cycle():
    from repro import obs

    try:
        out = run_session(
            APPEND,
            [
                ":profile",  # off: hint message
                ":profile on",
                "app(cons(nil,nil), nil, R).",
                ":profile",  # table over the recorded query spans
                ":profile reset",
                ":profile",  # cleared: nothing profiled yet
                ":profile off",
            ],
        )
    finally:
        obs.TRACER.clear_sinks()
    text = "\n".join(out)
    assert "profiler off" in out[0]
    assert "profiler on" in text
    assert "span profile:" in text
    assert "typed_run" in text  # real resolution spans were captured
    assert "(no spans profiled)" in text  # after :profile reset
    assert out[-1] == "profiler off"
    assert not obs.TRACER.enabled


MODED_SOURCE = """\
TYPE nat, int.
FUNC 0, succ, pred.
int >= nat.
nat >= 0 + succ(nat).
int >= pred(int).
PRED produce(nat).
MODE produce(OUT).
produce(succ(0)).
PRED nat2int(nat, int).
MODE nat2int(IN, OUT).
nat2int(X, X).
"""


def test_modes_command_lists_declarations_and_verdicts():
    out = run_session(MODED_SOURCE, [":modes"])
    assert any("produce(OUT)" in line for line in out)
    assert any("nat2int(IN, OUT)" in line for line in out)
    # The plain fact passes strictly; the widening echo clause needs
    # the directional fallback.
    assert any(
        "produce(succ(0))" in line and "well-moded via strict" in line
        for line in out
    )
    assert any(
        "nat2int(X, X)" in line and "well-moded via directional" in line
        for line in out
    )


EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

MODED_CONSTRAINED_SOURCE = MODED_SOURCE + """\
PRED pick(int).
MODE pick(OUT).
pick(X) :- produce(X), X : nat.
"""


def _modes_by_rechecking(module):
    """What ``:modes`` printed when it re-ran the moded checker per clause."""
    from repro.lang.render import render_modes

    out = render_modes(module.modes).splitlines()
    out.append("")
    for clause in module.program:
        if any(goal.functor == ":" and len(goal.args) == 2 for goal in clause.body):
            out.append(f"{clause}  --  constrained (checked dynamically)")
            continue
        report = module.moded_checker.check_clause(clause)
        if report.well_typed:
            out.append(f"{clause}  --  well-moded via {report.via}")
        else:
            out.append(f"{clause}  --  NOT well-moded: {report.reason}")
    return out


@pytest.mark.parametrize(
    "source",
    [
        MODED_SOURCE,
        MODED_CONSTRAINED_SOURCE,
        (EXAMPLES / "modes.tlp").read_text(encoding="utf-8"),
    ],
    ids=["moded", "moded-constrained", "examples-modes"],
)
def test_modes_command_prints_the_frontend_verdicts(source, monkeypatch):
    from repro.core.moded_welltyped import ModedWellTypedChecker

    module = check_text(source)
    assert module.ok, module.diagnostics.render()
    expected = _modes_by_rechecking(module)
    repl = Repl(module)

    def no_recheck(self, clause):
        raise AssertionError(":modes re-ran the clause check")

    monkeypatch.setattr(ModedWellTypedChecker, "check_clause", no_recheck)
    assert repl.execute(":modes") == expected


def test_modes_command_without_declarations():
    out = run_session(APPEND, [":modes"])
    assert out == [
        "no MODE declarations in the loaded module "
        "(strict Definition 16 applies everywhere)"
    ]


def test_modes_command_rejects_arguments():
    out = run_session(MODED_SOURCE, [":modes produce"])
    assert out == ["usage: :modes (no arguments)"]


def test_help_mentions_modes():
    out = run_session(APPEND, [":help"])
    assert any(":modes" in line for line in out)


# -- :solve -------------------------------------------------------------------


def test_solve_command_renders_polymorphic_constraint_graphs():
    out = run_session(APPEND, [":solve"])
    assert any(line.startswith("candidate ground types:") for line in out)
    assert any("satisfiable" in line for line in out)
    assert any(line.strip().startswith("type var A:") for line in out)


def test_solve_command_without_polymorphism():
    out = run_session(NATURALS_ARITHMETIC, [":solve"])
    assert out == [
        "nothing to solve: no polymorphic declarations or built-in "
        "constraint goals in the loaded module"
    ]


def test_solve_command_rejects_arguments():
    out = run_session(APPEND, [":solve app"])
    assert out == ["usage: :solve (no arguments)"]


def test_help_mentions_solve():
    out = run_session(APPEND, [":help"])
    assert any(":solve" in line for line in out)


# -- a search cut off by the depth bound ------------------------------------------


def _tower(depth):
    return "succ(" * depth + "0" + ")" * depth


def test_constrained_query_cut_off_names_the_depth_bound():
    # The answer lies about 400 steps deep, past the constrained bound.
    query = f"R : nat, plus({_tower(400)}, 0, R)."
    out = run_session(NATURALS_ARITHMETIC, [query])
    assert out == [
        "no answer within depth limit 300: the search was cut off."
    ]


def test_constrained_query_within_the_bound_still_answers():
    out = run_session(NATURALS_ARITHMETIC, [f"R : nat, plus({_tower(3)}, 0, R)."])
    assert out == [f"R = {_tower(3)}"]


def test_typed_query_has_no_depth_bound():
    # Typed queries run unbounded, so a deep answer is still found.
    out = run_session(NATURALS_ARITHMETIC, [f"plus({_tower(400)}, 0, R)."])
    assert out == [f"R = {_tower(400)}"]
    assert run_session(NATURALS_ARITHMETIC, ["plus(0, 0, succ(0))."]) == ["no."]
