"""The daemon's ``solve`` op: the TLP6xx constraint solver's view of a
file over the line-JSON protocol (and through the async server, which
forwards unknown ops to the same :class:`CheckService`)."""

from pathlib import Path

from repro.service.daemon import CheckService
from repro.service.project import fingerprint

CORPUS = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "corpus"
    / "lint"
    / "polytypes.tlp"
)

POLY_APPEND = """\
TYPE nat, int, list.
FUNC 0, s, nil, cons.
int >= nat.
nat >= 0 + s(nat).
int >= s(int).
list(A) >= nil + cons(A, list(A)).
PRED append(list(A), list(A), list(A)).
append(nil, Y, Y).
append(cons(H, T), Y, cons(H, Z)) :- append(T, Y, Z).
"""


def test_solve_by_path_reports_candidates_and_items():
    service = CheckService()
    response = service.handle({"op": "solve", "path": str(CORPUS)})
    assert response["ok"] and response["op"] == "solve"
    assert response["digest"] == fingerprint(CORPUS.read_text(encoding="utf-8"))
    assert response["candidates"] == ["int", "list(nat)", "nat"]
    by_line = {item["line"]: item for item in response["items"]}
    assert by_line[23]["satisfiable"] is False
    assert by_line[27]["witnesses"][0]["builtin"] is True
    assert "duration_s" in response


def test_solve_by_text_reports_rigid_variables():
    service = CheckService()
    response = service.handle({"op": "solve", "text": POLY_APPEND})
    assert response["ok"]
    for item in response["items"]:
        assert item["satisfiable"] is True
        [rigid] = [n for n in item["nodes"] if n["key"] == "type A"]
        assert rigid["rigid"] is True
        assert sorted(rigid["domain"]) == ["int", "nat"]


def test_solve_monomorphic_text_is_an_error():
    service = CheckService()
    response = service.handle(
        {"op": "solve", "text": "TYPE t.\nFUNC a.\nt >= a.\nPRED p(t).\np(a).\n"}
    )
    assert not response["ok"]
    assert "no polymorphic declarations" in response["error"]


def test_solve_reports_syntax_errors_without_dying():
    service = CheckService()
    response = service.handle({"op": "solve", "text": "PRED p("})
    assert not response["ok"] and response["op"] == "solve"
    # The daemon survives and keeps answering.
    assert service.handle({"op": "stats"})["ok"]


def test_solve_places_a_syntax_error_like_check():
    service = CheckService()
    text = "FUNC a.\np(a) :- .\n"
    solved = service.handle({"op": "solve", "text": text})
    checked = service.handle({"op": "check", "text": text})
    assert checked["diagnostics"] == ["2:9: error: expected a term (found '.')"]
    assert solved["error"] == "<text>:" + checked["diagnostics"][0]


def test_solve_needs_exactly_one_input():
    service = CheckService()
    assert not service.handle({"op": "solve"})["ok"]
    assert not service.handle(
        {"op": "solve", "text": "x.", "path": "y.tlp"}
    )["ok"]


def test_solve_unreadable_path_is_an_error():
    service = CheckService()
    response = service.handle({"op": "solve", "path": "/nonexistent.tlp"})
    assert not response["ok"] and "cannot read" in response["error"]


def test_stats_count_solves():
    service = CheckService()
    service.handle({"op": "solve", "text": POLY_APPEND})
    service.handle({"op": "solve", "path": str(CORPUS)})
    stats = service.handle({"op": "stats"})["stats"]
    assert stats["solves"] == 2
