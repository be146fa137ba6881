"""The LSP adapter: lifecycle, diagnostics with spans, code actions."""

import asyncio

from repro.service.aserver.lsp import INFER_ACTION_TITLE, LspServer, diagnostic_to_lsp
from repro.service.aserver.protocol import (
    METHOD_NOT_FOUND,
    JsonRpcStream,
    jsonrpc_notification,
    jsonrpc_request,
)
from repro.workloads import APPEND

URI = "file:///tmp/test-doc.tlp"

#: ``cons`` is used but never declared: the checker flags the clause and
#: the linter's TLP204 carries a machine-applicable ``FUNC cons.`` fix-it.
UNDECLARED_FUNC = """\
FUNC nil.
TYPE elist.
elist >= nil.
PRED p(elist).
p(cons).
"""

#: Well-formed clauses for a predicate nobody declared: success-set
#: inference can reconstruct the missing ``PRED`` line.
UNDECLARED_PRED = """\
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).
app(nil,L,L).
app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
"""


class _Session:
    """A test client talking LSP to an in-process server over TCP."""

    def __init__(self, stream):
        self.stream = stream
        self.notifications = []
        self._next_id = 0

    async def request(self, method, params=None):
        self._next_id += 1
        await self.stream.write(jsonrpc_request(self._next_id, method, params))
        while True:
            message = await asyncio.wait_for(self.stream.read(), timeout=30)
            assert message is not None, "server hung up mid-request"
            if message.get("id") == self._next_id:
                return message
            self.notifications.append(message)

    async def notify(self, method, params=None):
        await self.stream.write(jsonrpc_notification(method, params))

    async def wait_notification(self, method):
        for index, message in enumerate(self.notifications):
            if message.get("method") == method:
                return self.notifications.pop(index)
        while True:
            message = await asyncio.wait_for(self.stream.read(), timeout=30)
            assert message is not None, "server hung up while waiting"
            if message.get("method") == method:
                return message
            self.notifications.append(message)


def _run(scenario):
    """Wire an LspServer to a client session over a loopback socket."""

    async def runner():
        done = asyncio.get_running_loop().create_future()

        async def on_connect(reader, writer):
            server = LspServer(JsonRpcStream(reader, writer))
            try:
                done.set_result(await server.serve())
            except Exception as error:  # pragma: no cover
                if not done.done():
                    done.set_exception(error)

        listener = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        session = _Session(JsonRpcStream(reader, writer))
        try:
            result = await scenario(session)
        finally:
            await session.stream.close()
            listener.close()
            await listener.wait_closed()
        exit_code = await asyncio.wait_for(done, timeout=10)
        return result, exit_code

    return asyncio.run(runner())


async def _handshake(session):
    response = await session.request("initialize", {"capabilities": {}})
    return response["result"]


def test_initialize_shutdown_exit_lifecycle():
    async def scenario(session):
        result = await _handshake(session)
        sync = result["capabilities"]["textDocumentSync"]
        assert sync == {"openClose": True, "change": 1}
        assert "quickfix" in result["capabilities"]["codeActionProvider"][
            "codeActionKinds"
        ]
        assert result["serverInfo"]["name"] == "tlp-lsp"
        shutdown = await session.request("shutdown")
        assert shutdown["result"] is None
        await session.notify("exit")

    _, exit_code = _run(scenario)
    assert exit_code == 0


def test_exit_without_shutdown_is_code_one():
    async def scenario(session):
        await _handshake(session)
        await session.notify("exit")

    _, exit_code = _run(scenario)
    assert exit_code == 1


def test_did_open_publishes_diagnostics_with_spans():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "languageId": "tlp", "version": 1,
                              "text": UNDECLARED_FUNC}},
        )
        published = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        params = published["params"]
        assert params["uri"] == URI
        diagnostics = params["diagnostics"]
        assert diagnostics, "expected at least one TLP diagnostic"
        sources = {d["source"] for d in diagnostics}
        assert "tlp-lint" in sources
        tlp204 = [d for d in diagnostics if d.get("code") == "TLP204"]
        assert tlp204, f"no TLP204 in {diagnostics}"
        # `cons` sits on line 5 (0-based 4); the span must cover it.
        span = tlp204[0]["range"]
        assert span["start"]["line"] == 4
        assert span["end"]["line"] >= span["start"]["line"]
        assert span["end"]["character"] > span["start"]["character"] or (
            span["end"]["line"] > span["start"]["line"]
        )
        return diagnostics

    diagnostics, _ = _run(scenario)
    assert any(d["severity"] in (1, 2) for d in diagnostics)


def test_code_action_applies_a_fixit_that_resolves_the_finding():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "version": 1, "text": UNDECLARED_FUNC}},
        )
        published = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        target = next(
            d for d in published["params"]["diagnostics"]
            if d.get("code") == "TLP204"
        )
        response = await session.request(
            "textDocument/codeAction",
            {
                "textDocument": {"uri": URI},
                "range": target["range"],
                "context": {"diagnostics": [target], "only": ["quickfix"]},
            },
        )
        actions = response["result"]
        assert actions, "expected a quickfix for TLP204"
        action = next(a for a in actions if "FUNC cons." in a["title"])
        (edit,) = action["edit"]["changes"][URI]
        assert edit["newText"].startswith("FUNC cons.")
        # Apply the edit the way an editor would (full-line insert).
        line = edit["range"]["start"]["line"]
        assert edit["range"]["start"] == edit["range"]["end"]
        lines = UNDECLARED_FUNC.splitlines(keepends=True)
        lines.insert(line, edit["newText"])
        fixed = "".join(lines)
        await session.notify(
            "textDocument/didChange",
            {
                "textDocument": {"uri": URI, "version": 2},
                "contentChanges": [{"text": fixed}],
            },
        )
        republished = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        remaining = [
            d for d in republished["params"]["diagnostics"]
            if d.get("code") == "TLP204"
        ]
        assert remaining == [], "fix-it did not resolve the finding"
        await session.notify("exit")

    _run(scenario)


def test_infer_declarations_source_action():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "version": 1, "text": UNDECLARED_PRED}},
        )
        await session.wait_notification("textDocument/publishDiagnostics")
        response = await session.request(
            "textDocument/codeAction",
            {
                "textDocument": {"uri": URI},
                "range": {
                    "start": {"line": 0, "character": 0},
                    "end": {"line": 0, "character": 0},
                },
                "context": {"diagnostics": [], "only": ["source"]},
            },
        )
        actions = response["result"]
        infer = [a for a in actions if a["title"] == INFER_ACTION_TITLE]
        assert infer, f"no infer action in {[a['title'] for a in actions]}"
        (edit,) = infer[0]["edit"]["changes"][URI]
        assert edit["range"]["start"] == {"line": 0, "character": 0}
        assert "PRED app(" in edit["newText"]
        await session.notify("exit")

    _run(scenario)


def test_did_close_clears_diagnostics_and_unknown_method_errors():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "version": 1, "text": UNDECLARED_FUNC}},
        )
        await session.wait_notification("textDocument/publishDiagnostics")
        await session.notify(
            "textDocument/didClose", {"textDocument": {"uri": URI}}
        )
        cleared = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        assert cleared["params"] == {"uri": URI, "diagnostics": []}
        response = await session.request("workspace/symbol", {"query": "x"})
        assert response["error"]["code"] == METHOD_NOT_FOUND
        await session.notify("exit")

    _run(scenario)


def test_well_typed_document_publishes_no_errors():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "version": 1, "text": APPEND}},
        )
        published = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        assert [
            d for d in published["params"]["diagnostics"] if d["severity"] == 1
        ] == []
        await session.notify("exit")

    _run(scenario)


#: Declared modes with an ill-moded query: ``makeint`` produces at int
#: but ``usenat`` consumes at nat, so TLP502 fires with a machine
#: fix-it that inserts the ``int2nat`` filter goal.
ILL_MODED = """\
TYPE nat, int.
FUNC 0, s, pred.
int >= nat.
nat >= 0 + s(nat).
int >= pred(int).
PRED int2nat(int, nat).
MODE int2nat(IN, OUT).
int2nat(0, 0).
int2nat(s(X), s(Y)) :- int2nat(X, Y).
PRED makeint(int).
MODE makeint(OUT).
makeint(0).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
:- makeint(X), usenat(X).
"""


def _apply_span_edit(text, edit):
    """Apply one LSP text edit (0-based positions) to a document."""
    lines = text.split("\n")

    def offset(position):
        return (
            sum(len(line) + 1 for line in lines[: position["line"]])
            + position["character"]
        )

    start = offset(edit["range"]["start"])
    end = offset(edit["range"]["end"])
    return text[:start] + edit["newText"] + text[end:]


def test_tlp502_quickfix_inserts_filter_and_resolves_the_finding():
    async def scenario(session):
        await _handshake(session)
        await session.notify(
            "textDocument/didOpen",
            {"textDocument": {"uri": URI, "version": 1, "text": ILL_MODED}},
        )
        published = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        target = next(
            d for d in published["params"]["diagnostics"]
            if d.get("code") == "TLP502"
        )
        assert target["severity"] == 1  # ill-moded calls are errors
        response = await session.request(
            "textDocument/codeAction",
            {
                "textDocument": {"uri": URI},
                "range": target["range"],
                "context": {"diagnostics": [target], "only": ["quickfix"]},
            },
        )
        action = next(
            a for a in response["result"] if "filter goal" in a["title"]
        )
        (edit,) = action["edit"]["changes"][URI]
        assert "int2nat(X, X_nat)" in edit["newText"]
        fixed = _apply_span_edit(ILL_MODED, edit)
        assert "usenat(X_nat)" in fixed
        await session.notify(
            "textDocument/didChange",
            {
                "textDocument": {"uri": URI, "version": 2},
                "contentChanges": [{"text": fixed}],
            },
        )
        republished = await session.wait_notification(
            "textDocument/publishDiagnostics"
        )
        remaining = [
            d for d in republished["params"]["diagnostics"]
            if str(d.get("code", "")).startswith("TLP5")
        ]
        assert remaining == [], f"quickfix left mode findings: {remaining}"
        await session.notify("exit")

    _run(scenario)


def test_a_syntax_error_is_published_at_its_token_by_checker_and_linter():
    found = LspServer._analyze("FUNC a.\np(a) :- .\n", "/tmp/broken.tlp")
    published = [diagnostic_to_lsp(diagnostic, source) for diagnostic, source in found]
    assert [entry["source"] for entry in published] == ["tlp-check", "tlp-lint"]
    expected = {"start": {"line": 1, "character": 8}, "end": {"line": 1, "character": 9}}
    assert [entry["range"] for entry in published] == [expected, expected]
