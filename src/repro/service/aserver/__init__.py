"""repro.service.aserver — the asyncio multi-client service family.

Three layers over one :class:`~repro.service.daemon.CheckService` brain:

* :mod:`~repro.service.aserver.protocol` — wire framing: line-JSON with
  request ids and LSP ``Content-Length`` JSON-RPC, as pure helpers plus
  asyncio wrappers;
* :mod:`~repro.service.aserver.server` — ``tlp-aserve``: stdio and
  TCP/unix-socket listeners, per-client bounded queues (backpressure),
  thread-pool check execution, out-of-band ``cancel`` reaching
  clause-boundary checkpoints, workspace ops, graceful drain;
* :mod:`~repro.service.aserver.workspace` — the dependency-closure
  invalidation layer: declaration-dependency graph from corpus digests,
  stat-polling watcher, re-check exactly the closure of a change while
  everything outside it replays from the content-addressed cache;
* :mod:`~repro.service.aserver.lsp` — ``tlp-lsp``: the Language Server
  Protocol adapter (publishDiagnostics with spans, fix-it code actions,
  declaration-inference source action) on the same async core.

``docs/service.md`` documents the protocol and the editor wiring.
"""

from .protocol import (
    JsonRpcStream,
    decode_line,
    encode_line,
    encode_lsp,
    jsonrpc_error,
    jsonrpc_notification,
    jsonrpc_request,
    jsonrpc_response,
    read_lsp_message,
)
from .server import DEFAULT_MAX_QUEUE, AsyncCheckServer
from .workspace import RecheckReport, StatWatcher, Workspace
from .lsp import LspServer

__all__ = [
    "AsyncCheckServer",
    "DEFAULT_MAX_QUEUE",
    "JsonRpcStream",
    "LspServer",
    "RecheckReport",
    "StatWatcher",
    "Workspace",
    "decode_line",
    "encode_line",
    "encode_lsp",
    "jsonrpc_error",
    "jsonrpc_notification",
    "jsonrpc_request",
    "jsonrpc_response",
    "read_lsp_message",
]
