"""Wire framing for the async check server family.

Two framings, one async core:

* **line-JSON** — one JSON object per ``\\n``-terminated line, carried
  over stdio and TCP/unix-socket streams.  Requests may carry an ``"id"``
  (any JSON value); responses echo it, which is what makes concurrent
  in-flight requests and the ``cancel`` op addressable.
* **LSP JSON-RPC** — ``Content-Length``-headed frames as specified by
  the Language Server Protocol's base protocol, used by ``tlp-lsp``
  over stdio (and over sockets under test).

Both framings are exposed as pure encode/decode helpers plus thin
asyncio stream wrappers, so the server, the LSP adapter, the tests, and
the benchmark all share one implementation.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

__all__ = [
    "encode_line",
    "decode_line",
    "encode_lsp",
    "read_lsp_message",
    "JsonRpcStream",
    "jsonrpc_request",
    "jsonrpc_response",
    "jsonrpc_error",
    "jsonrpc_notification",
]

JSONRPC_VERSION = "2.0"

#: JSON-RPC error codes the adapter uses (LSP base protocol).
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INTERNAL_ERROR = -32603


# -- line-JSON ---------------------------------------------------------------


def encode_line(message: Dict[str, Any]) -> bytes:
    """One request/response as a ``\\n``-terminated JSON line."""
    return (json.dumps(message, ensure_ascii=False) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Any:
    """Parse one line into a JSON value (raises ``json.JSONDecodeError``)."""
    return json.loads(line.decode("utf-8"))


# -- LSP base-protocol framing ----------------------------------------------


def encode_lsp(message: Dict[str, Any]) -> bytes:
    """One JSON-RPC message as a ``Content-Length``-headed frame."""
    body = json.dumps(message, ensure_ascii=False).encode("utf-8")
    header = f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
    return header + body


async def read_lsp_message(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on a clean EOF.

    Unknown headers (``Content-Type`` etc.) are skipped, per the spec;
    a malformed frame raises ``ValueError``.
    """
    content_length: Optional[int] = None
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between frames
            raise ValueError("truncated LSP header") from error
        if line == b"\r\n":
            break  # end of headers
        name, _, value = line.decode("ascii", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as error:
                raise ValueError(f"bad Content-Length {value!r}") from error
    if content_length is None:
        raise ValueError("LSP frame without Content-Length")
    body = await reader.readexactly(content_length)
    message = json.loads(body.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("LSP message body must be a JSON object")
    return message


class JsonRpcStream:
    """A duplex JSON-RPC connection over asyncio streams.

    Reads are sequential (one consumer); writes are serialized by an
    internal lock so responses and server-initiated notifications
    (``publishDiagnostics``) can interleave safely.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self._write_lock = asyncio.Lock()

    async def read(self) -> Optional[Dict[str, Any]]:
        return await read_lsp_message(self.reader)

    async def write(self, message: Dict[str, Any]) -> None:
        async with self._write_lock:
            self.writer.write(encode_lsp(message))
            await self.writer.drain()

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- JSON-RPC message constructors ------------------------------------------


def jsonrpc_request(
    request_id: Any, method: str, params: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    message: Dict[str, Any] = {
        "jsonrpc": JSONRPC_VERSION,
        "id": request_id,
        "method": method,
    }
    if params is not None:
        message["params"] = params
    return message


def jsonrpc_response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def jsonrpc_error(
    request_id: Any, code: int, message: str
) -> Dict[str, Any]:
    return {
        "jsonrpc": JSONRPC_VERSION,
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def jsonrpc_notification(
    method: str, params: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    message: Dict[str, Any] = {"jsonrpc": JSONRPC_VERSION, "method": method}
    if params is not None:
        message["params"] = params
    return message
