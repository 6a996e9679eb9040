"""Minimal HTTP/1.1 primitives for the gateway — stdlib only.

Just enough of RFC 9112 to front the wire protocol safely: GET requests with
query strings, keep-alive, bounded request lines and header blocks, and a
hard refusal of request bodies (the gateway is read-only, so a body — chunked
or Content-Length — is always a client error).  Everything hostile gets a
clean 4xx/5xx with ``close``, never a hang: the protocol golden tests in
``tests/test_gateway_protocol.py`` pin this down byte-for-byte.

:class:`HttpError` carries the status code a failure maps to; the daemon
renders it as the same JSON error envelope the wire protocol uses
(``{"status": "error", "error_type": ..., "message": ...}``) so HTTP clients
see exactly the typed errors socket clients do.

Parsing is synchronous over a binary file (``conn.makefile("rb")`` in the
gateway, :class:`io.BytesIO` in the golden tests): the gateway serves each
connection on its own thread, so a blocking read stalls only that client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "render_head",
    "render_response",
    "json_body",
    "REASONS",
    "MAX_REQUEST_LINE_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_HEADER_COUNT",
    "SERVER_NAME",
]

#: Caps on the request head; past them the request is answered (414/431) and
#: the connection closed, because the stream position is no longer trusted.
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 32768
MAX_HEADER_COUNT = 100

SERVER_NAME = "repro-gateway"

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}


class HttpError(Exception):
    """A request that cannot be served, carrying its HTTP status.

    ``close`` marks failures after which the connection must not be reused
    (framing damage, unread request bodies); the handler honours it with
    ``Connection: close``.
    """

    def __init__(self, status: int, message: str, close: bool = False) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)
        self.close = bool(close)


@dataclass
class Request:
    """One parsed request head (the gateway accepts no bodies)."""

    method: str
    path: str
    query: Dict[str, str]
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    nbytes: int = 0  # wire size of the request head, for accounting

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"

    def accepts_json(self) -> bool:
        """Whether the client asked for a JSON body over raw octets."""
        accept = self.headers.get("accept", "")
        return "application/json" in accept.lower()


def _read_line(fh: BinaryIO, cap: int, status: int) -> bytes:
    """One CRLF-terminated line within ``cap`` bytes, or a closing HttpError."""
    line = fh.readline(cap + 1)
    if len(line) > cap:
        raise HttpError(status, "request line or header line too long", close=True)
    return line


def read_request(fh: BinaryIO) -> Optional[Request]:
    """Parse one request head; ``None`` on clean EOF before any bytes.

    Raises :class:`HttpError` (always with ``close=True`` — a malformed head
    leaves the stream position unknowable) for anything the gateway refuses:
    oversized lines (414/431), malformed request lines or headers (400),
    unsupported HTTP versions (505), and request bodies (413/501).  Socket
    errors (timeouts included) propagate as ``OSError``.
    """
    line = _read_line(fh, MAX_REQUEST_LINE_BYTES, 414)
    if not line:
        return None
    nbytes = len(line)
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line", close=True)
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(505, f"unsupported protocol version {version!r}", close=True)

    headers: Dict[str, str] = {}
    while True:
        line = _read_line(fh, MAX_HEADER_BYTES, 431)
        nbytes += len(line)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "connection closed inside request headers", close=True)
        if nbytes > MAX_HEADER_BYTES:
            raise HttpError(431, "request header block too large", close=True)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {line!r}", close=True)
        headers[name.strip().lower()] = value.strip()
        if len(headers) > MAX_HEADER_COUNT:
            raise HttpError(431, "too many request headers", close=True)

    # Read-only surface: any request body is refused, chunked doubly so (the
    # gateway will not parse a chunk stream it has no use for).
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported", close=True)
    try:
        content_length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length header", close=True)
    if content_length > 0:
        raise HttpError(413, "request bodies are not accepted", close=True)

    raw_path, _, raw_query = target.partition("?")
    query: Dict[str, str] = {}
    for key, value in parse_qsl(raw_query, keep_blank_values=True):
        query[key] = value
    return Request(
        method=method,
        path=unquote(raw_path),
        query=query,
        version=version,
        headers=headers,
        nbytes=nbytes,
    )


def render_head(
    status: int,
    content_length: int,
    content_type: str = "application/json",
    extra_headers: Optional[List[Tuple[str, str]]] = None,
    keep_alive: bool = True,
) -> bytes:
    """The response head alone; the caller streams the body behind it."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Server: {SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {content_length}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers or ():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[List[Tuple[str, str]]] = None,
    keep_alive: bool = True,
) -> bytes:
    """The full response (head + body) as one bytes, Content-Length framed."""
    head = render_head(
        status, len(body), content_type, extra_headers, keep_alive=keep_alive
    )
    return head + body


def json_body(payload: Dict) -> bytes:
    """Compact JSON encoding for response bodies (sorted, ASCII-safe)."""
    return (json.dumps(payload, sort_keys=True, default=str) + "\n").encode("utf-8")
