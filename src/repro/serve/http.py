"""Minimal HTTP/1.1, SSE and WebSocket plumbing over asyncio streams.

Just enough of each protocol for the serving layer, implemented on the
stdlib only:

* request parsing (request line, headers, ``Content-Length`` bodies);
* response building with keep-alive disabled (one request per
  connection keeps the server loop trivial and the load-client honest);
* Server-Sent Events framing (``id:`` + ``data:`` lines);
* the WebSocket server handshake (RFC 6455 ``Sec-WebSocket-Accept``)
  and frame codec — unmasked server→client text frames, masked
  client→server frames, close/ping handling.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Largest client WebSocket frame payload read.  Clients only send
#: control frames here (close and ping, at most 125 bytes each per
#: RFC 6455); a larger declared length is refused before any of the
#: payload is buffered.
MAX_WS_FRAME_BYTES = 64 * 1024

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: RFC 6455 handshake GUID
_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

WS_TEXT = 0x1
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA
#: RFC 6455 close code: a message too big to process
WS_CLOSE_TOO_BIG = 1009


class HttpError(Exception):
    """A protocol-level failure carrying an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class WsFrameTooLarge(Exception):
    """A client frame declared a payload over :data:`MAX_WS_FRAME_BYTES`."""


@dataclass
class HttpRequest:
    """One parsed request: method, split path, query params, headers, body."""

    method: str
    path: str
    segments: tuple[str, ...]
    query: dict[str, str]
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )


async def read_request(reader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrun, reset
        if getattr(exc, "partial", b"") == b"":
            return None
        raise HttpError(400, "malformed request head") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    path = unquote(split.path)
    segments = tuple(seg for seg in path.split("/") if seg)
    query = dict(parse_qsl(split.query))
    length = headers.get("content-length", "0")
    try:
        n = int(length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length!r}") from None
    if n < 0:
        raise HttpError(400, f"bad Content-Length {length!r}")
    if n > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(n) if n else b""
    return HttpRequest(method, path, segments, query, headers, body)


def response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def response_with_headers(status: int, body: bytes, extra: dict) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# -- Server-Sent Events ----------------------------------------------------

SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n"
    b"\r\n"
)


def sse_event(
    data: str, event: str | None = None, event_id: int | str | None = None
) -> bytes:
    """One SSE frame; ``data`` must be newline-free (our JSON lines are).

    ``event_id`` becomes the frame's ``id:`` line — browsers (and our
    load client) echo the last one back as ``Last-Event-ID`` on
    reconnect, which the subscribe endpoint uses to replay the gap.
    """
    head = f"id: {event_id}\n" if event_id is not None else ""
    if event is not None:
        return f"{head}event: {event}\ndata: {data}\n\n".encode()
    return f"{head}data: {data}\n\n".encode()


# -- WebSocket -------------------------------------------------------------


def websocket_accept(key: str) -> str:
    digest = hashlib.sha1(key.encode("latin-1") + _WS_GUID).digest()
    return base64.b64encode(digest).decode("ascii")


def websocket_handshake(request: HttpRequest) -> bytes:
    key = request.headers.get("sec-websocket-key")
    if not key:
        raise HttpError(400, "websocket upgrade without Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n"
        "\r\n"
    ).encode("latin-1")


def ws_frame(payload: bytes, opcode: int = WS_TEXT) -> bytes:
    """Encode one unmasked server→client frame (FIN set)."""
    head = bytearray([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head.append(n)
    elif n < 1 << 16:
        head.append(126)
        head += n.to_bytes(2, "big")
    else:
        head.append(127)
        head += n.to_bytes(8, "big")
    return bytes(head) + payload


def ws_close_frame(code: int = 1000, reason: str = "") -> bytes:
    return ws_frame(code.to_bytes(2, "big") + reason.encode(), WS_CLOSE)


async def ws_read_frame(reader) -> tuple[int, bytes] | None:
    """Read one client frame → ``(opcode, payload)``; ``None`` on EOF.

    Client frames are masked per RFC 6455; fragmentation is not
    supported (the serving protocol never needs it).  Raises
    :class:`WsFrameTooLarge` for a payload over
    :data:`MAX_WS_FRAME_BYTES`; the caller closes with
    :data:`WS_CLOSE_TOO_BIG`.
    """
    try:
        head = await reader.readexactly(2)
    except Exception:
        return None
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    n = head[1] & 0x7F
    try:
        if n == 126:
            n = int.from_bytes(await reader.readexactly(2), "big")
        elif n == 127:
            n = int.from_bytes(await reader.readexactly(8), "big")
    except Exception:
        return None
    if n > MAX_WS_FRAME_BYTES:
        raise WsFrameTooLarge(
            f"frame payload of {n} bytes exceeds {MAX_WS_FRAME_BYTES}"
        )
    try:
        mask = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(n) if n else b""
    except Exception:
        return None
    if masked and payload:
        key = int.from_bytes((mask * (n // 4 + 1))[:n], "big")
        payload = (int.from_bytes(payload, "big") ^ key).to_bytes(n, "big")
    return opcode, payload
