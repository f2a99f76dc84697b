"""Wire-boundary limits of the HTTP/WebSocket codec.

A client controls every length field it sends, so each one is checked
before the server allocates: a negative ``Content-Length`` is a 400, and
a WebSocket frame declaring more than ``MAX_WS_FRAME_BYTES`` closes the
connection with 1009 without buffering the payload.
"""

from __future__ import annotations

import asyncio
import base64
import os

import pytest

from repro.serve import http
from repro.serve.app import GraphStreamServer
from tests.serve.test_server import register


def _reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _client_frame(payload: bytes, opcode: int = http.WS_TEXT) -> bytes:
    """A masked client->server frame (RFC 6455 section 5.3)."""
    mask = os.urandom(4)
    n = len(payload)
    head = bytearray([0x80 | opcode])
    if n < 126:
        head.append(0x80 | n)
    elif n < 1 << 16:
        head.append(0x80 | 126)
        head += n.to_bytes(2, "big")
    else:
        head.append(0x80 | 127)
        head += n.to_bytes(8, "big")
    masked = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes(head) + mask + masked


def test_negative_content_length_is_a_400():
    async def go():
        raw = b"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n"
        with pytest.raises(http.HttpError) as info:
            await http.read_request(_reader(raw))
        assert info.value.status == 400

    asyncio.run(go())


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 125, 126, 1000, 70000])
def test_masked_frames_unmask(n):
    payload = os.urandom(n)

    async def go():
        return await http.ws_read_frame(_reader(_client_frame(payload)))

    if n > http.MAX_WS_FRAME_BYTES:
        with pytest.raises(http.WsFrameTooLarge):
            asyncio.run(go())
    else:
        assert asyncio.run(go()) == (http.WS_TEXT, payload)


def test_oversized_frame_is_refused_before_buffering():
    async def go():
        head = bytes([0x81, 0x80 | 127]) + (1 << 40).to_bytes(8, "big")
        rest = os.urandom(4) + b"payload"
        reader = _reader(head + rest)
        with pytest.raises(http.WsFrameTooLarge):
            await http.ws_read_frame(reader)
        # Neither the mask nor any payload byte was consumed.
        assert await reader.read() == rest

    asyncio.run(go())


def test_server_closes_oversized_frame_with_1009():
    async def go():
        server = GraphStreamServer(port=0)
        await server.start()
        await register(server.port, "a", "q")
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        key = base64.b64encode(os.urandom(16)).decode()
        writer.write(
            (
                "GET /tenants/a/queries/q/subscribe HTTP/1.1\r\n"
                "Host: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        assert b" 101 " in head
        writer.write(bytes([0x81, 0x80 | 127]) + (1 << 40).to_bytes(8, "big"))
        await writer.drain()
        while True:
            hdr = await asyncio.wait_for(reader.readexactly(2), 10)
            n = hdr[1] & 0x7F
            if n == 126:
                n = int.from_bytes(await reader.readexactly(2), "big")
            payload = await reader.readexactly(n)
            if hdr[0] & 0x0F == http.WS_CLOSE:
                break
        writer.close()
        await server.shutdown()
        return int.from_bytes(payload[:2], "big")

    assert asyncio.run(go()) == http.WS_CLOSE_TOO_BIG
