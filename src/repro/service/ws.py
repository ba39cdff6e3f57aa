"""A minimal RFC 6455 WebSocket codec: handshake, frames, both sides.

No third-party WebSocket library is a dependency of this project, so
the service speaks the protocol directly over the handler's socket.
Only what the streaming endpoint needs is implemented — text, close,
ping/pong, single-frame messages up to a size limit — but what is
implemented is *strict*: reserved bits, bad opcodes, unmasked client
frames, oversized or truncated frames all raise
:class:`~repro.errors.ProtocolError` (and the server answers with a
1002/1009 close, never a crash).  The protocol fuzz suite drives byte
mutations straight at this codec through a live server.

Frame layout (RFC 6455 §5.2)::

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-------+-+-------------+-------------------------------+
   |F|R|R|R| opcode|M| Payload len |    Extended payload length    |
   |I|S|S|S|  (4)  |A|     (7)     |           (16/64)             |
   |N|V|V|V|       |S|             |                               |
   +-+-+-+-+-------+-+-------------+- - - - - - - - - - - - - - - -+
"""

from __future__ import annotations

import base64
import hashlib
import os
import socket
import struct
from dataclasses import dataclass

from repro.errors import PayloadTooLargeError, ProtocolError

__all__ = [
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "Frame",
    "accept_key",
    "read_frame",
    "send_close",
    "send_frame",
]

#: RFC 6455 §1.3: the fixed GUID appended to the client key.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_KNOWN_OPCODES = {OP_CONT, OP_TEXT, OP_BINARY, OP_CLOSE, OP_PING, OP_PONG}
_CONTROL_OPCODES = {OP_CLOSE, OP_PING, OP_PONG}


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1((client_key.strip() + _WS_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


@dataclass(frozen=True)
class Frame:
    opcode: int
    payload: bytes
    fin: bool = True


def _xor_mask(payload: bytes, key: bytes) -> bytes:
    """Mask or unmask ``payload`` with the 4-byte ``key`` (RFC 6455 §5.3).

    XOR is its own inverse, so one function serves both directions.  The
    whole buffer is XORed as one integer against the repeated key — a
    page-sized payload costs two conversions, not a bytecode per byte.
    """
    n = len(payload)
    repeated = (key * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")
    ).to_bytes(n, "big")


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ProtocolError on truncation."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket,
    *,
    max_payload: int,
    require_mask: bool,
) -> Frame:
    """Read and validate one frame; strict about everything.

    ``require_mask`` is True on the server side (clients MUST mask,
    §5.1) and False on the client side (servers MUST NOT mask).
    """
    b1, b2 = _read_exact(sock, 2)
    fin = bool(b1 & 0x80)
    if b1 & 0x70:
        raise ProtocolError("reserved frame bits set without an extension")
    opcode = b1 & 0x0F
    if opcode not in _KNOWN_OPCODES:
        raise ProtocolError(f"unknown opcode 0x{opcode:x}")
    masked = bool(b2 & 0x80)
    if require_mask and not masked:
        raise ProtocolError("client frames must be masked")
    if not require_mask and masked:
        raise ProtocolError("server frames must not be masked")
    length = b2 & 0x7F
    if opcode in _CONTROL_OPCODES:
        if not fin:
            raise ProtocolError("control frames cannot be fragmented")
        if length > 125:
            raise ProtocolError("control frames carry at most 125 bytes")
    if length == 126:
        (length,) = struct.unpack(">H", _read_exact(sock, 2))
    elif length == 127:
        (length,) = struct.unpack(">Q", _read_exact(sock, 8))
        if length >> 63:
            raise ProtocolError("frame length high bit set")
    if length > max_payload:
        raise PayloadTooLargeError(length, max_payload, "WebSocket frame")
    mask = _read_exact(sock, 4) if masked else b""
    payload = _read_exact(sock, length) if length else b""
    if masked and payload:
        payload = _xor_mask(payload, mask)
    return Frame(opcode, payload, fin)


def send_frame(
    sock: socket.socket,
    opcode: int,
    payload: bytes,
    *,
    mask: bool,
) -> None:
    """Send one (FIN) frame; masks iff ``mask`` (the client side).

    Header and payload leave in a single ``sendall``: a frame is never
    split across writes, so no part of it can queue behind the peer's
    delayed ACK of the other.
    """
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length <= 125:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = _xor_mask(payload, key)
    sock.sendall(bytes(header) + payload)


def send_close(
    sock: socket.socket, code: int = 1000, reason: str = "", *, mask: bool
) -> None:
    """Send a close frame (best effort — the peer may already be gone)."""
    payload = struct.pack(">H", code) + reason.encode()[:123]
    try:
        send_frame(sock, OP_CLOSE, payload, mask=mask)
    except OSError:
        pass
