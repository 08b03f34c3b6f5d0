"""Line protocol for the networked mode.

Every frame is::

    4 bytes  big-endian length of everything after these 4 bytes
    1 byte   kind tag
    payload

Protocol events carry a canonical-JSON payload; the sender's identity is the
link itself, so no actor byte travels. The handshake frame (tag 0x00) holds a
single version byte followed by the 32-byte configuration digest: endpoints
refuse to talk unless both sides were launched from an identical session
configuration.
"""

from __future__ import annotations

import json
import socket
import struct

from ..transcript import EventKind, canonical_json

WIRE_VERSION = 0x01
TAG_HELLO = 0x00
MAX_FRAME = 1 << 26

_KIND_TAGS = {
    EventKind.QUBITS_SENT: 0x01,
    EventKind.BASES_ANNOUNCED_BOB: 0x02,
    EventKind.BASES_ANNOUNCED_ALICE: 0x03,
    EventKind.TEST_INDICES: 0x04,
    EventKind.TEST_DISCLOSURE: 0x05,
    EventKind.ESTIMATE: 0x06,
    EventKind.DECISION: 0x07,
    EventKind.PERMUTATION_SEED: 0x08,
    EventKind.CODEWORD_ANNOUNCEMENT: 0x09,
    EventKind.KEY_DIGEST: 0x0A,
}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


class FrameError(Exception):
    """The stream ended early or a frame was malformed."""


class UnknownTag(FrameError):
    def __init__(self, tag: int):
        super().__init__(f"unknown frame tag 0x{tag:02X}")
        self.tag = tag


class HandshakeError(Exception):
    """Version or configuration mismatch during the hello exchange."""


def _recv_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` from the stream; the stream ending first is a FrameError."""
    while view:
        got = sock.recv_into(view)
        if not got:
            raise FrameError("connection closed mid-frame")
        view = view[got:]


def send_frame(sock: socket.socket, tag: int, payload: bytes) -> None:
    """Send one frame; the header and the payload go out in one call, neither copied."""
    if not (0 <= tag <= 0xFF):
        raise ValueError("tag must fit one byte")
    if len(payload) + 1 > MAX_FRAME:
        raise FrameError(f"frame of {len(payload) + 1} bytes exceeds the cap")
    header = struct.pack(">IB", len(payload) + 1, tag)
    sent = sock.sendmsg([header, payload]) if hasattr(sock, "sendmsg") else 0
    # what one call left unsent goes out as sendall would send it
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent - len(header) < len(payload):
        sock.sendall(memoryview(payload)[sent - len(header):])


def recv_frame(sock: socket.socket) -> tuple[int, memoryview]:
    """Receive one frame: its tag and a view of its payload, read in place."""
    header = memoryview(bytearray(4))
    got = sock.recv_into(header)
    if not got:
        raise EOFError("connection closed")
    _recv_into(sock, header[got:])
    (length,) = struct.unpack(">I", header)
    if length < 1 or length > MAX_FRAME:
        raise FrameError(f"frame length {length} out of range")
    body = memoryview(bytearray(length))
    _recv_into(sock, body)
    return body[0], body[1:]


def send_event(sock: socket.socket, kind: EventKind, payload: dict) -> str:
    """Send one event frame; returns the payload's canonical JSON, the text it sent."""
    text = canonical_json(payload)
    send_frame(sock, _KIND_TAGS[kind], text.encode())
    return text


def recv_event(sock: socket.socket) -> tuple[EventKind, dict]:
    tag, blob = recv_frame(sock)
    if tag == TAG_HELLO:
        raise FrameError("hello frame arrived after the handshake")
    kind = _TAG_KINDS.get(tag)
    if kind is None:
        raise UnknownTag(tag)
    try:
        payload = json.loads(str(blob, "utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past the digit
        # limit; RecursionError is nesting deeper than the decoder follows
        raise FrameError(f"bad event payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(f"event payload is a JSON {type(payload).__name__}, not an object")
    return kind, payload


def send_hello(sock: socket.socket, config_digest_hex: str) -> None:
    digest = bytes.fromhex(config_digest_hex)
    if len(digest) != 32:
        raise ValueError("config digest must be 32 bytes of hex")
    send_frame(sock, TAG_HELLO, bytes([WIRE_VERSION]) + digest)


def recv_hello(sock: socket.socket) -> str:
    tag, payload = recv_frame(sock)
    if tag != TAG_HELLO:
        raise HandshakeError("expected a hello frame first")
    if len(payload) != 33:
        raise HandshakeError("hello frame has the wrong size")
    if payload[0] != WIRE_VERSION:
        raise HandshakeError(
            f"peer speaks wire version {payload[0]}, this end speaks {WIRE_VERSION}"
        )
    return payload[1:].hex()


def check_hello(theirs: str, config_digest_hex: str) -> None:
    """Refuse a peer whose hello carried another configuration digest."""
    if theirs != config_digest_hex:
        raise HandshakeError("peer was launched with a different configuration")

