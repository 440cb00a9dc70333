"""Length-prefixed wire protocol between DRL workers and the learner.

Frame layout (protocol 2): a 4-byte big-endian payload length, then the
payload: a 4-byte big-endian header length, a UTF-8 JSON header whose
"type" field names the variant, and a raw little-endian body (transitions
or policy parameters; README.md gives the layout). A body whose length
disagrees with its header is malformed. Payloads above 64 MiB are rejected
on both sides before any allocation is attempted.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

import numpy as np

from .network import NetworkParams
from .replay import Transitions

PROTOCOL_VERSION = "2"
MAX_FRAME = 64 * 1024 * 1024
_HEADER = struct.Struct(">I")
# the batch body, field by field: (name, wire dtype, whether a row holds dim values)
_BODY = (("states", "<f8", True), ("next_states", "<f8", True),
         ("actions", "<i8", False), ("rewards", "<f8", False), ("done", "|b1", False))


class ProtocolError(Exception):
    """Base for anything wrong with a frame or message."""


class FrameTooLarge(ProtocolError):
    pass


class TruncatedFrame(ProtocolError):
    pass


class MalformedFrame(ProtocolError):
    pass


class UnknownMessageType(ProtocolError):
    pass


@dataclass(frozen=True)
class WorkerHello:
    worker_id: str
    protocol_version: str = PROTOCOL_VERSION


@dataclass(frozen=True)
class ExperienceBatch:
    worker_id: str
    seq: int
    experiences: Transitions


@dataclass(frozen=True)
class PolicySync:
    policy_version: int
    policy: NetworkParams


@dataclass(frozen=True)
class Shutdown:
    reason: str


WireMessage = WorkerHello | ExperienceBatch | PolicySync | Shutdown


def _message_parts(msg: WireMessage) -> tuple[dict, list[np.ndarray]]:
    """(JSON header, arrays whose little-endian bytes make the body)."""
    if isinstance(msg, WorkerHello):
        return {"type": "worker_hello", "worker_id": msg.worker_id,
                "protocol_version": msg.protocol_version}, []
    if isinstance(msg, ExperienceBatch):
        rows, dim = msg.experiences.states.shape
        return ({"type": "experience_batch", "worker_id": msg.worker_id,
                 "seq": msg.seq, "rows": rows, "dim": dim},
                [np.ascontiguousarray(getattr(msg.experiences, name), dtype)
                 for name, dtype, _ in _BODY])
    if isinstance(msg, PolicySync):
        return ({"type": "policy_sync", "policy_version": msg.policy_version,
                 "layer_sizes": list(msg.policy.layer_sizes),
                 "activation": msg.policy.activation},
                [np.ascontiguousarray(msg.policy.flat, "<f8")])
    if isinstance(msg, Shutdown):
        return {"type": "shutdown", "reason": msg.reason}, []
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _transitions_from(doc: dict, body) -> Transitions:
    rows, dim = doc["rows"], doc["dim"]
    if type(rows) is not int or type(dim) is not int or min(rows, dim) < 0:
        raise MalformedFrame(f"rows {rows!r} and dim {dim!r} must be non-negative ints")
    if len(body) != rows * (16 * dim + 17):
        raise MalformedFrame(f"experience_batch body of {len(body)} bytes, header "
                             f"says {rows * (16 * dim + 17)}")
    arrays, offset = {}, 0
    for name, dtype, wide in _BODY:
        raw = np.ndarray((rows, dim) if wide else (rows,), dtype, body, offset)
        offset += raw.nbytes
        arrays[name] = raw.astype(raw.dtype.newbyteorder("="), copy=False)
    if (arrays["done"].view(np.uint8) > 1).any():
        raise MalformedFrame("done flags must be bytes 0 or 1")
    return Transitions(**arrays)


def message_from_doc(doc: dict, body=b"") -> WireMessage:
    """The message a decoded header and its raw body describe."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise MalformedFrame("header is not a tagged object")
    kind = doc["type"]
    try:
        if kind == "experience_batch":
            return ExperienceBatch(str(doc["worker_id"]), int(doc["seq"]),
                                   _transitions_from(doc, body))
        if kind == "policy_sync":
            params = NetworkParams.from_flat(doc["layer_sizes"], np.frombuffer(body, "<f8"),
                                             str(doc["activation"]))
            if not np.isfinite(params.flat).all():
                raise MalformedFrame("policy weights and biases must be finite")
            return PolicySync(int(doc["policy_version"]), params)
        if kind in ("worker_hello", "shutdown") and len(body):
            raise MalformedFrame(f"{kind} carries a body of {len(body)} bytes")
        if kind == "worker_hello":
            return WorkerHello(str(doc["worker_id"]), str(doc["protocol_version"]))
        if kind == "shutdown":
            return Shutdown(str(doc["reason"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrame(f"bad {kind} fields: {exc}") from exc
    raise UnknownMessageType(f"unknown message type {kind!r}")


def encode_frame(msg: WireMessage) -> bytes:
    doc, arrays = _message_parts(msg)
    header = json.dumps(doc).encode("utf-8")
    length = _HEADER.size + len(header) + sum(a.nbytes for a in arrays)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"payload of {length} bytes exceeds cap")
    return b"".join([_HEADER.pack(length), _HEADER.pack(len(header)), header, *arrays])


def _parse_payload(payload) -> WireMessage:
    view = memoryview(payload)
    size = _HEADER.unpack_from(view)[0] if len(view) >= _HEADER.size else None
    if size is None or _HEADER.size + size > len(view):
        raise MalformedFrame(f"payload of {len(view)} bytes cannot hold its header")
    try:
        doc = json.loads(bytes(view[_HEADER.size:_HEADER.size + size]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFrame(f"undecodable header: {exc}") from exc
    return message_from_doc(doc, view[_HEADER.size + size:])


def decode_frame(buf: bytes) -> tuple[WireMessage, int]:
    """Parse one frame off the front of buf; returns (message, bytes consumed)."""
    if len(buf) < _HEADER.size:
        raise TruncatedFrame(f"truncated frame: {len(buf)} header bytes")
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"declared payload of {length} bytes exceeds cap")
    end = _HEADER.size + length
    if len(buf) < end:
        raise TruncatedFrame(f"truncated frame: want {end} bytes, have {len(buf)}")
    return _parse_payload(memoryview(buf)[_HEADER.size:end]), end


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """n bytes or None on clean EOF at a frame boundary; raises mid-frame."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        piece = sock.recv(n - got)
        if not piece:
            if got == 0:
                return None
            raise TruncatedFrame(f"connection closed {got}/{n} bytes into a read")
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> WireMessage | None:
    """One message off the socket, or None when the peer closed cleanly."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"declared payload of {length} bytes exceeds cap")
    payload = _recv_exact(sock, length)
    if payload is None and length > 0:
        raise TruncatedFrame("connection closed before payload")
    return _parse_payload(payload or b"")


def write_frame(sock: socket.socket, msg: WireMessage) -> None:
    sock.sendall(encode_frame(msg))
