"""Length-prefixed JSON wire protocol between DRL workers and the learner.

Frame layout: 4-byte big-endian unsigned payload length, then a UTF-8 JSON
object whose "type" field names the variant. Payloads above 64 MiB are
rejected on both sides before any allocation is attempted.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

from .network import NetworkParams, policy_from_doc, policy_to_doc
from .replay import Experience

PROTOCOL_VERSION = "1"
MAX_FRAME = 64 * 1024 * 1024
_HEADER = struct.Struct(">I")


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
    experiences: tuple[Experience, ...]


@dataclass(frozen=True)
class PolicySync:
    policy_version: int
    policy: NetworkParams


@dataclass(frozen=True)
class Shutdown:
    reason: str


WireMessage = WorkerHello | ExperienceBatch | PolicySync | Shutdown


def _experience_to_doc(exp: Experience) -> dict:
    return {"state": list(exp.state), "action": exp.action, "reward": exp.reward,
            "next_state": list(exp.next_state), "done": exp.done}


def _experience_from_doc(doc: dict) -> Experience:
    # the action is kept as sent (int() would truncate 1.9 to 1), so the
    # learner can reject a non-integer action
    return Experience(state=tuple(float(v) for v in doc["state"]),
                      action=doc["action"],
                      reward=float(doc["reward"]),
                      next_state=tuple(float(v) for v in doc["next_state"]),
                      done=bool(doc["done"]))


def message_to_doc(msg: WireMessage) -> dict:
    if isinstance(msg, WorkerHello):
        return {"type": "worker_hello", "worker_id": msg.worker_id,
                "protocol_version": msg.protocol_version}
    if isinstance(msg, ExperienceBatch):
        return {"type": "experience_batch", "worker_id": msg.worker_id,
                "seq": msg.seq,
                "experiences": [_experience_to_doc(e) for e in msg.experiences]}
    if isinstance(msg, PolicySync):
        return {"type": "policy_sync", "policy_version": msg.policy_version,
                "policy": policy_to_doc(msg.policy)}
    if isinstance(msg, Shutdown):
        return {"type": "shutdown", "reason": msg.reason}
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def message_from_doc(doc: dict) -> WireMessage:
    if not isinstance(doc, dict) or "type" not in doc:
        raise MalformedFrame("payload is not a tagged object")
    kind = doc["type"]
    try:
        if kind == "worker_hello":
            return WorkerHello(str(doc["worker_id"]),
                               str(doc["protocol_version"]))
        if kind == "experience_batch":
            return ExperienceBatch(
                str(doc["worker_id"]), int(doc["seq"]),
                tuple(_experience_from_doc(e) for e in doc["experiences"]))
        if kind == "policy_sync":
            params, _ = policy_from_doc(doc["policy"])
            return PolicySync(int(doc["policy_version"]), params)
        if kind == "shutdown":
            return Shutdown(str(doc["reason"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrame(f"bad {kind} fields: {exc}") from exc
    raise UnknownMessageType(f"unknown message type {kind!r}")


def encode_frame(msg: WireMessage) -> bytes:
    payload = json.dumps(message_to_doc(msg)).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload)) + payload


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
    try:
        doc = json.loads(buf[_HEADER.size:end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFrame(f"undecodable payload: {exc}") from exc
    return message_from_doc(doc), end


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
    try:
        doc = json.loads((payload or b"").decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFrame(f"undecodable payload: {exc}") from exc
    return message_from_doc(doc)


def write_frame(sock: socket.socket, msg: WireMessage) -> None:
    sock.sendall(encode_frame(msg))
