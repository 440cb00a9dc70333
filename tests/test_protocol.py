import json
import socket
import struct
import threading

import numpy as np
import pytest

from reinfog.network import NetworkParams
from reinfog.protocol import (
    MAX_FRAME,
    ExperienceBatch,
    FrameTooLarge,
    MalformedFrame,
    PolicySync,
    Shutdown,
    TruncatedFrame,
    UnknownMessageType,
    WorkerHello,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from reinfog.replay import Transitions


def random_batch(rng, k: int = 1, dim: int = 4) -> Transitions:
    return Transitions(states=rng.normal(size=(k, dim)), actions=rng.integers(5, size=k),
                       rewards=rng.normal(size=k), next_states=rng.normal(size=(k, dim)),
                       done=rng.random(k) < 0.3)


def v2_frame(header: dict, body: bytes = b"") -> bytes:
    """A frame built by hand: lengths, JSON header, raw body."""
    head = json.dumps(header).encode()
    return struct.pack(">II", 4 + len(head) + len(body), len(head)) + head + body


def random_message(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return WorkerHello(f"w{int(rng.integers(100))}")
    if kind == 1:
        return ExperienceBatch(f"w{int(rng.integers(100))}", int(rng.integers(10_000)),
                               random_batch(rng, int(rng.integers(0, 6))))
    if kind == 2:
        return PolicySync(int(rng.integers(1000)),
                          NetworkParams.glorot((3, 4, 2), "tanh", rng))
    return Shutdown("r" * int(rng.integers(0, 10)))


def test_shutdown_prefix_matches_payload_length():
    frame = encode_frame(Shutdown(""))
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    msg, consumed = decode_frame(frame)
    assert msg == Shutdown("")
    assert consumed == len(frame)


def test_empty_stream_is_truncated():
    with pytest.raises(TruncatedFrame, match="truncated frame"):
        decode_frame(b"")
    with pytest.raises(TruncatedFrame):
        decode_frame(encode_frame(Shutdown("x"))[:-1])


def test_round_trip_is_bijective_over_random_messages():
    rng = np.random.default_rng(0)
    for _ in range(300):
        msg = random_message(rng)
        frame = encode_frame(msg)
        back, consumed = decode_frame(frame)
        assert consumed == len(frame)
        # byte-identical re-encode covers array payloads too
        assert encode_frame(back) == frame
        assert back == msg


def test_decode_leaves_trailing_bytes():
    frame = encode_frame(WorkerHello("w1"))
    tail = encode_frame(Shutdown("bye"))
    msg, consumed = decode_frame(frame + tail)
    assert msg == WorkerHello("w1")
    assert decode_frame((frame + tail)[consumed:])[0] == Shutdown("bye")


def test_oversized_frames_rejected_without_allocation():
    header = struct.pack(">I", MAX_FRAME + 1)
    with pytest.raises(FrameTooLarge):
        decode_frame(header + b"x")
    # 2100 rows of 2048 floats take 68.9 MB on the wire; the arrays are
    # broadcast views, so nothing of that size exists before the cap applies
    wide = np.broadcast_to(0.1234567890123, (2100, 2048))
    k = np.zeros(2100, dtype=np.int64)
    big = ExperienceBatch("w", 0, Transitions(wide, k, k.astype(float), wide,
                                              k.astype(bool)))
    with pytest.raises(FrameTooLarge):
        encode_frame(big)


def test_malformed_and_unknown_payloads():
    bad_json = struct.pack(">II", 9, 5) + b"{nope"
    with pytest.raises(MalformedFrame):
        decode_frame(bad_json)
    with pytest.raises(MalformedFrame):
        decode_frame(v2_frame({"no_type": 1}))
    with pytest.raises(UnknownMessageType):
        decode_frame(v2_frame({"type": "gossip"}))
    with pytest.raises(MalformedFrame):
        decode_frame(v2_frame({"type": "worker_hello"}))
    # a protocol-1 frame: the JSON where the header length should be
    v1 = json.dumps({"type": "worker_hello", "worker_id": "w0",
                     "protocol_version": "1"}).encode()
    with pytest.raises(MalformedFrame, match="cannot hold its header"):
        decode_frame(struct.pack(">I", len(v1)) + v1)


BATCH_HEADER = {"type": "experience_batch", "worker_id": "w0", "seq": 1,
                "rows": 2, "dim": 3}
BATCH_BODY = 2 * (16 * 3 + 17)


@pytest.mark.parametrize("header, body, why", [
    (BATCH_HEADER, bytes(BATCH_BODY - 1), "body of 129 bytes, header says 130"),
    (BATCH_HEADER, bytes(BATCH_BODY + 8), "body of 138 bytes, header says 130"),
    (dict(BATCH_HEADER, rows=3), bytes(BATCH_BODY), "body of 130 bytes, header says 195"),
    (dict(BATCH_HEADER, dim=2), bytes(BATCH_BODY), "body of 130 bytes, header says 98"),
    (dict(BATCH_HEADER, rows=-2), bytes(BATCH_BODY), "rows -2 and dim 3 must be non-negative"),
    (dict(BATCH_HEADER, dim=3.0), bytes(BATCH_BODY), "rows 2 and dim 3.0 must be non-negative"),
    (dict(BATCH_HEADER, rows=True), bytes(BATCH_BODY), "rows True and dim 3 must be non-negative"),
    (BATCH_HEADER, bytes(BATCH_BODY - 2) + b"\x00\x02", "done flags must be bytes 0 or 1"),
    ({"type": "shutdown", "reason": "x"}, b"\x00", "shutdown carries a body of 1 bytes"),
    ({"type": "policy_sync", "policy_version": 1, "layer_sizes": [3, 4, 2],
      "activation": "relu"}, bytes(8 * 25), "25 parameters do not fit layer sizes"),
    ({"type": "policy_sync", "policy_version": 1, "layer_sizes": [3, 4, 2],
      "activation": "relu"}, bytes(8 * 26 + 1), "multiple of element size"),
    ({"type": "policy_sync", "policy_version": 1, "layer_sizes": [3, 0, 2],
      "activation": "relu"}, bytes(8 * 2), "2 parameters do not fit layer sizes"),
])
def test_malformed_v2_bodies(header, body, why):
    with pytest.raises(MalformedFrame, match=why):
        decode_frame(v2_frame(header, body))


def test_well_formed_v2_frame_decodes_by_the_documented_layout():
    states = np.arange(6.0).reshape(2, 3)
    body = b"".join([states.astype("<f8").tobytes(), (states + 10).astype("<f8").tobytes(),
                     np.array([1, 0], "<i8").tobytes(), np.array([-1.5, 2.0], "<f8").tobytes(),
                     b"\x00\x01"])
    frame = v2_frame(BATCH_HEADER, body)
    msg, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert msg == ExperienceBatch("w0", 1, Transitions(
        states, np.array([1, 0]), np.array([-1.5, 2.0]), states + 10,
        np.array([False, True])))
    assert encode_frame(msg) == frame


def test_messages_compare_by_value():
    rng = np.random.default_rng(5)
    net = NetworkParams.glorot((3, 4, 2), rng=0)
    assert PolicySync(1, net) == PolicySync(1, net.copy())
    other = net.copy()
    other.flat.view(np.uint8)[17] ^= 1  # one bit of one weight
    assert PolicySync(1, net) != PolicySync(1, other)
    batch = random_batch(rng, 3)
    copy = batch[np.arange(3)]
    assert ExperienceBatch("w", 1, batch) == ExperienceBatch("w", 1, copy)
    copy.actions[2] ^= 1
    assert ExperienceBatch("w", 1, batch) != ExperienceBatch("w", 1, copy)


def test_socket_read_write_round_trip():
    server, client = socket.socketpair()
    try:
        sent = [WorkerHello("w0"),
                ExperienceBatch("w0", 1, random_batch(np.random.default_rng(1), 3)),
                Shutdown("done")]

        def pump():
            for m in sent:
                write_frame(client, m)
            client.close()

        t = threading.Thread(target=pump)
        t.start()
        got = []
        while True:
            msg = read_frame(server)
            if msg is None:
                break
            got.append(msg)
        t.join()
        assert got == sent
    finally:
        server.close()


def test_read_frame_raises_on_mid_frame_close():
    server, client = socket.socketpair()
    try:
        frame = encode_frame(Shutdown("incomplete"))
        client.sendall(frame[:7])
        client.close()
        with pytest.raises(TruncatedFrame):
            read_frame(server)
    finally:
        server.close()


def test_policy_sync_with_non_finite_weight_is_malformed():
    net = NetworkParams.glorot((3, 4, 2), rng=0)
    net.weights[0][2, 1] = np.nan
    frame = encode_frame(PolicySync(4, net))
    with pytest.raises(MalformedFrame, match="must be finite"):
        decode_frame(frame)
