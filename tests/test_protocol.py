import json
import socket
import struct
import threading

import numpy as np
import pytest

from reinfog.network import NetworkParams, policy_to_doc
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
from reinfog.replay import Experience


def random_experience(rng) -> Experience:
    return Experience(state=tuple(float(v) for v in rng.normal(size=4)),
                      action=int(rng.integers(5)),
                      reward=float(rng.normal()),
                      next_state=tuple(float(v) for v in rng.normal(size=4)),
                      done=bool(rng.random() < 0.3))


def random_message(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return WorkerHello(f"w{int(rng.integers(100))}")
    if kind == 1:
        exps = tuple(random_experience(rng) for _ in range(int(rng.integers(1, 6))))
        return ExperienceBatch(f"w{int(rng.integers(100))}",
                               int(rng.integers(10_000)), exps)
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
        if not isinstance(msg, PolicySync):
            assert back == msg
        else:
            assert policy_to_doc(back.policy) == policy_to_doc(msg.policy)
            assert back.policy_version == msg.policy_version


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
    big = ExperienceBatch("w", 0, tuple(
        Experience((0.1234567890123,) * 2048, 0, 0.0,
                   (0.1234567890123,) * 2048, False)
        for _ in range(2000)))
    with pytest.raises(FrameTooLarge):
        encode_frame(big)


def test_malformed_and_unknown_payloads():
    bad_json = struct.pack(">I", 5) + b"{nope"
    with pytest.raises(MalformedFrame):
        decode_frame(bad_json)
    not_tagged = json.dumps({"no_type": 1}).encode()
    with pytest.raises(MalformedFrame):
        decode_frame(struct.pack(">I", len(not_tagged)) + not_tagged)
    unknown = json.dumps({"type": "gossip"}).encode()
    with pytest.raises(UnknownMessageType):
        decode_frame(struct.pack(">I", len(unknown)) + unknown)
    missing = json.dumps({"type": "worker_hello"}).encode()
    with pytest.raises(MalformedFrame):
        decode_frame(struct.pack(">I", len(missing)) + missing)


def test_socket_read_write_round_trip():
    server, client = socket.socketpair()
    try:
        sent = [WorkerHello("w0"),
                ExperienceBatch("w0", 1, (random_experience(np.random.default_rng(1)),)),
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
