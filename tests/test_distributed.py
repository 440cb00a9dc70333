import errno
import hashlib
import json
import logging
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

from reinfog.distributed import (
    CentralizedResult,
    Learner,
    SyncConfig,
    WorkerReport,
    centralized_mode,
    parse_endpoint,
    replay_arrivals,
    worker_loop,
    _connect_with_retry,
)
from reinfog import distributed, dqn, protocol
from reinfog.dqn import DqnAgent, DqnConfig
from reinfog.explore import eps_greedy
from reinfog.model import Node
from reinfog.network import forward, policy_to_doc
from reinfog.protocol import (
    ExperienceBatch,
    PolicySync,
    Shutdown,
    WorkerHello,
    write_frame,
)
from reinfog.replay import Transitions
from reinfog.sim import (
    USER,
    ClusterSpec,
    LinkSpec,
    generate_workload,
    make_reward_spec,
    uniform_cluster,
)
from test_network import PerTensorAdam
from test_protocol import read_frame, v2_frame

CLUSTER = uniform_cluster(2, latency_s=0.0)
WORKLOAD = generate_workload(1, 4, rng=0, density=0.5)
SPEC = make_reward_spec(CLUSTER, WORKLOAD)
STATE_DIM = 3 * CLUSTER.n + 4

SMALL_CFG = DqnConfig(hidden_sizes=(8,), batch_size=8, buffer_capacity=512,
                      target_sync_interval=5, eps_decay_steps=50)


def small_learner(**over) -> Learner:
    kw = dict(cfg=SMALL_CFG, sync=SyncConfig(sync_interval=2, batch_flush=4),
              seed=7)
    kw.update(over)
    return Learner(STATE_DIM, CLUSTER.n, **kw).start()


def run_worker(address, wid, episodes=4, **over) -> WorkerReport:
    kw = dict(sync=SyncConfig(sync_interval=2, batch_flush=4),
              dqn_cfg=SMALL_CFG, reward_spec=SPEC, rng=hash(wid) % 1000)
    kw.update(over)
    return worker_loop(address, wid, CLUSTER, WORKLOAD, episodes, **kw)


def test_sync_config_validation():
    with pytest.raises(ValueError):
        SyncConfig(sync_interval=0)
    with pytest.raises(ValueError):
        SyncConfig(batch_flush=0)


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_endpoint("9000")
    assert parse_endpoint("localhost:65535") == ("localhost", 65535)
    for port in ("65536", "99999", "-1"):
        with pytest.raises(ValueError, match=f"port {port} in '127.0.0.1:{port}'"):
            parse_endpoint(f"127.0.0.1:{port}")
    for text, port in (("h:", ""), ("h:abc", "abc"), ("h:8.0", "8.0")):
        with pytest.raises(ValueError, match=re.escape(
                f"port {port!r} in {text!r} is not an integer")):
            parse_endpoint(text)


def test_zero_workers_learner_stays_idle():
    learner = small_learner(expected_workers=0)
    assert learner.join(timeout=10.0)
    assert learner.updates == 0
    assert learner.policy_version == 0


def test_single_worker_conservation_and_replay():
    learner = small_learner(expected_workers=1)
    report = run_worker(learner.address, "w0")
    assert learner.join(timeout=20.0)
    assert report.shutdown_reason is None
    assert report.episodes_run == 4
    assert report.experiences_sent == 16
    assert learner.received_experiences == report.experiences_sent
    assert len(learner.arrival_log) == report.batches_sent
    # batches landed in seq order
    seqs = [seq for _, seq, _ in learner.arrival_log]
    assert seqs == sorted(seqs)
    # deterministic replay of the recorded arrivals reproduces training
    updates, params = replay_arrivals(learner.arrival_log, STATE_DIM,
                                      CLUSTER.n, cfg=SMALL_CFG, seed=7)
    assert updates == learner.updates > 0
    assert policy_to_doc(params) == policy_to_doc(learner.agent.online)


def test_three_workers_no_loss_no_duplication():
    learner = small_learner(expected_workers=3)
    reports: list[WorkerReport] = []
    lock = threading.Lock()

    def drive(wid: str) -> None:
        rep = run_worker(learner.address, wid, episodes=3)
        with lock:
            reports.append(rep)

    threads = [threading.Thread(target=drive, args=(f"w{i}",)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert learner.join(timeout=20.0)
    assert len(reports) == 3
    sent = sum(r.experiences_sent for r in reports)
    assert sent == 3 * 3 * 4  # workers x episodes x tasks
    assert learner.received_experiences == sent
    assert len(learner.arrival_log) == sum(r.batches_sent for r in reports)
    # per-worker seq order is preserved in the arrival log
    for rep in reports:
        seqs = [s for w, s, _ in learner.arrival_log if w == rep.worker_id]
        assert seqs == sorted(seqs)
    # replay the interleaved order: update count and weights match exactly
    updates, params = replay_arrivals(learner.arrival_log, STATE_DIM,
                                      CLUSTER.n, cfg=SMALL_CFG, seed=7)
    assert updates == learner.updates
    assert policy_to_doc(params) == policy_to_doc(learner.agent.online)


def test_policy_broadcast_is_encoded_once(monkeypatch):
    # three sessions, two broadcasts: version 0 is encoded once, when the
    # learner is made, and every later version once, when it is broadcast;
    # every session receives the same policies
    encoded: list[int] = []
    real = protocol.encode_frame

    def counting(msg):
        if isinstance(msg, PolicySync):
            encoded.append(msg.policy_version)
        return real(msg)

    monkeypatch.setattr(protocol, "encode_frame", counting)
    learner = small_learner(sync=SyncConfig(sync_interval=1, batch_flush=2),
                            cfg=DqnConfig(hidden_sizes=(8,), batch_size=2,
                                          buffer_capacity=64))
    socks = [socket.create_connection(learner.address, timeout=10.0) for _ in range(3)]
    try:
        for i, sock in enumerate(socks):
            write_frame(sock, WorkerHello(f"w{i}"))
            assert isinstance(read_frame(sock), PolicySync)
        for seq in (1, 2):
            write_frame(socks[0], exp_batch("w0", seq))
        got = [[read_frame(sock) for _ in range(2)] for sock in socks]
    finally:
        for sock in socks:
            sock.close()
        learner.stop()
        assert learner.join(timeout=10.0)
    assert [m.policy_version for m in got[0]] == [1, 2]
    assert got[0] == got[1] == got[2]
    assert encoded == [0, 1, 2]


def test_a_late_session_is_bootstrapped_on_the_last_published_policy():
    # a sync every 10 updates, all driven by w0: w1 joins after 5 updates, on
    # version 0's weights, not on those the trainer has moved since; w2 joins
    # after 15, on version 1's frame as it was broadcast
    learner = small_learner(sync=SyncConfig(sync_interval=10, batch_flush=2),
                            cfg=DqnConfig(hidden_sizes=(8,), batch_size=2,
                                          buffer_capacity=64))
    socks = [socket.create_connection(learner.address, timeout=10.0) for _ in range(3)]

    def hello(i: int) -> PolicySync:
        write_frame(socks[i], WorkerHello(f"w{i}"))
        return read_frame(socks[i])

    def drive_to(updates: int, seqs: range) -> None:
        for seq in seqs:  # batches of 2 at batch size 2: one update each
            write_frame(socks[0], exp_batch("w0", seq))
        deadline = time.monotonic() + 10.0
        while learner.updates < updates and time.monotonic() < deadline:
            time.sleep(0.005)
        assert learner.updates == updates

    try:
        first = hello(0)
        drive_to(5, range(1, 6))
        second = hello(1)
        drive_to(15, range(6, 16))
        third = hello(2)
        broadcast = read_frame(socks[0])
    finally:
        for sock in socks:
            sock.close()
        learner.stop()
        assert learner.join(timeout=10.0)
    assert first.policy_version == second.policy_version == 0
    assert policy_to_doc(second.policy) == policy_to_doc(first.policy)
    assert broadcast.policy_version == third.policy_version == 1
    assert policy_to_doc(third.policy) == policy_to_doc(broadcast.policy)
    assert policy_to_doc(third.policy) != policy_to_doc(learner.agent.online)


def test_policy_versions_monotone_and_sync_interval_one():
    learner = small_learner(expected_workers=1,
                            sync=SyncConfig(sync_interval=1, batch_flush=2),
                            cfg=DqnConfig(hidden_sizes=(8,), batch_size=2,
                                          buffer_capacity=64))
    report = run_worker(learner.address, "w0", episodes=3,
                        sync=SyncConfig(sync_interval=1, batch_flush=2),
                        dqn_cfg=DqnConfig(hidden_sizes=(8,), batch_size=2,
                                          buffer_capacity=64))
    assert learner.join(timeout=20.0)
    # 12 experiences in batches of 2: an update per arrival, a sync per update
    assert learner.updates == 6
    assert learner.policy_version == learner.updates
    assert list(report.versions_seen) == sorted(report.versions_seen)
    assert report.decision_log == tuple(sorted(report.decision_log))
    assert max(report.decision_log) <= max(report.versions_seen)


def test_worker_applies_longer_training_run_policies():
    # interval 1 keeps syncs flowing while the worker is still deciding;
    # once a version is in force, no later decision uses an older one
    learner = small_learner(expected_workers=1,
                            sync=SyncConfig(sync_interval=1, batch_flush=1),
                            cfg=DqnConfig(hidden_sizes=(8,), batch_size=1,
                                          buffer_capacity=64))
    report = run_worker(learner.address, "w0", episodes=10,
                        sync=SyncConfig(sync_interval=1, batch_flush=1))
    assert learner.join(timeout=30.0)
    assert report.decision_log == tuple(sorted(report.decision_log))
    assert report.versions_seen[0] == 0  # bootstrap snapshot arrives first


def test_duplicate_worker_id_rejected():
    learner = small_learner(expected_workers=1)
    first = socket.create_connection(learner.address)
    second = socket.create_connection(learner.address)
    try:
        write_frame(first, WorkerHello("dup"))
        assert isinstance(read_frame(first), PolicySync)
        write_frame(second, WorkerHello("dup"))
        msg = read_frame(second)
        assert isinstance(msg, Shutdown)
        assert "duplicate" in msg.reason
    finally:
        first.close()
        second.close()
        learner.stop()
        learner.join(timeout=10.0)


def transitions(k: int, state=0.0, action=0, reward=-1.0, next_state=0.0, done=True,
                dim: int = STATE_DIM) -> Transitions:
    """k identical transitions."""
    return Transitions(np.full((k, dim), state), np.full(k, action),
                       np.full(k, float(reward)), np.full((k, dim), next_state),
                       np.full(k, done))


def exp_batch(wid: str, seq: int, k: int = 2) -> ExperienceBatch:
    return ExperienceBatch(wid, seq, transitions(k))


def test_out_of_order_seq_terminates_session():
    learner = small_learner(expected_workers=1)
    sock = socket.create_connection(learner.address)
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)
        write_frame(sock, exp_batch("w0", 5))
        write_frame(sock, exp_batch("w0", 5))
        while True:
            msg = read_frame(sock)
            assert msg is not None
            if isinstance(msg, Shutdown):
                break
        assert "out-of-order" in msg.reason
    finally:
        sock.close()
        learner.stop()
        learner.join(timeout=10.0)


def test_learner_ends_once_its_expected_workers_have_returned():
    # one of two workers returning is not the end; the second one is, with
    # no stop(), and the counters are the agent's
    learner = small_learner(expected_workers=2)
    run_worker(learner.address, "w0", episodes=2)
    assert not learner.join(timeout=0.2)
    run_worker(learner.address, "w1", episodes=2)
    assert learner.join(timeout=10.0)
    assert len(learner.arrival_log) == 4  # 2 workers x 8 experiences / 4 a batch
    assert learner.updates == learner.agent.updates == 3
    assert learner.policy_version == learner.updates // 2


def test_stop_trains_nothing_still_queued():
    cfg = DqnConfig(hidden_sizes=(8,), batch_size=2, buffer_capacity=64)
    learner = small_learner(cfg=cfg, expected_workers=1)
    real = learner.agent.train_step

    def slow(batch):
        time.sleep(0.1)
        return real(batch)

    learner.agent.train_step = slow
    sock = socket.create_connection(learner.address, timeout=10.0)
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)
        for seq in range(1, 21):
            write_frame(sock, exp_batch("w0", seq))
        deadline = time.monotonic() + 10.0
        while learner.received_experiences < 40 and time.monotonic() < deadline:
            time.sleep(0.005)
        learner.stop()
        assert learner.join(timeout=10.0)
    finally:
        sock.close()
    assert learner.received_experiences == 40
    taken = len(learner.arrival_log)
    assert taken < 20
    assert learner.updates == taken  # each batch taken in was trained on, no other
    time.sleep(0.1)
    assert learner.updates == taken and len(learner.arrival_log) == taken


def test_a_peer_that_never_says_hello_holds_nothing_up():
    # a peer that connects and sends nothing is not a worker: the learner
    # ends without it once its one expected worker has come and gone, and
    # stop() ends a learner it is connected to
    learner = small_learner(expected_workers=1)
    silent = socket.create_connection(learner.address, timeout=10.0)
    try:
        run_worker(learner.address, "w0", episodes=2)
        assert learner.join(timeout=5.0)
        assert silent.recv(1) == b""  # closed by the learner at its end
    finally:
        silent.close()
    idle = small_learner()
    silent = socket.create_connection(idle.address, timeout=10.0)
    try:
        idle.stop()
        assert idle.join(timeout=5.0)
    finally:
        silent.close()


def test_a_worker_that_stops_reading_is_dropped_and_training_goes_on():
    # a policy frame of about 2 MB goes out at every update, so a worker that
    # never reads fills its socket buffers within a few updates; its outbox
    # then passes the bound, it is dropped, and every arrival of the worker
    # that reads is still trained
    cfg = DqnConfig(hidden_sizes=(512, 512), batch_size=2, buffer_capacity=256)
    learner = small_learner(cfg=cfg, sync=SyncConfig(sync_interval=1, batch_flush=2))
    mute, healthy = (socket.create_connection(learner.address, timeout=10.0)
                     for _ in range(2))
    versions: list[int] = []

    def read_policies() -> None:
        while isinstance(msg := read_frame(healthy), PolicySync):
            versions.append(msg.policy_version)

    reader = threading.Thread(target=read_policies, daemon=True)
    try:
        write_frame(mute, WorkerHello("mute"))
        for seq in (1, 2):
            write_frame(mute, exp_batch("mute", seq))
        write_frame(healthy, WorkerHello("healthy"))
        reader.start()
        for seq in range(1, 41):
            write_frame(healthy, exp_batch("healthy", seq))
        deadline = time.monotonic() + 20.0
        while learner.updates < 42 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert learner.updates == 42  # one update an arrival, 2 + 40 arrivals
        [(who, why)] = learner.dropped_sessions
        assert who == "mute" and "past the outbox bound of 16 or" in why
        learner.stop()
        assert learner.join(timeout=5.0)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
    finally:
        mute.close()
        healthy.close()
        learner.stop()
    assert versions[-1] == 42


# a policy frame of this network is about 2 MB; with a broadcast at every
# update, a peer that does not read leaves frames unsent after two updates
BIG_CFG = DqnConfig(hidden_sizes=(512, 512), batch_size=2, buffer_capacity=256)
EVERY_UPDATE = SyncConfig(sync_interval=1, batch_flush=2)


def mute_peer(learner: Learner, wid: str, batches: int) -> socket.socket:
    """A worker `wid`, with a small receive buffer, that says hello and sends
    `batches` batches, and reads nothing until the learner has trained them."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10.0)
    sock.connect(learner.address)
    write_frame(sock, WorkerHello(wid))
    for seq in range(1, batches + 1):
        write_frame(sock, exp_batch(wid, seq))
    deadline = time.monotonic() + 10.0
    while learner.updates < batches and time.monotonic() < deadline:
        time.sleep(0.01)
    assert learner.updates == batches
    return sock


def test_a_lone_worker_that_stops_reading_does_not_hold_up_stop():
    # stop() queues Shutdown behind the unsent policy frames, under the
    # outbox bound; the session is dropped at the send timeout and the
    # learner then ends
    learner = small_learner(cfg=BIG_CFG, sync=EVERY_UPDATE)
    mute = mute_peer(learner, "mute", 3)
    try:
        learner.stop()
        assert learner.join(timeout=distributed.SEND_TIMEOUT_S + 3)
    finally:
        mute.close()
    [(who, why)] = learner.dropped_sessions
    assert who == "mute" and "frames unsent" in why


def test_a_lone_worker_that_stops_reading_is_dropped_and_the_learner_ends():
    # every arrival is trained before the send timeout drops the session
    learner = small_learner(cfg=BIG_CFG, sync=EVERY_UPDATE, expected_workers=1)
    mute = mute_peer(learner, "mute", 3)
    try:
        assert learner.join(timeout=distributed.SEND_TIMEOUT_S + 3)  # no stop()
    finally:
        mute.close()
    [(who, why)] = learner.dropped_sessions
    assert who == "mute" and "past the outbox bound of 16 or" in why
    assert learner.updates == len(learner.arrival_log) == 3


def test_a_rejected_worker_gets_its_reason_behind_the_unsent_policy_frames():
    learner = small_learner(cfg=BIG_CFG, sync=EVERY_UPDATE, expected_workers=1)
    sock = mute_peer(learner, "w0", 3)
    try:
        write_frame(sock, exp_batch("w0", 3))
        deadline = time.monotonic() + 10.0
        while not learner.dropped_sessions and time.monotonic() < deadline:
            time.sleep(0.01)
        versions = []
        while isinstance(msg := read_frame(sock), PolicySync):  # whole, not cut short
            versions.append(msg.policy_version)
        assert versions == [0, 1, 2, 3]
        assert isinstance(msg, Shutdown) and msg.reason == "out-of-order batch 3 after 3"
        assert read_frame(sock) is None
    finally:
        sock.close()
    assert learner.join(timeout=5.0)
    assert learner.dropped_sessions == [("w0", msg.reason)]


def test_a_healthy_worker_is_never_dropped_under_large_frequent_policy_frames():
    # a policy frame of about 2 MB at every update, while the worker acts: it
    # reads them at its decisions, so none waits past the outbox bounds
    learner = small_learner(cfg=BIG_CFG, sync=EVERY_UPDATE, expected_workers=1)
    report = run_worker(learner.address, "w0", episodes=6, sync=EVERY_UPDATE,
                        dqn_cfg=BIG_CFG)
    assert learner.join(timeout=20.0)
    assert learner.dropped_sessions == [] and report.shutdown_reason is None
    assert learner.received_experiences == report.experiences_sent == 6 * 4
    assert learner.updates == 12
    assert report.versions_seen[0] == 0
    assert list(report.versions_seen) == sorted(set(report.versions_seen))


def test_a_worker_runs_on_its_callers_thread(monkeypatch):
    learner = small_learner(expected_workers=1)
    started: list[threading.Thread] = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    report = run_worker(learner.address, "w0", episodes=3)
    monkeypatch.undo()
    assert learner.join(timeout=10.0)
    assert started == []
    assert report.episodes_run == 3 and report.shutdown_reason is None


@pytest.mark.parametrize("answer, why", [
    (v2_frame({"type": "policy_sync", "policy_version": 0, "layer_sizes": [STATE_DIM, 2],
               "activation": "relu"}), "MalformedFrame: bad policy_sync fields: "),
    (protocol.encode_frame(Shutdown("cut short"))[:7],
     "TruncatedFrame: connection closed 7 bytes into a frame"),
], ids=["malformed", "truncated"])
def test_a_worker_stopped_by_a_bad_frame_says_why(answer, why, caplog):
    # a fake learner answers the hello with a bad frame and closes its side
    # of the stream, then reads until the worker closes its own
    server = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        conn, _ = server.accept()
        with conn:
            assert isinstance(read_frame(conn), WorkerHello)
            conn.sendall(answer)
            conn.shutdown(socket.SHUT_WR)
            while conn.recv(1 << 16):
                pass

    fake = threading.Thread(target=serve, daemon=True)
    fake.start()
    try:
        report = run_worker(server.getsockname(), "w0", episodes=200)
    finally:
        fake.join(timeout=10.0)
        server.close()
    assert not fake.is_alive()
    assert report.shutdown_reason.startswith(why)
    assert report.episodes_run < 200
    assert [(r.levelname, r.getMessage()) for r in caplog.records
            if r.name == "reinfog.distributed"] == [
        ("WARNING", f"worker w0 stopped: {report.shutdown_reason}")]


def test_a_failed_accept_stops_new_sessions_not_training(monkeypatch, caplog):
    learner = small_learner(expected_workers=1)
    sock = socket.create_connection(learner.address, timeout=10.0)
    late = None
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)

        def out_of_descriptors(self):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
        late = socket.create_connection(learner.address, timeout=10.0)
        write_frame(sock, exp_batch("w0", 1))
        sock.shutdown(socket.SHUT_WR)
        assert read_frame(sock) is None
        assert learner.join(timeout=10.0)  # and raises nothing
    finally:
        sock.close()
        if late is not None:
            late.close()
    assert learner.received_experiences == 2 and learner.dropped_sessions == []
    assert any(r.getMessage() == "accepting no more sessions: [Errno 24] Too many open files"
               for r in caplog.records)


def test_start_adds_one_thread_however_many_sessions():
    before = set(threading.enumerate())
    learner = small_learner()
    socks = [socket.create_connection(learner.address, timeout=10.0) for _ in range(3)]
    try:
        for i, sock in enumerate(socks):
            write_frame(sock, WorkerHello(f"w{i}"))
            assert isinstance(read_frame(sock), PolicySync)
        assert len(set(threading.enumerate()) - before) == 1
    finally:
        for sock in socks:
            sock.close()
        learner.stop()
    assert learner.join(timeout=5.0)
    assert not set(threading.enumerate()) - before


def test_the_learner_logs_sessions_drops_and_its_end(caplog):
    caplog.set_level(logging.INFO, logger="reinfog.distributed")
    learner = small_learner(expected_workers=1)
    sock = socket.create_connection(learner.address, timeout=10.0)
    peer = "{}:{}".format(*sock.getsockname()[:2])
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)
        write_frame(sock, exp_batch("w0", 5))
        write_frame(sock, exp_batch("w0", 5))
        while not isinstance(read_frame(sock), Shutdown):
            pass
    finally:
        sock.close()
    assert learner.join(timeout=10.0)
    logged = [(r.levelname, r.getMessage()) for r in caplog.records
              if r.name == "reinfog.distributed"]
    assert logged == [
        ("INFO", f"session of worker w0 from {peer}"),
        ("WARNING", "dropped session of w0: out-of-order batch 5 after 5"),
        ("INFO", "training ended: 0 updates, 2 experiences received, 1 sessions dropped")]


def test_idle_learner_stops_promptly():
    learner = small_learner()
    started = time.monotonic()
    learner.stop()
    assert learner.join(timeout=5.0)
    assert time.monotonic() - started < 0.1


def test_trainer_crash_is_raised_from_join():
    cfg = DqnConfig(hidden_sizes=(8,), batch_size=4, buffer_capacity=64)
    learner = small_learner(cfg=cfg, expected_workers=1)

    def crash(batch):
        raise ValueError("trainer crashed")

    learner.agent.train_step = crash
    sock = socket.create_connection(learner.address)
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)
        write_frame(sock, exp_batch("w0", 1, k=4))
        sock.shutdown(socket.SHUT_WR)
        with pytest.raises(ValueError):
            learner.join(timeout=10.0)
    finally:
        sock.close()
    assert learner.received_experiences == 4
    assert learner.updates == 0


GOOD = transitions(3, state=0.5, action=1, next_state=0.25, done=False)


def with_row_1(field: str, value, column: int | None = None) -> Transitions:
    """GOOD with row 1 (and `column`, for states) of one field replaced."""
    arrays = {f: np.array(getattr(GOOD, f))
              for f in ("states", "actions", "rewards", "next_states", "done")}
    arrays[field][(1, column) if column is not None else 1] = value
    return Transitions(**arrays)


@pytest.mark.parametrize("bad, why", [
    (transitions(3, state=0.5, dim=STATE_DIM - 1), "batch 2 state lengths 9, expected 10"),
    (transitions(3, state=0.5, dim=STATE_DIM + 1), "batch 2 state lengths 11, expected 10"),
    (with_row_1("actions", CLUSTER.n), "batch 2 experience 1: action 2 not an int in [0, 2)"),
    (with_row_1("actions", -1), "batch 2 experience 1: action -1 not an int in [0, 2)"),
    (with_row_1("rewards", float("nan")), "batch 2 experience 1: non-finite reward"),
    (with_row_1("rewards", float("inf")), "batch 2 experience 1: non-finite reward"),
    (with_row_1("states", float("nan"), 0), "batch 2 experience 1: non-finite state"),
    (with_row_1("next_states", -float("inf"), -1), "batch 2 experience 1: non-finite state"),
    (transitions(0), "batch 2 holds no experience"),
], ids=[  # no bad4 or bad5: a float or a bool action cannot be built into a batch
          # at all (the next test), so it never reaches the learner
    "bad0-state lengths", "bad1-state lengths", "bad2-action 2 not an int",
    "bad3-action -1 not an int", "bad6-non-finite reward", "bad7-non-finite reward",
    "bad8-non-finite state", "bad9-non-finite state", "empty"])
def test_unfit_experience_drops_the_session(bad, why):
    # one valid batch of batch_size trains; the next batch is unfit, by its
    # state width or at row 1, and nothing of that batch is taken in
    valid = transitions(SMALL_CFG.batch_size, state=0.5, action=1, next_state=0.25,
                        done=False)
    valid.rewards[:] = -np.arange(SMALL_CFG.batch_size)
    learner = small_learner(expected_workers=1)
    sock = socket.create_connection(learner.address, timeout=10.0)
    try:
        write_frame(sock, WorkerHello("w0"))
        assert isinstance(read_frame(sock), PolicySync)
        write_frame(sock, ExperienceBatch("w0", 1, valid))
        write_frame(sock, ExperienceBatch("w0", 2, bad))
        while not isinstance(msg := read_frame(sock), Shutdown):
            assert msg is not None
        assert read_frame(sock) is None  # the learner dropped the session
    finally:
        sock.close()
    assert learner.join(timeout=10.0)
    assert msg.reason == f"worker w0 {why}"
    assert learner.received_experiences == len(valid)
    assert learner.arrival_log == [("w0", 1, valid)]
    assert learner.dropped_sessions == [("w0", msg.reason)]
    assert learner.updates == 1


@pytest.mark.parametrize("action", [1.0, True])
def test_non_integer_actions_are_refused_when_the_batch_is_built(action):
    with pytest.raises(ValueError, match=f"actions must be a int64 array, got "
                                         f"{np.asarray(action).dtype}"):
        Transitions(GOOD.states, np.full(3, action), GOOD.rewards, GOOD.next_states,
                    GOOD.done)


_V1_HELLO = json.dumps({"type": "worker_hello", "worker_id": "old",
                        "protocol_version": "1"}).encode()
_BATCH = {"type": "experience_batch", "worker_id": "w0", "seq": 1, "rows": 1,
          "dim": STATE_DIM}
_ROW = 16 * STATE_DIM + 17


@pytest.mark.parametrize("after_hello, who, why", [
    # the body is cut short and the worker closes mid-frame
    (v2_frame(_BATCH, bytes(_ROW))[:-8], "w0", "TruncatedFrame: connection closed"),
    (v2_frame(_BATCH, bytes(_ROW + 8)), "w0",
     f"MalformedFrame: experience_batch body of {_ROW + 8} bytes, header says {_ROW}"),
    (None, "127.0.0.1:", "MalformedFrame: payload of"),
])
def test_dropped_sessions_keep_who_and_why(after_hello, who, why):
    learner = small_learner(expected_workers=1)
    sock = socket.create_connection(learner.address, timeout=10.0)
    try:
        if after_hello is None:  # a protocol-1 worker: its hello is plain JSON
            sock.sendall(struct.pack(">I", len(_V1_HELLO)) + _V1_HELLO)
        else:
            write_frame(sock, WorkerHello("w0"))
            assert isinstance(read_frame(sock), PolicySync)
            sock.sendall(after_hello)
            sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1 << 16) == b""  # the learner closed the session
    finally:
        sock.close()
    learner.stop()
    assert learner.join(timeout=10.0)
    [(got_who, reason)] = learner.dropped_sessions
    assert got_who.startswith(who)
    assert reason.startswith(why)
    assert learner.received_experiences == 0


def test_worker_runs_without_any_policy_sync():
    # silent server: accepts, reads everything, never answers
    server = socket.create_server(("127.0.0.1", 0))
    got: list = []

    def serve() -> None:
        conn, _ = server.accept()
        with conn:
            while True:
                msg = read_frame(conn)
                if msg is None:
                    break
                got.append(msg)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    report = run_worker(server.getsockname(), "solo", episodes=2)
    t.join(timeout=10.0)
    server.close()
    assert report.episodes_run == 2
    assert report.versions_seen == ()
    assert all(v == -1 for v in report.decision_log)
    assert report.experiences_sent == 8
    assert isinstance(got[0], WorkerHello)


def test_connect_retry_gives_up():
    probe = socket.create_server(("127.0.0.1", 0))
    dead = probe.getsockname()
    probe.close()
    started = time.monotonic()
    with pytest.raises(ConnectionError, match="after 5 attempts"):
        _connect_with_retry(dead)
    # five attempts, with a backoff of 0.1+0.2+0.4+0.8 s between them
    assert 1.0 <= time.monotonic() - started < 2.5


def test_centralized_zero_episodes_returns_initial():
    res = centralized_mode(CLUSTER, WORKLOAD, episodes=0, dqn_cfg=SMALL_CFG, seed=3)
    assert isinstance(res, CentralizedResult)
    assert res.trace == ()
    assert res.updates == 0
    initial = DqnAgent(STATE_DIM, CLUSTER.n, SMALL_CFG, rng=np.random.default_rng(3)).online
    assert policy_to_doc(res.policy) == policy_to_doc(initial)


def test_centralized_trace_and_update_count_matches_one_worker():
    sync = SyncConfig(sync_interval=2, batch_flush=4)
    central = centralized_mode(CLUSTER, WORKLOAD, episodes=4,
                               dqn_cfg=SMALL_CFG, sync=sync,
                               reward_spec=SPEC, seed=123)
    assert len(central.trace) == 4
    assert [row.episode for row in central.trace] == [0, 1, 2, 3]
    learner = small_learner(expected_workers=1)
    run_worker(learner.address, "w0", episodes=4)
    assert learner.join(timeout=20.0)
    assert central.updates == learner.updates


def test_centralized_trajectory_pinned(monkeypatch):
    # On the criterion-06 set-up, 20 episodes: the trace is pinned by its
    # sha256, and the weights must equal, byte for byte, those of the same
    # run with the per-tensor Adam step and the eager Q-values of act that
    # the flat buffer and the lazy rule replaced. The weights are compared
    # in-process because their bits depend on the BLAS kernel of the host;
    # the trace depends on them only through argmax and the simulator.
    nodes = (Node(0, 2000.0, 2048.0, 20.0), Node(1, 1000.0, 1024.0, 60.0),
             Node(2, 400.0, 512.0, 140.0))
    ids = [0, 1, 2, USER]
    cluster = ClusterSpec(nodes, {(a, b): LinkSpec(0.01, 100.0)
                                  for a in ids for b in ids if a != b})
    workload = generate_workload(20, 5, rng=np.random.default_rng([42, 101]),
                                 density=1.0)
    releases = {dag.id: 4.0 * i for i, dag in enumerate(workload)}
    spec = make_reward_spec(cluster, workload, releases=releases)
    cfg = DqnConfig(hidden_sizes=(64, 64, 32), learning_rate=0.01,
                    discount=0.99, eps_start=1.0, eps_end=0.005,
                    eps_decay_steps=30000, buffer_capacity=20000,
                    batch_size=64, target_sync_interval=50)

    def run(seed):
        return centralized_mode(cluster, workload, 20, dqn_cfg=cfg,
                                sync=SyncConfig(10, 8), reward_spec=spec,
                                releases=releases, seed=seed)

    def eager_act(self, state, rng=None):
        action = eps_greedy(forward(self.online, state), self.epsilon,
                            rng if rng is not None else self.rng)
        self.decisions += 1
        return action

    want = {1: "0d181ba7eee3313e0cf2f82e09af69861558c7f54acfb5592804ebb69bcfffc8",
            5: "19c20f94cda0d51bd802663b05af4fec36a71370c8ffb65b57ed6d05208f8cdc"}
    results = {seed: run(seed) for seed in want}
    monkeypatch.setattr(dqn, "make_optimizer", lambda kind, lr: PerTensorAdam(lr))
    monkeypatch.setattr(dqn.DqnAgent, "act", eager_act)
    for seed, digest in want.items():
        res, ref = results[seed], run(seed)
        assert res.updates == ref.updates == 243
        assert res.trace == ref.trace
        assert hashlib.sha256(repr(res.trace).encode()).hexdigest() == digest
        for got, expect in zip(res.policy.weights + res.policy.biases,
                               ref.policy.weights + ref.policy.biases):
            assert got.tobytes() == expect.tobytes()
