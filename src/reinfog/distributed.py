"""Distributed training runtime: one learner, many experience-streaming workers.

Topology and rules:

* Workers run episodes locally and stream batches of transitions; the learner
  is one thread, the only one that touches network parameters.
* That thread runs a selector over the listener, a wake-up socket for stop()
  and the sessions. It parses whole frames off what each session has sent,
  checks their ordering and content (see _batch_fault), appends the batches
  to one FIFO and trains it oldest first. It serves the sockets only when
  the FIFO is empty or a frame waits to be sent, because each select() or
  recv() lets the worker threads of the same process take the interpreter
  lock. Given a recorded arrival order and a fixed seed the learner's
  parameter trajectory is reproducible bit for bit (see replay_arrivals).
* Per batch arrival the learner performs at most ONE gradient update
  (once the buffer holds a full batch), so update counts depend only on
  the arrival sizes, not on timing or experience content.
* Policy broadcasts go out every sync_interval updates with a strictly
  increasing policy_version, encoded once and queued as the same bytes on
  every session's outbox, sent as its socket takes it; workers swap policies
  in between decisions. A new session's bootstrap is the frame last
  published, from version 0 on. A session that leaves more than
  OUTBOX_FRAMES frames unsent, or one for SEND_TIMEOUT_S, is dropped, so a
  worker that stops reading cannot stall training. A worker dropped for
  what it sent is read no more and is told why in a Shutdown sent after the
  frames queued before it.
* The learner ends once its `expected_workers` have come and gone and the
  FIFO is empty; past `max_updates` it trains nothing more and ends once the
  sessions have closed. stop() ends it at once: each worker is sent Shutdown
  within SEND_TIMEOUT_S, and nothing still in the FIFO is trained.
* A session that ends other than by a clean close is kept in
  `dropped_sessions` with the worker id (or the peer address before the
  worker said hello) and the reason. If accept() fails (out of file
  descriptors, say), the learner takes no new sessions and keeps the others.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dqn import DqnAgent, DqnConfig
from .model import fold_sum
from . import protocol, sim
from .network import NetworkParams
from .protocol import (
    PROTOCOL_VERSION,
    ExperienceBatch,
    PolicySync,
    ProtocolError,
    Shutdown,
    TruncatedFrame,
    WireMessage,
    WorkerHello,
    read_frame,
    write_frame,
)
from .replay import RandomReplayBuffer, Transitions
from .sim import (
    ClusterSpec,
    RewardSpec,
    make_reward_spec,
    run_episode,
)

ENDPOINT_ENV_VAR = "REINFOG_LEARNER_ADDR"

RETRY_INITIAL_S = 0.1
RETRY_CAP_S = 5.0
RETRY_MAX_ATTEMPTS = 5
OUTBOX_FRAMES = 16  # frames a session may leave unsent before it is dropped
SEND_TIMEOUT_S = 2.0  # how long a session's oldest unsent frame may wait

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SyncConfig:
    sync_interval: int = 10  # learner updates between policy broadcasts
    batch_flush: int = 8     # experiences per ExperienceBatch

    def __post_init__(self) -> None:
        if self.sync_interval < 1 or self.batch_flush < 1:
            raise ValueError("sync_interval and batch_flush must be >= 1")


def parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like host:port, got {text!r}")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"port {port!r} in {text!r} is not an integer") from None
    if not 0 <= number <= 65535:
        raise ValueError(f"port {number} in {text!r} is not in [0, 65535]")
    return host, number


def _take_batches(pending: list[Transitions], size: int,
                  everything: bool = False) -> list[Transitions]:
    """Cut full batches of `size` off the front of the transitions in
    `pending`, in order; with `everything`, the short remainder too. What is
    left stays in `pending`."""
    if not pending:
        return []
    rows = Transitions.concat(pending)
    stop = len(rows) if everything else len(rows) - len(rows) % size
    pending[:] = [rows[stop:]]
    return [rows[i:i + size] for i in range(0, stop, size)]


def _batch_fault(batch: Transitions, state_dim: int, n_actions: int) -> str | None:
    """Why a received batch is unfit to train on, naming the first bad row
    by its index; None when every row is fit. `Transitions` already holds
    the dtypes (int64 actions) and consistent shapes; the state width, the
    action range and finiteness are each checked in one array pass. An
    empty batch is unfit too: every arrival may drive an update."""
    if len(batch) == 0:
        return "holds no experience"
    dim = batch.states.shape[1]
    if dim != state_dim:
        return f"state lengths {dim}, expected {state_dim}"
    actions = batch.actions
    bad = (actions < 0) | (actions >= n_actions)
    if bad.any():
        i = int(bad.argmax())
        return f"experience {i}: action {actions[i]} not an int in [0, {n_actions})"
    reward_ok = np.isfinite(batch.rewards)
    finite = reward_ok & np.isfinite(batch.states).all(axis=1) \
        & np.isfinite(batch.next_states).all(axis=1)
    if finite.all():
        return None
    i = int(finite.argmin())
    return f"experience {i}: non-finite {'reward' if not reward_ok[i] else 'state'}"


class _TrainerCore:
    """Buffer-and-update cadence shared by the live learner and replays."""

    def __init__(self, agent: DqnAgent, rng: np.random.Generator) -> None:
        self.agent = agent
        self.rng = rng
        self.buffer = RandomReplayBuffer(agent.cfg.buffer_capacity)

    def ingest(self, batch: Transitions) -> bool:
        """Append one arrival; run a single update once a batch is buffered."""
        self.buffer.push(batch)
        if len(self.buffer) < self.agent.cfg.batch_size:
            return False
        batch = self.buffer.sample(self.agent.cfg.batch_size, self.rng)
        self.agent.train_step(batch)
        return True


def replay_arrivals(arrivals: list[tuple[str, int, Transitions]],
                    state_dim: int, n_actions: int,
                    cfg: DqnConfig | None = None,
                    seed: int | None = 0) -> tuple[int, NetworkParams]:
    """Re-run a recorded arrival log through a fresh trainer core.

    With the same seed as the live learner this reproduces its update count
    and final weights exactly.
    """
    rng = np.random.default_rng(seed)
    agent = DqnAgent(state_dim, n_actions, cfg, rng=rng)
    core = _TrainerCore(agent, rng)
    return sum(core.ingest(batch) for _, _, batch in arrivals), agent.online


@dataclass(eq=False)
class _Session:
    """A peer's socket, the bytes it sent that are not parsed yet, and the
    frames not yet sent to it, each with the time it was queued. A session
    that is `closing` is read no more and is closed once its outbox is sent."""
    sock: socket.socket
    who: str  # the peer address, then the worker id its hello names
    last_seq: int = -1
    closing: bool = False
    inbox: bytearray = field(default_factory=bytearray)
    outbox: deque[tuple[memoryview, float]] = field(default_factory=deque)


class Learner:
    """Accepts worker sessions, trains on streamed experience, broadcasts policy.

    One thread on a selector does it all; the module docstring gives the
    rules. If training fails, the learner stops and join() re-raises it.
    """

    def __init__(self, state_dim: int, n_actions: int,
                 cfg: DqnConfig | None = None, sync: SyncConfig | None = None,
                 seed: int | None = 0, host: str = "127.0.0.1", port: int = 0,
                 max_updates: int | None = None,
                 expected_workers: int | None = None) -> None:
        self.cfg = cfg or DqnConfig()
        self.sync = sync or SyncConfig()
        rng = np.random.default_rng(seed)
        self.agent = DqnAgent(state_dim, n_actions, self.cfg, rng=rng)
        self._dims = (state_dim, n_actions)
        self._core = _TrainerCore(self.agent, rng)
        self._max_updates, self._expected_workers = max_updates, expected_workers
        self._policy_frame = protocol.encode_frame(PolicySync(0, self.agent.online))
        self.received_experiences = 0
        self.arrival_log: list[tuple[str, int, Transitions]] = []
        self.dropped_sessions: list[tuple[str, str]] = []  # (worker or peer, reason)
        self._fifo: deque[tuple[str, int, Transitions]] = deque()
        self._workers: dict[str, _Session] = {}  # the sessions past their hello
        self._sessions_started = 0
        self._complete = False  # max_updates reached
        self._stop_reason: str | None = None
        self._error: Exception | None = None
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._wake_send, self._wake_recv = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_recv):
            self._selector.register(sock, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "Learner":
        self._thread.start()
        return self

    @property
    def updates(self) -> int:
        return self.agent.updates

    @property
    def policy_version(self) -> int:
        return self.updates // self.sync.sync_interval

    def stop(self, reason: str = "server stopped") -> None:
        """From any thread: send each worker Shutdown(reason) and end."""
        self._stop_reason = self._stop_reason or reason
        try:
            self._wake_send.send(b"\0")
        except OSError:  # the loop has ended and closed it
            pass

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the end; False on timeout. Re-raises a training failure."""
        self._thread.join(timeout)
        if self._error is not None and not self._thread.is_alive():
            raise self._error
        return not self._thread.is_alive()

    def _run(self) -> None:
        """Train until the end or stop(), serving the sockets only when the FIFO
        is empty or a frame waits to be sent: each select() or recv() hands the
        interpreter lock to the worker threads of the same process."""
        try:
            try:
                wait = None  # no frame waits yet
                while self._stop_reason is None and not self._finished():
                    if not self._fifo or wait is not None:
                        self._poll(0.0 if self._fifo else wait)
                    if self._fifo and self._stop_reason is None:
                        self._train(self._fifo.popleft())
                    wait = self._expire()
            except Exception as exc:
                self._error, self._stop_reason = exc, f"trainer failed: {exc!r}"
            if self._stop_reason is not None:
                self._broadcast(Shutdown(self._stop_reason))
            while (wait := self._expire()) is not None:  # within SEND_TIMEOUT_S
                self._poll(wait)
        except Exception as exc:  # while sending the last frames
            self._error = self._error or exc
        finally:
            for s in self._sessions():
                self._close(s)
            for closable in (self._selector, self._listener, self._wake_send, self._wake_recv):
                closable.close()
            log.info("training ended: %d updates, %d experiences received, %d sessions dropped",
                     self.updates, self.received_experiences, len(self.dropped_sessions))

    def _finished(self) -> bool:
        expected = self._expected_workers
        came = self._complete if expected is None else self._sessions_started >= expected
        return came and not self._workers and not self._fifo

    def _sessions(self) -> list[_Session]:
        return [k.data for k in self._selector.get_map().values() if k.data is not None]

    def _said_hello(self, s: _Session) -> bool:
        return self._workers.get(s.who) is s

    def _poll(self, timeout: float | None) -> None:
        for key, events in self._selector.select(timeout):
            if key.fileobj is self._listener:
                try:
                    sock, peer = self._listener.accept()
                except OSError as exc:  # e.g. out of descriptors: keep the sessions there are
                    self._selector.unregister(self._listener)
                    log.warning("accepting no more sessions: %s", exc)
                    continue
                sock.setblocking(False)
                self._selector.register(sock, selectors.EVENT_READ,
                                        _Session(sock, "{}:{}".format(*peer[:2])))
            elif key.data is None:
                key.fileobj.recv(64)  # stop() woke the loop
            else:
                if events & selectors.EVENT_WRITE:
                    self._send(key.data)
                if events & selectors.EVENT_READ:
                    self._read(key.data)

    def _read(self, s: _Session) -> None:
        buf, used = s.inbox, 0
        try:
            data = s.sock.recv(1 << 16)
            if not data and buf:
                return self._close(s, f"TruncatedFrame: connection closed {len(buf)} "
                                      "bytes into a frame")
            if not data:
                return self._close(s, None if self._said_hello(s) else "expected worker_hello")
            buf += data
            while True:
                msg, size = protocol.decode_frame(memoryview(buf)[used:])
                used += size
                if isinstance(msg, Shutdown) and self._said_hello(s):
                    return self._close(s)
                why = self._take(s, msg)
                if why is not None:
                    return self._close(s, why, tell=True)
        except TruncatedFrame:
            if used:  # the batches taken are views of buf, so buf is never resized
                s.inbox = buf[used:]
        except (ProtocolError, OSError) as exc:
            self._close(s, f"{type(exc).__name__}: {exc}")

    def _take(self, s: _Session, msg: WireMessage) -> str | None:
        """Act on one message from `s`; why `s` must be dropped, if it must."""
        if not self._said_hello(s):
            if not isinstance(msg, WorkerHello):
                return "expected worker_hello"
            peer, s.who = s.who, msg.worker_id
            if msg.protocol_version != PROTOCOL_VERSION:
                return f"protocol version {msg.protocol_version} unsupported"
            if s.who in self._workers:
                return "duplicate worker id"
            self._workers[s.who] = s
            self._sessions_started += 1
            log.info("session of worker %s from %s", s.who, peer)
            self._send(s, self._policy_frame)  # the last published policy
            return None
        if not isinstance(msg, ExperienceBatch):
            return "unexpected message type"
        if msg.worker_id != s.who:
            return "worker id changed mid-session"
        if msg.seq <= s.last_seq:
            return f"out-of-order batch {msg.seq} after {s.last_seq}"
        fault = _batch_fault(msg.experiences, *self._dims)
        if fault is not None:
            return f"worker {msg.worker_id} batch {msg.seq} {fault}"
        s.last_seq = msg.seq
        self.received_experiences += len(msg.experiences)
        if not self._complete:
            self._fifo.append((msg.worker_id, msg.seq, msg.experiences))
        return None

    def _train(self, arrival: tuple[str, int, Transitions]) -> None:
        self.arrival_log.append(arrival)
        if not self._core.ingest(arrival[2]):
            return
        if self.updates % self.sync.sync_interval == 0:
            self._broadcast(PolicySync(self.policy_version, self.agent.online))
        if self._max_updates is not None and self.updates >= self._max_updates:
            self._broadcast(Shutdown("training complete"))
            self._complete = True
            self._fifo.clear()

    def _broadcast(self, msg: WireMessage) -> None:
        """Queue `msg`, encoded once, for every worker; keep a PolicySync's frame."""
        frame = protocol.encode_frame(msg)
        if isinstance(msg, PolicySync):
            self._policy_frame = frame
        for s in self._workers.values():
            self._send(s, frame)

    def _send(self, s: _Session, frame: bytes | None = None) -> None:
        """Queue `frame`, if given, and send what the socket takes now."""
        if frame is not None:
            s.outbox.append((memoryview(frame), time.monotonic()))
        try:
            while s.outbox:
                head, queued = s.outbox[0]
                sent = s.sock.send(head)
                if sent < len(head):
                    s.outbox[0] = (head[sent:], queued)
                    break
                s.outbox.popleft()
        except BlockingIOError:
            pass
        except OSError:  # the peer is gone; reading its socket ends the session
            s.outbox.clear()
        if s.closing and not s.outbox:
            return self._close(s)
        self._selector.modify(s.sock, (0 if s.closing else selectors.EVENT_READ)
                              | (selectors.EVENT_WRITE if s.outbox else 0), s)

    def _expire(self) -> float | None:
        """Drop the sessions past an outbox bound; the seconds to the next deadline."""
        now, waits = time.monotonic(), []
        for s in [s for s in self._sessions() if s.outbox]:
            age = now - s.outbox[0][1]
            if len(s.outbox) <= OUTBOX_FRAMES and age < SEND_TIMEOUT_S:
                waits.append(SEND_TIMEOUT_S - age)
            else:  # a closing session's drop is already recorded
                self._close(s, None if s.closing else
                            f"{len(s.outbox)} frames unsent, the oldest for {age:.2f} s: "
                            f"past the outbox bound of {OUTBOX_FRAMES} or the send "
                            f"timeout of {SEND_TIMEOUT_S} s")
        return min(waits, default=None)

    def _close(self, s: _Session, why: str | None = None, tell: bool = False) -> None:
        """Close `s`, dropped for `why` if given; with `tell`, once Shutdown(why) is sent."""
        if why is not None:
            self.dropped_sessions.append((s.who, why))
            log.warning("dropped session of %s: %s", s.who, why)
        if self._said_hello(s):
            del self._workers[s.who]
        if tell:
            s.closing = True
            return self._send(s, protocol.encode_frame(Shutdown(why)))
        self._selector.unregister(s.sock)
        s.sock.close()


def _connect_with_retry(endpoint: tuple[str, int]) -> socket.socket:
    delay = RETRY_INITIAL_S
    last: Exception | None = None
    for _ in range(RETRY_MAX_ATTEMPTS):
        try:
            return socket.create_connection(endpoint)
        except OSError as exc:
            last = exc
            time.sleep(delay)
            delay = min(delay * 2, RETRY_CAP_S)
    raise ConnectionError(
        f"could not reach learner at {endpoint[0]}:{endpoint[1]} "
        f"after {RETRY_MAX_ATTEMPTS} attempts") from last


class _PolicyMailbox:
    """Latest policy snapshot, swapped in between decision steps."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: tuple[int, NetworkParams] | None = None
        self.versions_seen: list[int] = []

    def offer(self, version: int, params: NetworkParams) -> None:
        with self._lock:
            self.versions_seen.append(version)
            if self._latest is None or version >= self._latest[0]:
                self._latest = (version, params)

    def take(self, newer_than: int) -> tuple[int, NetworkParams] | None:
        with self._lock:
            if self._latest is not None and self._latest[0] > newer_than:
                return self._latest
        return None


@dataclass(frozen=True)
class WorkerReport:
    worker_id: str
    episodes_run: int
    batches_sent: int
    experiences_sent: int
    episode_rewards: tuple[float, ...]
    episode_wc: tuple[float, ...]
    decision_log: tuple[int, ...]     # policy version in force at each decision
    versions_seen: tuple[int, ...]    # every PolicySync received, in order
    shutdown_reason: str | None


def worker_loop(endpoint: tuple[str, int], worker_id: str,
                cluster: ClusterSpec, workload, episodes: int,
                sync: SyncConfig | None = None,
                dqn_cfg: DqnConfig | None = None,
                reward_spec: RewardSpec | None = None,
                releases=None, rng: np.random.Generator | int | None = None) -> WorkerReport:
    """Collect episodes and stream them to the learner until done or told to stop.

    Acting is epsilon-greedy on the latest synced policy; policy swaps happen
    only between decisions.
    """
    sync = sync or SyncConfig()
    spec = reward_spec or make_reward_spec(cluster, workload, releases=releases)
    agent = DqnAgent(sim.state_dim(cluster.n), cluster.n, dqn_cfg, rng=rng)
    mailbox = _PolicyMailbox()
    stop = threading.Event()
    shutdown_reason: list[str | None] = [None]

    sock = _connect_with_retry(endpoint)

    def receive() -> None:
        try:
            while True:
                msg = read_frame(sock)
                if msg is None:
                    break
                if isinstance(msg, PolicySync):
                    mailbox.offer(msg.policy_version, msg.policy)
                elif isinstance(msg, Shutdown):
                    shutdown_reason[0] = msg.reason
                    stop.set()
                    break
        except (ProtocolError, OSError):
            stop.set()

    receiver = threading.Thread(target=receive, daemon=True)
    current_version = -1
    decision_log: list[int] = []
    pending: list[Transitions] = []
    seq = experiences_sent = 0  # seq also counts the batches sent
    rewards: list[float] = []  # one per episode run
    wcs: list[float] = []

    def policy_step(state: np.ndarray) -> int:
        nonlocal current_version
        newer = mailbox.take(current_version)
        if newer is not None:
            current_version = newer[0]
            agent.set_online(newer[1])
        decision_log.append(current_version)
        return agent.act(state)

    def flush(everything: bool = False) -> None:
        nonlocal seq, experiences_sent
        for batch in _take_batches(pending, sync.batch_flush, everything):
            write_frame(sock, ExperienceBatch(worker_id, seq + 1, batch))
            seq += 1
            experiences_sent += len(batch)

    try:
        write_frame(sock, WorkerHello(worker_id))
        receiver.start()
        for _ in range(episodes):
            if stop.is_set():
                break
            result = run_episode(cluster, workload, policy_step, spec, releases)
            rewards.append(fold_sum(result.rewards))
            wcs.append(result.total_wc)
            pending.append(result.steps)
            flush()
        flush(everything=True)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        receiver.join(timeout=10.0)
    except OSError as exc:
        if shutdown_reason[0] is None:
            shutdown_reason[0] = f"connection lost: {exc}"
    finally:
        stop.set()
        sock.close()
        if receiver.is_alive():
            receiver.join(timeout=1.0)

    return WorkerReport(worker_id=worker_id, episodes_run=len(rewards),
                        batches_sent=seq,
                        experiences_sent=experiences_sent,
                        episode_rewards=tuple(rewards),
                        episode_wc=tuple(wcs),
                        decision_log=tuple(decision_log),
                        versions_seen=tuple(mailbox.versions_seen),
                        shutdown_reason=shutdown_reason[0])


@dataclass(frozen=True)
class EpisodeRow:
    episode: int
    steps: int
    total_reward: float
    total_wc: float
    epsilon: float
    updates: int


@dataclass(frozen=True)
class CentralizedResult:
    policy: NetworkParams
    trace: tuple[EpisodeRow, ...]
    updates: int


def centralized_mode(cluster: ClusterSpec, workload, episodes: int,
                     dqn_cfg: DqnConfig | None = None,
                     sync: SyncConfig | None = None,
                     reward_spec: RewardSpec | None = None,
                     releases=None, seed: int | None = 0) -> CentralizedResult:
    """Single-process act/store/update loop; no sockets involved.

    Experiences enter the buffer in groups of batch_flush (the remainder
    only at the very end), reproducing the arrival pattern of one worker
    feeding a learner, so update counts match that setup exactly.
    """
    sync = sync or SyncConfig()
    spec = reward_spec or make_reward_spec(cluster, workload, releases=releases)
    rng = np.random.default_rng(seed)
    agent = DqnAgent(sim.state_dim(cluster.n), cluster.n, dqn_cfg, rng=rng)
    core = _TrainerCore(agent, rng)
    pending: list[Transitions] = []
    trace: list[EpisodeRow] = []

    def drain(everything: bool = False) -> None:  # agent.updates counts the updates run
        for batch in _take_batches(pending, sync.batch_flush, everything):
            core.ingest(batch)

    for episode in range(episodes):
        result = run_episode(cluster, workload, agent.act, spec, releases)
        pending.append(result.steps)
        drain()
        trace.append(EpisodeRow(episode=episode, steps=len(result.steps),
                                total_reward=fold_sum(result.rewards),
                                total_wc=result.total_wc,
                                epsilon=agent.epsilon, updates=agent.updates))
    drain(everything=True)
    return CentralizedResult(policy=agent.online.copy(), trace=tuple(trace),
                             updates=agent.updates)
