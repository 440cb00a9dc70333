"""Distributed training runtime: one learner, many experience-streaming workers.

Topology and rules:

* Workers run episodes locally and stream batches of transitions; the learner
  is the only thread that touches network parameters.
* Session threads never train. They validate ordering and content (see
  _batch_fault) and push batches to one queue; a single trainer thread
  consumes arrivals in queue order, so given a recorded arrival order and a
  fixed seed the learner's parameter trajectory is reproducible bit for bit
  (see replay_arrivals).
* Per batch arrival the learner performs at most ONE gradient update
  (once the buffer holds a full batch), so update counts depend only on
  the arrival sizes, not on timing or experience content.
* Policy broadcasts go out every sync_interval updates with a strictly
  increasing policy_version, encoded once and sent as the same bytes to
  every session; workers swap policies in between decisions. A new
  session's bootstrap is the frame last published, from version 0 on.
* The trainer ends at a None end marker in its queue, put there by stop()
  or by the last of `expected_workers` sessions to end.
* A session that ends other than by a clean close is kept in
  `dropped_sessions` with the worker id (or the peer address before the
  worker said hello) and the reason.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass

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
    number = int(port)
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


class _Session:
    def __init__(self, worker_id: str, sock: socket.socket) -> None:
        self.worker_id = worker_id
        self.last_seq = -1
        self.sock = sock
        self.write_lock = threading.Lock()

    def send(self, msg: WireMessage) -> bool:
        return self.send_frame(protocol.encode_frame(msg))

    def send_frame(self, frame: bytes) -> bool:
        try:
            with self.write_lock:
                self.sock.sendall(frame)
            return True
        except OSError:
            return False


class Learner:
    """Accepts worker sessions, trains on streamed experience, broadcasts policy.

    The trainer ends once `max_updates` is reached, or at the end marker
    queued when all `expected_workers` sessions have come and gone. stop()
    forces teardown and trains nothing still queued. If the trainer thread
    fails, the learner stops and join() re-raises the failure.
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
        self._host, self._port = host, port
        self._max_updates = max_updates
        self._expected_workers = expected_workers
        self._policy_frame = protocol.encode_frame(PolicySync(0, self.agent.online))
        self.received_experiences = 0
        self.arrival_log: list[tuple[str, int, Transitions]] = []
        self.dropped_sessions: list[tuple[str, str]] = []  # (worker or peer, reason)
        self._queue: "queue.Queue" = queue.Queue()
        self._sessions: dict[str, _Session] = {}
        self._sessions_started = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._train_error: Exception | None = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._session_threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Learner":
        self._listener = socket.create_server((self._host, self._port))
        for target in (self._train_loop, self._accept_loop):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self._threads.append(t)
        self._end_if_all_gone()
        return self

    @property
    def updates(self) -> int:
        return self.agent.updates

    @property
    def policy_version(self) -> int:
        return self.updates // self.sync.sync_interval

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "learner not started"
        return tuple(self._listener.getsockname()[:2])

    def stop(self, reason: str = "server stopped") -> None:
        if not self._stop.is_set():
            self._broadcast(Shutdown(reason))
            self._halt()
            self._queue.put(None)  # ends the trainer
        with self._lock:
            for session in self._sessions.values():
                try:
                    session.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def _halt(self) -> None:
        """Set the stop flag and wake the accept loop blocked in accept()."""
        self._stop.set()
        if self._listener is None:
            return
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def join(self, timeout: float | None = None) -> bool:
        """Wait for training, sessions and threads to end; False on timeout.

        Re-raises the exception that ended the trainer thread, if any.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def ended(t: threading.Thread) -> bool:
            t.join(None if deadline is None else max(deadline - time.monotonic(), 0.0))
            return not t.is_alive()

        trainer, acceptor = self._threads
        # the sessions are listed once the trainer has ended
        if not (ended(trainer) and all(map(ended, list(self._session_threads)))):
            return False
        self._halt()
        if not ended(acceptor):
            return False
        self._listener.close()
        if self._train_error is not None:
            raise self._train_error
        return True

    # -- threads -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:  # _halt() shut the listener down
                break
            t = threading.Thread(target=self._session_loop,
                                 args=(sock, "{}:{}".format(*peer[:2])), daemon=True)
            t.start()
            self._session_threads.append(t)

    def _session_loop(self, sock: socket.socket, peer: str) -> None:
        who, session, reason = peer, None, None
        try:
            hello = read_frame(sock)
            if isinstance(hello, WorkerHello):
                who = hello.worker_id
            if not isinstance(hello, WorkerHello):
                reason = "expected worker_hello"
            elif hello.protocol_version != PROTOCOL_VERSION:
                reason = f"protocol version {hello.protocol_version} unsupported"
            else:
                with self._lock:
                    if who not in self._sessions:
                        session = _Session(who, sock)
                        self._sessions[who] = session
                        self._sessions_started += 1
                        bootstrap = self._policy_frame
                reason = "duplicate worker id" if session is None else None
            if reason is not None:
                write_frame(sock, Shutdown(reason))
                return
            session.send_frame(bootstrap)  # the last published policy
            reason = self._receive_batches(session)
            if reason is not None:
                session.send(Shutdown(reason))
        except (ProtocolError, OSError) as exc:
            reason = reason or f"{type(exc).__name__}: {exc}"
        finally:
            if session is not None:
                with self._lock:
                    self._sessions.pop(session.worker_id, None)
                self._end_if_all_gone()
            sock.close()
            if reason is not None:
                with self._lock:
                    self.dropped_sessions.append((who, reason))

    def _receive_batches(self, session: _Session) -> str | None:
        """Queue the session's batches until it ends; why it must be
        dropped, or None when it closed or said shutdown."""
        while not self._stop.is_set():
            msg = read_frame(session.sock)
            if msg is None or isinstance(msg, Shutdown):
                return None
            if not isinstance(msg, ExperienceBatch):
                return "unexpected message type"
            if msg.worker_id != session.worker_id:
                return "worker id changed mid-session"
            if msg.seq <= session.last_seq:
                return f"out-of-order batch {msg.seq} after {session.last_seq}"
            fault = _batch_fault(msg.experiences, *self._dims)
            if fault is not None:
                return f"worker {msg.worker_id} batch {msg.seq} {fault}"
            session.last_seq = msg.seq
            with self._lock:
                self.received_experiences += len(msg.experiences)
            self._queue.put((msg.worker_id, msg.seq, msg.experiences))
        return None

    def _end_if_all_gone(self) -> None:
        """Queue the trainer's end marker once every expected worker has come
        and gone: FIFO puts it behind the last batch of the session ending."""
        with self._lock:
            if self._expected_workers is not None and not self._sessions \
                    and self._sessions_started >= self._expected_workers:
                self._queue.put(None)

    def _train_loop(self) -> None:
        try:
            for arrival in iter(self._queue.get, None):
                if self._stop.is_set():
                    break
                self.arrival_log.append(arrival)
                if not self._core.ingest(arrival[2]):
                    continue
                if self.updates % self.sync.sync_interval == 0:
                    self._broadcast(PolicySync(self.policy_version, self.agent.online))
                if self._max_updates is not None \
                        and self.updates >= self._max_updates:
                    self._broadcast(Shutdown("training complete"))
                    break
        except Exception as exc:
            self._train_error = exc
            self.stop(f"trainer failed: {exc!r}")

    def _broadcast(self, msg: WireMessage) -> None:
        """Encode `msg` once and send the same bytes to every session; a
        PolicySync frame is also kept to bootstrap later sessions."""
        frame = protocol.encode_frame(msg)
        with self._lock:
            if isinstance(msg, PolicySync):
                self._policy_frame = frame
            sessions = list(self._sessions.values())
        for session in sessions:
            session.send_frame(frame)


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
