"""Per-layer counters installed from outside the program.

The tracer replaces module and class attributes that the program calls
through (for example `reinfog.placement.firefly_movement`, which
`madcp_run` looks up at call time) with wrappers that count calls and add
up wall time, then puts the originals back. Times are inclusive: a span
covers the spans nested inside it. Threads share the counters under a lock,
so in the distributed workload a span also covers time spent waiting for
the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (layer name, "module" or "module:Class", attribute)
TARGETS = (
    ("placement.firefly_movement", "reinfog.placement", "firefly_movement"),
    ("placement._ga_offspring", "reinfog.placement", "_ga_offspring"),
    ("placement.pso_update", "reinfog.placement", "pso_update"),
    ("placement.fitness_many", "reinfog.placement:_CostTables", "fitness_many"),
    ("placement.cost_tables_built", "reinfog.placement:_CostTables", "__init__"),
    ("model.objective", "reinfog.placement", "objective"),
    ("model.check_constraints", "reinfog.placement", "check_constraints"),
    ("sim.peek", "reinfog.sim:IncrementalSim", "peek"),
    ("sim.commit", "reinfog.sim:IncrementalSim", "commit"),
    ("sim.encode_state", "reinfog.sim", "encode_state"),
    ("network.forward", "reinfog.network", "forward"),
    ("network.forward", "reinfog.dqn", "forward"),
    ("dqn.train_step", "reinfog.dqn:DqnAgent", "train_step"),
    ("network.dqn_loss_grads", "reinfog.network", "dqn_loss_grads"),
    ("network.optimizer_step", "reinfog.network:AdamOptimizer", "step"),
    ("network.optimizer_step", "reinfog.network:SgdOptimizer", "step"),
    ("replay.sample", "reinfog.replay:RandomReplayBuffer", "sample"),
    ("protocol.decode", "reinfog.protocol", "message_from_doc"),
)

# message class name -> byte counter fed by the encode_frame wrapper
_FRAME_KINDS = {"ExperienceBatch": "protocol.experience_batch",
                "PolicySync": "protocol.policy_sync"}


class Span:
    __slots__ = ("calls", "seconds", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0


class _TimedJson:
    """Stand-in for the `json` module inside reinfog.protocol; times `loads`."""

    def __init__(self, real, record) -> None:
        self._real = real
        self._record = record

    def loads(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._real.loads(*args, **kwargs)
        finally:
            self._record(time.perf_counter() - t0)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Counts calls and inclusive seconds per layer while installed."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _add(self, name: str, seconds: float, nbytes: int = 0) -> None:
        with self._lock:
            s = self.span(name)
            s.calls += 1
            s.seconds += seconds
            s.bytes += nbytes

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, time.perf_counter() - t0)
        return wrapper

    def install(self) -> "Tracer":
        self.missing = []
        for name, where, attr in TARGETS:
            self.span(name)
            module_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                # a layer the program no longer has does no work
                self.missing.append(f"{where}.{attr}")
                continue
            self._patch(owner, attr, self._timed(name, vars(owner)[attr]))
        self._install_protocol()
        if self.missing:
            print(f"# tracer: not found, reported as 0: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def _install_protocol(self) -> None:
        protocol = importlib.import_module("reinfog.protocol")
        for kind in _FRAME_KINDS.values():
            self.span(kind)
        self.span("protocol.encode_frame")
        encode = protocol.encode_frame

        @functools.wraps(encode)
        def encode_frame(msg):
            t0 = time.perf_counter()
            frame = encode(msg)
            self._add("protocol.encode_frame", time.perf_counter() - t0)
            kind = _FRAME_KINDS.get(type(msg).__name__)
            if kind is not None:
                self._add(kind, 0.0, len(frame))
            return frame

        self._patch(protocol, "encode_frame", encode_frame)
        self._patch(protocol, "json", _TimedJson(
            protocol.json, lambda s: self._add("protocol.decode", s)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
