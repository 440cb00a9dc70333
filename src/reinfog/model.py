"""Domain model: placement instances, application DAGs, and cost metrics.

Units are fixed across the package: compute demand in mega-cycles, compute
capacity in mega-cycles per second, memory in MB, data sizes in MB, time in
seconds, power in watts, energy in joules.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, 0 when empty. Float `sum()` compensates its
    rounding from Python 3.12 on; this gives the same bits on every version."""
    return functools.reduce(operator.add, values, 0)


def require_finite(what: str, **values: float) -> None:
    """Raise ValueError naming the first value that is NaN or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{what}: {name} must be finite, got {v}")


@dataclass(frozen=True)
class Component:
    id: int
    compute_req: float  # mega-cycles
    mem_req: float      # MB
    deadline: float     # seconds
    role: str = "worker"

    def __post_init__(self) -> None:
        require_finite(f"component {self.id}", compute_req=self.compute_req,
                       mem_req=self.mem_req, deadline=self.deadline)


@dataclass(frozen=True)
class Node:
    id: int
    compute_cap: float  # mega-cycles per second
    mem_avail: float    # MB
    power_draw: float   # watts while executing

    def __post_init__(self) -> None:
        require_finite(f"node {self.id}", compute_cap=self.compute_cap,
                       mem_avail=self.mem_avail, power_draw=self.power_draw)


@dataclass(frozen=True)
class PlacementInstance:
    components: tuple[Component, ...]
    nodes: tuple[Node, ...]
    omega1: float = 0.5  # weight on operation time
    omega2: float = 0.5  # weight on operation energy

    def __post_init__(self) -> None:
        if not self.components or not self.nodes:
            raise ValueError("instance needs at least one component and one node")
        require_finite("weights", omega1=self.omega1, omega2=self.omega2)
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("objective weights must be non-negative")
        for c in self.components:
            if c.compute_req < 0 or c.mem_req < 0 or c.deadline <= 0:
                raise ValueError(f"component {c.id}: bad demand or deadline")
        for nd in self.nodes:
            if nd.compute_cap <= 0:
                raise ValueError(f"node {nd.id}: compute capacity must be positive")
            if nd.mem_avail < 0 or nd.power_draw < 0:
                raise ValueError(f"node {nd.id}: negative memory or power")

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Assignment:
    """Node index per component, positional over instance.components."""

    node_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.node_of)

    def __getitem__(self, i: int) -> int:
        return self.node_of[i]


def operation_time(component: Component, node: Node) -> float:
    """Seconds to run a component on a node: demand divided by capacity."""
    return component.compute_req / node.compute_cap


def operation_energy(component: Component, node: Node) -> float:
    """Joules drawn while the component occupies the node."""
    return node.power_draw * operation_time(component, node)


def _check_assignment_shape(assignment: Assignment, inst: PlacementInstance) -> None:
    if len(assignment) != inst.num_components:
        raise ValueError("assignment length does not match component count")
    for i, j in enumerate(assignment.node_of):
        if not 0 <= j < inst.num_nodes:
            raise ValueError(f"component {i} mapped to invalid node index {j}")


def objective(assignment: Assignment, inst: PlacementInstance) -> float:
    """Weighted placement cost, lower is better: the sum over components of
    w1 * time + w2 * energy on the node the assignment gives each."""
    _check_assignment_shape(assignment, inst)
    total = 0.0
    for comp, j in zip(inst.components, assignment.node_of):
        node = inst.nodes[j]
        total += (inst.omega1 * operation_time(comp, node)
                  + inst.omega2 * operation_energy(comp, node))
    return total


@dataclass(frozen=True)
class ConstraintReport:
    """Per-node and per-component overflow amounts; all zero means feasible."""

    node_compute_overflow: tuple[float, ...]
    node_mem_overflow: tuple[float, ...]
    deadline_overflow: tuple[float, ...]

    @property
    def total_violation(self) -> float:
        return (fold_sum(self.node_compute_overflow) + fold_sum(self.node_mem_overflow)
                + fold_sum(self.deadline_overflow))

    @property
    def feasible(self) -> bool:
        return self.total_violation == 0.0


def check_constraints(assignment: Assignment, inst: PlacementInstance) -> ConstraintReport:
    """Static co-residency checks plus per-component deadline checks."""
    _check_assignment_shape(assignment, inst)
    n = inst.num_nodes
    load_cycles = [0.0] * n
    load_mem = [0.0] * n
    deadline_over = []
    for comp, j in zip(inst.components, assignment.node_of):
        load_cycles[j] += comp.compute_req
        load_mem[j] += comp.mem_req
        deadline_over.append(max(0.0, operation_time(comp, inst.nodes[j]) - comp.deadline))
    comp_over = tuple(max(0.0, load_cycles[j] - inst.nodes[j].compute_cap) for j in range(n))
    mem_over = tuple(max(0.0, load_mem[j] - inst.nodes[j].mem_avail) for j in range(n))
    return ConstraintReport(comp_over, mem_over, tuple(deadline_over))


# ---------------------------------------------------------------------------
# Application DAGs and schedules


@dataclass(frozen=True)
class Task:
    id: int
    compute_req: float              # mega-cycles
    input_size: float               # MB pulled from the user (source tasks)
    output_size: float              # MB shipped to each successor
    predecessors: tuple[int, ...] = ()
    deadline: float | None = None   # optional absolute finish deadline, seconds

    def __post_init__(self) -> None:
        sizes = {"compute_req": self.compute_req, "input_size": self.input_size,
                 "output_size": self.output_size}
        require_finite(f"task {self.id}", **sizes)
        for name, v in sizes.items():
            if v < 0:
                raise ValueError(f"task {self.id}: {name} must be non-negative, got {v}")
        if self.deadline is not None:
            require_finite(f"task {self.id}", deadline=self.deadline)


@dataclass(frozen=True)
class AppDag:
    """Tasks of one application plus their dependency index.

    Construction validates the DAG and derives, once, the id->task map,
    the successor tuples, the topological order and, for the simulator,
    read-only arrays by task position (task-list order): `_pos` maps an id
    to its position, `_pred_pos[i]` holds task i's predecessors' positions,
    `_edge_src`/`_edge_dst` list the edges task by task, and `_out`, `_in`
    and `_is_source` are per task. These derived fields take no part in ==,
    hash or repr.
    """

    id: int
    tasks: tuple[Task, ...]
    _by_id: dict[int, Task] = field(init=False, repr=False, compare=False)
    _succ: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pos: dict[int, int] = field(init=False, repr=False, compare=False)
    _pred_pos: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _edge_src: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_dst: np.ndarray = field(init=False, repr=False, compare=False)
    _out: np.ndarray = field(init=False, repr=False, compare=False)
    _in: np.ndarray = field(init=False, repr=False, compare=False)
    _is_source: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"app {self.id}: empty task list")
        by_id = {t.id: t for t in self.tasks}
        if len(by_id) != len(self.tasks):
            raise ValueError(f"app {self.id}: duplicate task ids")
        succ: dict[int, list[int]] = {tid: [] for tid in by_id}
        for t in self.tasks:
            for p in t.predecessors:
                if p not in by_id:
                    raise ValueError(f"app {self.id}: task {t.id} references unknown predecessor {p}")
                if p == t.id:
                    raise ValueError(f"app {self.id}: task {t.id} depends on itself")
                succ[p].append(t.id)
        # Kahn, smallest task id first among ready tasks
        indeg = {t.id: len(t.predecessors) for t in self.tasks}
        ready = [tid for tid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for s in succ[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(self.tasks):
            raise ValueError(f"app {self.id}: dependency cycle")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_succ", {tid: tuple(s) for tid, s in succ.items()})
        object.__setattr__(self, "_order", tuple(order))
        pos = {t.id: i for i, t in enumerate(self.tasks)}
        counts = [len(t.predecessors) for t in self.tasks]
        index = {"_edge_src": np.array([pos[p] for t in self.tasks for p in t.predecessors],
                                       dtype=np.intp),
                 "_edge_dst": np.repeat(np.arange(len(counts)), counts),
                 "_out": np.array([t.output_size for t in self.tasks]),
                 "_in": np.array([t.input_size for t in self.tasks]),
                 "_is_source": np.array(counts) == 0}
        for name, a in index.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_pos", pos)
        # views of the read-only edge list, so read-only too
        object.__setattr__(self, "_pred_pos", tuple(np.split(self._edge_src,
                                                             np.cumsum(counts)[:-1])))

    def task(self, task_id: int) -> Task:
        return self._by_id[task_id]

    def successors(self) -> dict[int, tuple[int, ...]]:
        """Successor ids per task id, in task-list order; shared, do not mutate."""
        return self._succ


def topo_order(dag: AppDag) -> list[int]:
    """Kahn topological order, smallest task id first among ready tasks."""
    return list(dag._order)


@dataclass
class TaskRun:
    """Realized execution of one task."""

    node: int
    start_s: float
    finish_s: float
    energy_j: float
    success: bool = True

    def __post_init__(self) -> None:
        if self.finish_s < self.start_s:
            raise ValueError("task finishes before it starts")


@dataclass
class ScheduleConfig:
    """Per-task runs for one application, as produced by a simulator."""

    app_id: int
    entries: dict[int, TaskRun] = field(default_factory=dict)
    release_s: float = 0.0

    @property
    def makespan(self) -> float:
        return max(r.finish_s for r in self.entries.values())


def critical_path(dag: AppDag, sched: ScheduleConfig) -> list[int]:
    """Task ids along the path that realizes the application makespan.

    Starts from the latest-finishing task (ties broken toward sinks, then
    toward the lowest id) and walks backward, at each step following the
    predecessor with the latest finish time (ties toward the lowest id).
    Summing finish-time increments along the returned path telescopes to
    exactly the makespan.
    """
    if set(sched.entries) != {t.id for t in dag.tasks}:
        raise ValueError("schedule does not cover the DAG task set")
    succ = dag.successors()
    makespan = sched.makespan
    tail = [tid for tid, r in sched.entries.items() if r.finish_s == makespan]
    sinks = [tid for tid in tail if not succ[tid]]
    cur = min(sinks) if sinks else min(tail)
    path = [cur]
    while True:
        preds = dag.task(cur).predecessors
        if not preds:
            break
        best_finish = max(sched.entries[p].finish_s for p in preds)
        cur = min(p for p in preds if sched.entries[p].finish_s == best_finish)
        path.append(cur)
    path.reverse()
    return path


def response_time(dags: Sequence[AppDag], scheds: Sequence[ScheduleConfig]) -> float:
    """Sum over applications of the critical-path duration.

    Each application contributes its makespan, the finish of its critical
    path's last task, minus its release time: the sum of per-task duration
    contributions along that path.
    """
    if len(dags) != len(scheds):
        raise ValueError("one schedule per application required")
    total = 0.0
    for dag, sched in zip(dags, scheds):
        if set(sched.entries) != {t.id for t in dag.tasks}:
            raise ValueError("schedule does not cover the DAG task set")
        total += sched.makespan - sched.release_s
    return total


def energy_consumption(scheds: Iterable[ScheduleConfig]) -> float:
    """Total joules over every task of every application."""
    return fold_sum(r.energy_j for sched in scheds for r in sched.entries.values())


def weighted_cost(rt: float, ec: float, baseline_rt: float, baseline_ec: float,
                  w1: float = 0.5, w2: float = 0.5) -> float:
    """Baseline-normalized blend of response time and energy."""
    if baseline_rt <= 0 or baseline_ec <= 0:
        raise ValueError("baselines must be positive")
    return w1 * (rt / baseline_rt) + w2 * (ec / baseline_ec)


def ghg_emissions(energy_kwh: float, mix: Sequence[tuple[float, float]]) -> float:
    """Grams of CO2 for the given energy under a generation mix.

    Args:
        energy_kwh: consumed energy in kWh.
        mix: (emission factor in gCO2 per kWh, share) pairs; shares must sum
            to 1 within 1e-9 and factors must be non-negative.
    """
    if energy_kwh < 0:
        raise ValueError("energy must be non-negative")
    if not mix:
        raise ValueError("empty energy mix")
    share_sum = 0.0
    for factor, share in mix:
        if factor < 0 or share < 0:
            raise ValueError("mix factors and shares must be non-negative")
        share_sum += share
    if abs(share_sum - 1.0) > 1e-9:
        raise ValueError(f"mix shares sum to {share_sum}, expected 1")
    return energy_kwh * fold_sum(factor * share for factor, share in mix)


# ---------------------------------------------------------------------------
# JSON codecs


def _json_id(value: object, what: str) -> int:
    """A JSON integer; a float such as 1.7 is refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def instance_from_json(doc: dict) -> PlacementInstance:
    try:
        components = tuple(
            Component(id=_json_id(c["id"], "component id"), compute_req=float(c["compute_req"]),
                      mem_req=float(c["mem_req"]), deadline=float(c["deadline"]),
                      role=str(c.get("role", "worker")))
            for c in doc["components"]
        )
        nodes = tuple(
            Node(id=_json_id(nd["id"], "node id"), compute_cap=float(nd["compute_cap"]),
                 mem_avail=float(nd["mem_avail"]), power_draw=float(nd["power_draw"]))
            for nd in doc["nodes"]
        )
        weights = doc.get("weights", {})
        return PlacementInstance(components, nodes,
                                 omega1=float(weights.get("omega1", 0.5)),
                                 omega2=float(weights.get("omega2", 0.5)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc


def dag_from_json(doc: dict) -> AppDag:
    try:
        tasks = tuple(
            Task(id=_json_id(t["id"], "task id"), compute_req=float(t["compute_req"]),
                 input_size=float(t["input_size"]), output_size=float(t["output_size"]),
                 predecessors=tuple(_json_id(p, "predecessor") for p in t.get("predecessors", [])),
                 deadline=float(t["deadline"]) if t.get("deadline") is not None else None)
            for t in doc["tasks"]
        )
        return AppDag(id=_json_id(doc.get("id", 0), "app id"), tasks=tasks)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed DAG document: {exc}") from exc
