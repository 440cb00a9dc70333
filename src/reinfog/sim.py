"""Scheduling environment: cluster model, state encoding, rewards, and a
discrete-event simulator for DAG workloads on heterogeneous nodes.

One engine, `IncrementalSim`, computes every schedule. A node runs its
tasks one at a time in commit order, each once the node is free and the
task's inputs are there. The timing rule is `_data_ready`: a source's
input leaves the user at its app's release, and any other task's inputs
are on a node once every predecessor has finished and its output has
crossed the link. `_run_on` runs a task: duration, energy and the deadline
check.

`ClusterSpec` builds its link and node tables once: latency and bandwidth
by (source endpoint, destination node), with a free diagonal, and
capacity, memory and power by node. `AppDag` builds its index once: task
positions, predecessor positions, the edge list and per-task sizes.
`IncrementalSim.peek` is the array form of `_data_ready` and `_run_on` over
those tables: one numpy pass over predecessors x nodes answers what
committing the task would do on every node, and each entry equals the
scalar result bit for bit. The greedy baseline prices that sweep with
`_incremental_cost`, built on the same `_metric_cost` as the rewards.
`check_schedule` re-derives every ready time of a finished schedule in one
array pass over the whole workload's edges.

The engine is driven in two orders. Decision order commits one decision
at a time as an agent makes them: `run_episode` and the baselines drive it,
and only `run_episode` encodes states. Ready order is `simulate_workload`'s
offline replay of a full mapping: tasks are committed by data-ready time,
ties by app id then task id. A zero-duration task finishes as it starts,
so a successor it makes ready then competes under the same tie rule.

Node memory is a static reservation: every task parked on a node reserves
input_size + output_size MB for the rest of the run. Overflow marks the
task failed but still executes it (the penalty lands in the reward).

A state costs O(busy nodes): the sim keeps a state row with every node's
idle features (spare capacity with nothing pending, spare memory, no
backlog), and `encode_state` copies it, redoing the pending-work arithmetic
and the backlog only for nodes busy past the decision time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model import (
    AppDag,
    Node,
    ScheduleConfig,
    Task,
    TaskRun,
    _json_id,
    energy_consumption,
    fold_sum,
    require_finite,
    response_time,
    topo_order,
    weighted_cost,
)
from .replay import Transitions

# pseudo node id of the user (gateway) side: every source task's input comes from it
USER = -1

DEFAULT_FAILURE_PENALTY = -2.0

REWARD_METRICS = ("response_time", "energy", "weighted_cost")

_EPS = 1e-9


@dataclass(frozen=True)
class LinkSpec:
    latency_s: float
    bandwidth_mbps: float  # MB per second

    def __post_init__(self) -> None:
        require_finite("link", latency_s=self.latency_s, bandwidth_mbps=self.bandwidth_mbps)
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """Nodes plus a full link table over ordered node pairs and user pairs.

    Construction checks the links and builds, once, read-only arrays for
    `IncrementalSim.peek`: `_latency` and `_bandwidth` are (n+1)×n, one
    row per source endpoint with the user last (so `_latency[USER]` is the
    user's row) and one column per destination node. The diagonal holds
    latency 0.0 and bandwidth inf, so `latency + size / bandwidth` is
    exactly 0.0 between co-located tasks, as `transfer_time` returns.
    `_capacity`, `_memory` and `_power` are per node. None of these arrays
    takes part in ==, hash or repr.
    """

    nodes: tuple[Node, ...]
    links: Mapping[tuple[int, int], LinkSpec]
    _latency: np.ndarray = field(init=False, repr=False, compare=False)
    _bandwidth: np.ndarray = field(init=False, repr=False, compare=False)
    _capacity: np.ndarray = field(init=False, repr=False, compare=False)
    _memory: np.ndarray = field(init=False, repr=False, compare=False)
    _power: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        ids = [nd.id for nd in self.nodes]
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be 0..n-1 in order")
        for nd in self.nodes:
            if nd.compute_cap <= 0 or nd.mem_avail < 0 or nd.power_draw < 0:
                raise ValueError(f"node {nd.id}: bad capacity parameters")
        endpoints = ids + [USER]
        known = set(endpoints)
        for src, dst in self.links:
            if src == dst:
                raise ValueError(f"self-link ({src}, {dst}): a co-located "
                                 "transfer is free and takes no link")
            if src not in known or dst not in known:
                raise ValueError(f"link ({src}, {dst}) has an unknown endpoint: "
                                 f"nodes are 0..{len(ids) - 1}, the user is {USER}")
        n = len(ids)
        latency = np.zeros((n + 1, n))
        bandwidth = np.full((n + 1, n), np.inf)
        for src in endpoints:
            for dst in endpoints:
                if src == dst:
                    continue
                link = self.links.get((src, dst))
                if link is None:
                    raise ValueError(f"missing link ({src}, {dst})")
                if dst != USER:
                    latency[src, dst] = link.latency_s
                    bandwidth[src, dst] = link.bandwidth_mbps
        tables = {"_latency": latency, "_bandwidth": bandwidth,
                  "_capacity": np.array([nd.compute_cap for nd in self.nodes]),
                  "_memory": np.array([nd.mem_avail for nd in self.nodes]),
                  "_power": np.array([nd.power_draw for nd in self.nodes])}
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def transfer_time(self, src: int, dst: int, size_mb: float) -> float:
        """Seconds to move size_mb from src to dst; zero when co-located."""
        if src == dst:
            return 0.0
        link = self.links[(src, dst)]
        return link.latency_s + size_mb / link.bandwidth_mbps


def uniform_cluster(n: int, compute_cap: float = 1000.0, mem_avail: float = 1024.0,
                    power_draw: float = 50.0, latency_s: float = 0.01,
                    bandwidth_mbps: float = 100.0) -> ClusterSpec:
    """Homogeneous cluster with identical links everywhere, handy for tests."""
    nodes = tuple(Node(i, compute_cap, mem_avail, power_draw) for i in range(n))
    link = LinkSpec(latency_s, bandwidth_mbps)
    endpoints = list(range(n)) + [USER]
    links = {(s, d): link for s in endpoints for d in endpoints if s != d}
    return ClusterSpec(nodes, links)


def cluster_to_json(cluster: ClusterSpec) -> dict:
    return {
        "nodes": [
            {"id": nd.id, "compute_cap": nd.compute_cap, "mem_avail": nd.mem_avail,
             "power_draw": nd.power_draw}
            for nd in cluster.nodes
        ],
        "links": [
            {"src": src, "dst": dst, "latency_s": lk.latency_s,
             "bandwidth_mbps": lk.bandwidth_mbps}
            for (src, dst), lk in sorted(cluster.links.items())
        ],
    }


def cluster_from_json(doc: dict) -> ClusterSpec:
    try:
        nodes = tuple(Node(_json_id(nd["id"], "node id"), float(nd["compute_cap"]),
                           float(nd["mem_avail"]), float(nd["power_draw"]))
                      for nd in doc["nodes"])
        links = {}
        for lk in doc["links"]:
            pair = (_json_id(lk["src"], "link src"), _json_id(lk["dst"], "link dst"))
            if pair in links:
                raise ValueError(f"duplicate link {pair}")
            links[pair] = LinkSpec(float(lk["latency_s"]), float(lk["bandwidth_mbps"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cluster document: {exc}") from exc
    return ClusterSpec(nodes, links)


@dataclass(frozen=True)
class NormConstants:
    """Workload- and cluster-wide maxima used to squash features into [0, 1]."""

    compute: float
    input_size: float
    output_size: float
    out_degree: float
    cap: float
    mem: float

    @classmethod
    def from_workload(cls, cluster: ClusterSpec,
                      workload: Sequence[AppDag]) -> "NormConstants":
        tasks = [t for dag in workload for t in dag.tasks]

        def top(vals: Iterable[float]) -> float:
            m = max(vals, default=0.0)
            return m if m > 0 else 1.0

        return cls(compute=top(t.compute_req for t in tasks),
                   input_size=top(t.input_size for t in tasks),
                   output_size=top(t.output_size for t in tasks),
                   out_degree=top(float(len(succ)) for dag in workload
                                  for succ in dag.successors().values()),
                   cap=top(nd.compute_cap for nd in cluster.nodes),
                   mem=top(nd.mem_avail for nd in cluster.nodes))


@dataclass
class StepOutcome:
    """What one placement decision did to the schedule.

    `IncrementalSim.peek` returns one whose fields are arrays with an entry
    per node: what committing the task to each node would do.
    """

    node: int
    start_s: float
    finish_s: float
    energy_j: float
    rt_s: float  # finish minus the instant all dependencies were met
    success: bool


@dataclass(frozen=True)
class RewardSpec:
    baseline_rt: float
    baseline_ec: float
    metric: str = "weighted_cost"
    failure_penalty: float = DEFAULT_FAILURE_PENALTY
    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self) -> None:
        if self.metric not in REWARD_METRICS:
            raise ValueError(f"unknown reward metric {self.metric!r}")
        if self.baseline_rt <= 0 or self.baseline_ec <= 0:
            raise ValueError("baselines must be positive")
        if self.failure_penalty >= 0:
            raise ValueError("failure_penalty must be negative")


def _metric_cost(out: StepOutcome, spec: RewardSpec):
    """The reward metric of an outcome, normalized by the spec's baselines.

    Elementwise, so it prices one outcome or `peek`'s sweep over every node.
    """
    rt = out.rt_s / spec.baseline_rt
    ec = out.energy_j / spec.baseline_ec
    if spec.metric == "response_time":
        return rt
    if spec.metric == "energy":
        return ec
    return spec.w1 * rt + spec.w2 * ec


def _incremental_cost(out: StepOutcome, spec: RewardSpec) -> np.ndarray:
    """Metric cost, surcharged by |failure_penalty| where the placement fails."""
    cost = _metric_cost(out, spec)
    # np.where, not cost + flag * penalty: that would turn a -0.0 cost into 0.0
    return np.where(out.success, cost, cost + abs(spec.failure_penalty))


def compute_reward(outcome: StepOutcome, spec: RewardSpec) -> float:
    """Negative normalized metric on success, flat penalty on failure."""
    if not outcome.success:
        return spec.failure_penalty
    return -_metric_cost(outcome, spec)


def _release_times(workload: Sequence[AppDag],
                   releases: Mapping[int, float] | None) -> dict[int, float]:
    """Release per app id, 0.0 where none is given; every one must be finite.

    Raises ValueError for an app id that appears twice and for a release of
    an app that the workload does not have.
    """
    rel: dict[int, float] = {}
    for dag in workload:
        if dag.id in rel:
            raise ValueError(f"app id {dag.id} appears twice")
        rel[dag.id] = 0.0
    if releases:
        unknown = sorted(releases.keys() - rel.keys())
        rel.update(releases)
        require_finite("releases", **{str(k): v for k, v in rel.items()})
        if unknown:
            raise ValueError(f"release for app {unknown[0]}, which the workload does not have")
    return rel


def _dependencies_met(app: AppDag, task: Task, runs: Mapping[int, TaskRun],
                      release: float) -> tuple[list[TaskRun], float]:
    """(the predecessors' runs, the time the task's dependencies were met).

    That time is the release for a source, else the latest predecessor
    finish but never earlier than the release. Raises ValueError when a
    predecessor has no run.
    """
    if not task.predecessors:
        return [], release
    try:
        preds = [runs[p] for p in task.predecessors]
    except KeyError:
        missing = [p for p in task.predecessors if p not in runs]
        raise ValueError(f"app {app.id} task {task.id}: predecessors "
                         f"{missing} not scheduled yet") from None
    return preds, max(release, max(run.finish_s for run in preds))


def _data_ready(cluster: ClusterSpec, app: AppDag, task: Task, node: int,
                runs: Mapping[int, TaskRun], release: float) -> tuple[float, float]:
    """(time the task's inputs are on `node`, time its dependencies were met).

    Sources: the release plus the transfer from the user. Other tasks: the
    latest predecessor finish plus the transfer of its output to `node`,
    never earlier than the release.
    """
    preds, met = _dependencies_met(app, task, runs, release)
    if not preds:
        return release + cluster.transfer_time(USER, node, task.input_size), met
    arrivals = [run.finish_s + cluster.transfer_time(run.node, node,
                                                     app.task(p).output_size)
                for p, run in zip(task.predecessors, preds)]
    return max(release, max(arrivals)), met


def _run_on(compute_cap, power_draw, task: Task, start):
    """(finish, energy, deadline met) of `task` started at `start` on a node.

    Elementwise: `IncrementalSim.peek` passes every node's capacity, power
    and start time as arrays.
    """
    duration = task.compute_req / compute_cap
    finish = start + duration
    in_time = task.deadline is None or finish <= task.deadline + _EPS
    return finish, power_draw * duration, in_time


def decode_action(raw: int, n: int) -> int:
    """Check a policy's action: an int (or numpy integer) node index in [0, n)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
        raise ValueError(f"action {raw!r} is not an integer node index")
    if not 0 <= raw < n:
        raise ValueError(f"invalid action {raw} for {n} nodes")
    return int(raw)


class IncrementalSim:
    """Commit-order scheduler used while an agent is making decisions.

    Each commit appends the task to its node's queue: start time is
    max(node free time, data-ready time). peek() answers what a commit to
    each node would do, without changing anything.

    The sim keeps `encode_state`'s row with every node idle: per node the
    spare capacity with nothing pending (constant), the spare memory and a
    0.0 backlog. commit refreshes its node's spare memory in the row, so
    `committed_mem[node]` may change only in commit, or right before a
    commit to that node, as `simulate_workload` writes it.
    """

    def __init__(self, cluster: ClusterSpec, workload: Sequence[AppDag],
                 releases: Mapping[int, float] | None = None) -> None:
        self.cluster = cluster
        self.workload = tuple(workload)
        self.releases = _release_times(workload, releases)
        self.norms = NormConstants.from_workload(cluster, workload)
        n = cluster.n
        self.node_free = [0.0] * n
        self.committed_mem = [0.0] * n
        self.runs: dict[int, dict[int, TaskRun]] = {dag.id: {} for dag in workload}
        # finish times and mega-cycles committed per node, in commit order,
        # for the pending-work feature; a node's finish times never decrease
        self._finish: list[list[float]] = [[] for _ in range(n)]
        self._cycles: list[list[float]] = [[] for _ in range(n)]
        self._row = np.zeros(state_dim(n))  # encode_state fills the task slots of its copy
        self._nodes = np.arange(n)
        self._nodes.flags.writeable = False
        self._mem_cap = cluster._memory + _EPS
        for i, nd in enumerate(cluster.nodes):
            self._row[3 * i] = min(max(nd.compute_cap / self.norms.cap, 0.0), 1.0)
            self._row[3 * i + 1] = self._spare_mem(i)

    def _spare_mem(self, node: int) -> float:
        spare = self.cluster.nodes[node].mem_avail - self.committed_mem[node]
        return min(max(spare / self.norms.mem, 0.0), 1.0)

    def dependencies_met_at(self, app: AppDag, task: Task) -> float:
        """Release for sources, else the latest predecessor finish."""
        return _dependencies_met(app, task, self.runs[app.id], self.releases[app.id])[1]

    def _outcome(self, app: AppDag, task: Task, node: int) -> StepOutcome:
        nd = self.cluster.nodes[node]
        ready, met = _data_ready(self.cluster, app, task, node, self.runs[app.id],
                                 self.releases[app.id])
        start = max(self.node_free[node], ready)
        finish, energy, in_time = _run_on(nd.compute_cap, nd.power_draw, task, start)
        footprint = task.input_size + task.output_size
        fits = self.committed_mem[node] + footprint <= nd.mem_avail + _EPS
        return StepOutcome(node, start, finish, energy, finish - met, fits and in_time)

    def peek(self, app: AppDag, task: Task) -> StepOutcome:
        """What committing `task` would do on every node, as arrays by node.

        The array form of `_data_ready` over the cluster's link tables and
        the app's index, then `_run_on` and the memory check elementwise.
        Each operation keeps the scalar order, so entry j equals, bit for
        bit, what `commit(app, task, j)` would return.
        """
        cl = self.cluster
        release = self.releases[app.id]
        preds, met = _dependencies_met(app, task, self.runs[app.id], release)
        if preds:
            src = [run.node for run in preds]
            fin = np.array([run.finish_s for run in preds])
            size = app._out.take(app._pred_pos[app._pos[task.id]])
            arrivals = fin[:, None] + (cl._latency.take(src, axis=0)
                                       + size[:, None] / cl._bandwidth.take(src, axis=0))
            ready = np.maximum(release, arrivals.max(axis=0))
        else:
            ready = release + (cl._latency[USER]
                               + task.input_size / cl._bandwidth[USER])
        start = np.maximum(np.array(self.node_free), ready)
        finish, energy, in_time = _run_on(cl._capacity, cl._power, task, start)
        footprint = task.input_size + task.output_size
        fits = np.array(self.committed_mem) + footprint <= self._mem_cap
        return StepOutcome(self._nodes, start, finish, energy, finish - met, fits & in_time)

    def commit(self, app: AppDag, task: Task, node: int,
               _sweep: StepOutcome | None = None) -> StepOutcome:
        """Schedule `task` on `node`. Greedy passes `peek`'s sweep of this
        task, whose entry for `node` equals the scalar outcome bit for bit."""
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise ValueError(f"app {app.id} task {task.id}: node {node!r} is not an integer")
        if not 0 <= node < len(self.node_free):
            raise ValueError(f"app {app.id} task {task.id}: node {node} is not "
                             f"in [0, {len(self.node_free)})")
        if task.id in self.runs[app.id]:
            raise ValueError(f"app {app.id} task {task.id} already scheduled")
        out = self._outcome(app, task, node) if _sweep is None else StepOutcome(
            node, float(_sweep.start_s[node]), float(_sweep.finish_s[node]),
            float(_sweep.energy_j[node]), float(_sweep.rt_s[node]), bool(_sweep.success[node]))
        self.node_free[node] = out.finish_s
        self.committed_mem[node] += task.input_size + task.output_size
        self._row[3 * node + 1] = self._spare_mem(node)
        self._finish[node].append(out.finish_s)
        self._cycles[node].append(task.compute_req)
        self.runs[app.id][task.id] = TaskRun(node, out.start_s, out.finish_s,
                                             out.energy_j, out.success)
        return out

    def pending_cycles(self, node: int, now: float) -> float:
        """Mega-cycles committed to `node` that finish after `now`.

        Those tasks are a suffix of the node's commits, found by bisection
        and summed in commit order.
        """
        cycles = self._cycles[node]
        return fold_sum(cycles[bisect_right(self._finish[node], now):])

    def config_for(self, app: AppDag) -> ScheduleConfig:
        runs = self.runs[app.id]
        if len(runs) != len(app.tasks):
            raise ValueError(f"app {app.id}: schedule incomplete")
        return ScheduleConfig(app.id, dict(runs), self.releases[app.id])


def state_dim(n: int) -> int:
    """Length of encode_state's vector on an n-node cluster."""
    return 3 * n + 4


def encode_state(cluster: ClusterSpec, sim: IncrementalSim, app: AppDag,
                 task: Task) -> np.ndarray:
    """Feature vector of length state_dim(n), every entry in [0, 1].

    Per node: spare capacity after debiting queued-but-unfinished work
    (mega-cycles against one second of nominal throughput), spare memory,
    and queue backlog seconds relative to the most backlogged node. Per
    task: compute, input, output, out-degree against workload maxima.
    """
    norms = sim.norms
    now = sim.dependencies_met_at(app, task)
    state = sim._row.copy()  # a fresh array: run_episode keeps the states
    # subtracting one `now` keeps the order, so this is the largest backlog
    max_backlog = max(sim.node_free) - now
    if max_backlog > 0.0:
        for i, free in enumerate(sim.node_free):
            if free > now:  # busy past `now`; an idle node has nothing pending
                spare = cluster.nodes[i].compute_cap - sim.pending_cycles(i, now)
                state[3 * i] = min(max(spare / norms.cap, 0.0), 1.0)
                state[3 * i + 2] = (free - now) / max_backlog
    out_degree = len(app.successors()[task.id])
    state[-4] = min(task.compute_req / norms.compute, 1.0)
    state[-3] = min(task.input_size / norms.input_size, 1.0)
    state[-2] = min(task.output_size / norms.output_size, 1.0)
    state[-1] = min(out_degree / norms.out_degree, 1.0)
    return state


def check_schedule(cluster: ClusterSpec, dags: Sequence[AppDag],
                   configs: Sequence[ScheduleConfig]) -> None:
    """Causality and per-node no-overlap checks in one array pass over the
    apps' indexes, with `_data_ready`'s IEEE operations: `np.maximum.at`
    takes each edge's arrival into its task's release. ValueError names the
    first violation by app, then task (an overlap by the lowest node id), or
    what is malformed: an app without a config or with two, uncovered
    tasks, a node outside [0, n), a time that is not finite.
    """
    n = cluster.n
    by_id = {cfg.app_id: cfg for cfg in configs}
    if len(by_id) != len(configs):
        twice = next(a for a in by_id if sum(cfg.app_id == a for cfg in configs) > 1)
        raise ValueError(f"app {twice}: more than one schedule config")
    apps, runs, problem = [], [], None
    for dag in dags:  # an earlier app's causality is named before a later gap
        if dag.id not in by_id or by_id[dag.id].entries.keys() != dag._by_id.keys():
            problem = f"app {dag.id}: " + ("schedule does not cover all tasks"
                                           if dag.id in by_id else "no schedule config")
            break
        apps.append(dag)
        runs.extend(map(by_id[dag.id].entries.__getitem__, dag._by_id))
    counts = np.array([len(dag.tasks) for dag in apps], dtype=np.intp)
    first = np.cumsum(counts) - counts  # each app's first task position

    def name(k: int) -> str:  # the k-th run's app and task, on an error path only
        return "app {} task {}".format(*[(dag.id, t.id) for dag in apps for t in dag.tasks][k])

    node = np.array([run.node for run in runs])
    if node.dtype.kind not in "biu":  # a float or another object is no node id
        node = np.array([-1 if not isinstance(run.node, (int, np.integer)) else run.node
                         for run in runs])
    start = np.array([run.start_s for run in runs], dtype=float)
    finish = np.array([run.finish_s for run in runs], dtype=float)
    release = np.repeat(np.array([by_id[dag.id].release_s for dag in apps], float), counts)
    bad = (node < 0) | (node >= n) | ~(np.isfinite(start) & np.isfinite(finish)
                                        & np.isfinite(release))
    if bad.any():  # before any indexing by node: numpy wraps -1 to the last
        k = int(np.argmax(bad))
        raise ValueError(f"{name(k)}: node {runs[k].node!r} must lie in [0, {n}), release "
                         f"{release[k]}, start {runs[k].start_s} and finish "
                         f"{runs[k].finish_s} be finite")
    node = node.astype(np.intp)
    if apps:
        lat, bw = cluster._latency, cluster._bandwidth
        shift = np.repeat(first, [len(dag._edge_src) for dag in apps])
        src = np.concatenate([dag._edge_src for dag in apps]) + shift
        dst = np.concatenate([dag._edge_dst for dag in apps]) + shift
        sn, dn = node[src], node[dst]
        out = np.concatenate([dag._out for dag in apps])[src]
        ready = release.copy()
        np.maximum.at(ready, dst, finish[src] + (lat[sn, dn] + out / bw[sn, dn]))
        source = np.concatenate([dag._is_source for dag in apps])
        sn = node[source]
        ready[source] = release[source] + (lat[USER, sn] + np.concatenate(
            [dag._in for dag in apps])[source] / bw[USER, sn])
        late = start < ready - _EPS
        if late.any():
            k = int(np.argmax(late))
            raise ValueError(f"{name(k)} starts at {runs[k].start_s} "
                             f"before its inputs arrive at {float(ready[k])}")
    if problem:
        raise ValueError(problem)
    order = np.lexsort((finish, start, node))
    on, s, f = node[order], start[order], finish[order]
    clash = np.flatnonzero((on[1:] == on[:-1]) & (s[1:] < f[:-1] - _EPS))
    if clash.size:
        a, b = runs[order[clash[0]]], runs[order[clash[0] + 1]]
        raise ValueError(f"node {a.node} runs two tasks at once "
                         f"({a.start_s},{a.finish_s}) vs start {b.start_s}")


def _decision_order(workload: Sequence[AppDag],
                    releases: Mapping[int, float]) -> list[tuple[AppDag, Task]]:
    apps = sorted(workload, key=lambda dag: (releases.get(dag.id, 0.0), dag.id))
    return [(dag, dag.task(tid)) for dag in apps for tid in topo_order(dag)]


def simulate_workload(cluster: ClusterSpec, dags: Sequence[AppDag],
                      choices: Mapping[int, Mapping[int, int]],
                      releases: Mapping[int, float] | None = None) -> list[ScheduleConfig]:
    """Replay a complete task-to-node mapping through `IncrementalSim` in
    ready order. Memory is reserved in decision order, so the failure flags
    match an incremental run's. Each app lists its runs by (start, node)."""
    sim = IncrementalSim(cluster, dags, releases)
    heap: list[tuple[float, int, int, AppDag]] = []
    plan: dict[tuple[int, int], tuple[int, float]] = {}  # -> (node, MB reserved before it)
    mem = [0.0] * cluster.n

    def push(dag: AppDag, task: Task) -> None:
        ready, _ = _data_ready(cluster, dag, task, plan[dag.id, task.id][0],
                               sim.runs[dag.id], sim.releases[dag.id])
        heapq.heappush(heap, (ready, dag.id, task.id, dag))

    for dag, task in _decision_order(sim.workload, sim.releases):
        try:  # a missing choice reads as None
            node = decode_action(choices.get(dag.id, {}).get(task.id), cluster.n)
        except ValueError as exc:
            raise ValueError(f"app {dag.id} task {task.id}: {exc}") from exc
        plan[dag.id, task.id] = node, mem[node]
        mem[node] += task.input_size + task.output_size
        if not task.predecessors:
            push(dag, task)
    while heap:
        _, _, task_id, dag = heapq.heappop(heap)
        node, reserved = plan[dag.id, task_id]
        sim.committed_mem[node] = reserved
        sim.commit(dag, dag.task(task_id), node)
        for succ in map(dag.task, dag.successors()[task_id]):
            if all(p in sim.runs[dag.id] for p in succ.predecessors):
                push(dag, succ)

    configs = [ScheduleConfig(dag.id, dict(sorted(
        sim.runs[dag.id].items(), key=lambda kv: (kv[1].start_s, kv[1].node))),
        sim.releases[dag.id]) for dag in sim.workload]
    check_schedule(cluster, sim.workload, configs)
    return configs


def simulate_schedule(cluster: ClusterSpec, dag: AppDag,
                      choices: Mapping[int, int]) -> ScheduleConfig:
    """Run one application alone on the cluster under a fixed mapping."""
    return simulate_workload(cluster, [dag], {dag.id: choices})[0]


@dataclass(frozen=True)
class EpisodeResult:
    configs: tuple[ScheduleConfig, ...]
    total_rt: float
    total_ec: float
    total_wc: float
    rewards: tuple[float, ...]
    steps: Transitions | None  # None for the baselines


def _drive(cluster: ClusterSpec, workload: Sequence[AppDag],
           step: Callable[[IncrementalSim, AppDag, Task], StepOutcome],
           reward_spec: RewardSpec | None,
           releases: Mapping[int, float] | None) -> EpisodeResult:
    """Commit every decision `step` makes; the result carries no transitions."""
    sim = IncrementalSim(cluster, workload, releases)
    outcomes = [step(sim, app, task)
                for app, task in _decision_order(sim.workload, sim.releases)]

    configs = tuple(sim.config_for(app) for app in sim.workload)
    check_schedule(cluster, sim.workload, configs)
    rt = response_time(sim.workload, configs)
    ec = energy_consumption(configs)
    spec = reward_spec or RewardSpec(baseline_rt=max(rt, _EPS),
                                     baseline_ec=max(ec, _EPS))
    wc = weighted_cost(rt, ec, spec.baseline_rt, spec.baseline_ec,
                       spec.w1, spec.w2)
    rewards = tuple(compute_reward(out, spec) for out in outcomes)
    return EpisodeResult(configs, rt, ec, wc, rewards, None)


def run_episode(cluster: ClusterSpec, workload: Sequence[AppDag],
                policy: Callable[[np.ndarray], int],
                reward_spec: RewardSpec | None = None,
                releases: Mapping[int, float] | None = None) -> EpisodeResult:
    """Walk every task in arrival then topological order through the policy.

    Returns the transitions of every decision in order; the last one is
    terminal with an all-zero next state. With reward_spec None the episode
    normalizes against its own totals, which pins total_wc to exactly 1.0;
    pass a spec built from a baseline run for anything comparative.
    """
    encoded: list[np.ndarray] = []
    actions: list[int] = []

    def step(sim: IncrementalSim, app: AppDag, task: Task) -> StepOutcome:
        state = encode_state(cluster, sim, app, task)
        action = decode_action(policy(state), cluster.n)
        encoded.append(state)
        actions.append(action)
        return sim.commit(app, task, action)

    result = _drive(cluster, workload, step, reward_spec, releases)
    # transitions are built after the loop: nothing extra runs between decisions
    k = len(encoded)
    states = np.array(encoded).reshape(k, state_dim(cluster.n))
    next_states = np.zeros_like(states)
    next_states[:-1] = states[1:]
    steps = Transitions(states, np.array(actions, dtype=np.int64),
                        np.array(result.rewards, dtype=float), next_states,
                        np.arange(k) == k - 1)
    return replace(result, steps=steps)


def baseline_round_robin(cluster: ClusterSpec, workload: Sequence[AppDag],
                         reward_spec: RewardSpec | None = None,
                         releases: Mapping[int, float] | None = None) -> EpisodeResult:
    """Cycle node indices across decisions, irrespective of state."""
    counter = itertools.count()
    return _drive(cluster, workload,
                  lambda sim, app, task: sim.commit(app, task, next(counter) % cluster.n),
                  reward_spec, releases)


def baseline_greedy(cluster: ClusterSpec, workload: Sequence[AppDag],
                    reward_spec: RewardSpec | None = None,
                    releases: Mapping[int, float] | None = None) -> EpisodeResult:
    """Per task, peek every node and take the cheapest incremental cost.

    Failed placements are surcharged by |failure_penalty| so the greedy
    only accepts a failure when every node fails. Ties go to the lowest
    node id. Without a reward_spec the baselines come from a round-robin
    run on the same inputs.
    """
    spec = reward_spec or make_reward_spec(cluster, workload, releases=releases)

    def step(sim: IncrementalSim, app: AppDag, task: Task) -> StepOutcome:
        sweep = sim.peek(app, task)
        return sim.commit(app, task, int(np.argmin(_incremental_cost(sweep, spec))),
                          sweep)

    return _drive(cluster, workload, step, spec, releases)


def make_reward_spec(cluster: ClusterSpec, workload: Sequence[AppDag],
                     releases: Mapping[int, float] | None = None) -> RewardSpec:
    """Baselines from a round-robin run on the same cluster and workload;
    the other settings at their defaults (`dataclasses.replace` changes them)."""
    rr = baseline_round_robin(cluster, workload, releases=releases)
    return RewardSpec(baseline_rt=max(rr.total_rt, _EPS),
                      baseline_ec=max(rr.total_ec, _EPS))


def generate_workload(num_apps: int, tasks_per_app: int,
                      rng: np.random.Generator | int | None = None,
                      layers: int | None = None, density: float = 0.5,
                      compute_range: tuple[float, float] = (100.0, 500.0),
                      input_range: tuple[float, float] = (1.0, 10.0),
                      output_range: tuple[float, float] = (1.0, 10.0),
                      ) -> list[AppDag]:
    """Layered random DAGs with ids in topological order.

    Tasks are split evenly across layers; each task in layer k > 0 takes
    each layer k-1 task as predecessor with probability `density`, with
    one forced edge so layers stay connected. density 0 produces fully
    independent tasks.
    """
    if num_apps < 1 or tasks_per_app < 1:
        raise ValueError("need at least one app and one task")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    gen = np.random.default_rng(rng)
    num_layers = layers if layers is not None else math.ceil(math.sqrt(tasks_per_app))
    num_layers = max(1, min(num_layers, tasks_per_app))

    dags: list[AppDag] = []
    # ids split into consecutive layers, the first tasks_per_app % num_layers one larger
    layer_of = [part.tolist() for part in np.array_split(np.arange(tasks_per_app), num_layers)]
    for app_id in range(num_apps):
        tasks: list[Task] = []
        for k, members in enumerate(layer_of):
            for tid in members:
                compute = float(gen.uniform(*compute_range))
                inp = float(gen.uniform(*input_range))
                outp = float(gen.uniform(*output_range))
                preds: tuple[int, ...] = ()
                if k > 0 and density > 0:
                    prev = layer_of[k - 1]
                    picked = [p for p in prev if gen.random() < density]
                    if not picked:
                        picked = [prev[int(gen.integers(len(prev)))]]
                    preds = tuple(picked)
                tasks.append(Task(tid, compute, inp, outp, preds))
        dags.append(AppDag(app_id, tuple(tasks)))
    return dags


def poisson_releases(workload: Sequence[AppDag], rate: float,
                     rng: np.random.Generator | int | None = None,
                     ) -> dict[int, float]:
    """Cumulative exponential arrival times, one per app in listed order."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    gen = np.random.default_rng(rng)
    gaps = (float(gen.exponential(1.0 / rate)) for _ in workload)
    return dict(zip((dag.id for dag in workload), itertools.accumulate(gaps)))
