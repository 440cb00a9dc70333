"""Scheduling environment: cluster model, state encoding, rewards, and a
discrete-event simulator for DAG workloads on heterogeneous nodes.

Two execution semantics live here and agree on single-path workloads:

* `simulate_workload` replays a full mapping offline. Each node runs one
  task at a time, picking waiting tasks in ready-time order (ties broken by
  app id then task id).
* `IncrementalSim` commits one decision at a time in the order an agent
  makes them, which is what `run_episode` and the baselines drive. Only
  `run_episode` encodes states; the baselines never read them. A node
  serves commits in commit order, so an earlier decision never migrates
  behind a later one.

Node memory is a static reservation: every task parked on a node reserves
input_size + output_size MB for the rest of the run. Overflow marks the
task failed but still executes it (the penalty lands in the reward).
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .model import (
    AppDag,
    Node,
    ScheduleConfig,
    Task,
    TaskRun,
    energy_consumption,
    require_finite,
    response_time,
    topo_order,
    weighted_cost,
)
from .replay import Experience

# pseudo node id for the data origin (user / gateway side)
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
    """Nodes plus a full link table over ordered node pairs and user pairs."""

    nodes: tuple[Node, ...]
    links: Mapping[tuple[int, int], LinkSpec]

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
        for src in endpoints:
            for dst in endpoints:
                if src != dst and (src, dst) not in self.links:
                    raise ValueError(f"missing link ({src}, {dst})")

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
        nodes = tuple(Node(int(nd["id"]), float(nd["compute_cap"]),
                           float(nd["mem_avail"]), float(nd["power_draw"]))
                      for nd in doc["nodes"])
        links = {(int(lk["src"]), int(lk["dst"])):
                 LinkSpec(float(lk["latency_s"]), float(lk["bandwidth_mbps"]))
                 for lk in doc["links"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cluster document: {exc}") from exc
    return ClusterSpec(nodes, links)


def load_cluster(path: str) -> ClusterSpec:
    with open(path, encoding="utf-8") as fh:
        return cluster_from_json(json.load(fh))


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
        degs = [len(succ) for dag in workload for succ in dag.successors().values()]

        def top(vals: Iterable[float]) -> float:
            m = max(vals, default=0.0)
            return m if m > 0 else 1.0

        return cls(compute=top(t.compute_req for t in tasks),
                   input_size=top(t.input_size for t in tasks),
                   output_size=top(t.output_size for t in tasks),
                   out_degree=top(float(d) for d in degs),
                   cap=top(nd.compute_cap for nd in cluster.nodes),
                   mem=top(nd.mem_avail for nd in cluster.nodes))


@dataclass(frozen=True)
class StepOutcome:
    """What one placement decision did to the schedule."""

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


def _incremental_cost(out: StepOutcome, spec: RewardSpec) -> float:
    """Normalized metric, surcharged by |failure_penalty| on failure."""
    rt = out.rt_s / spec.baseline_rt
    ec = out.energy_j / spec.baseline_ec
    if spec.metric == "response_time":
        cost = rt
    elif spec.metric == "energy":
        cost = ec
    else:
        cost = spec.w1 * rt + spec.w2 * ec
    if not out.success:
        cost += abs(spec.failure_penalty)
    return cost


def compute_reward(outcome: StepOutcome, spec: RewardSpec) -> float:
    """Negative normalized metric on success, flat penalty on failure."""
    if not outcome.success:
        return spec.failure_penalty
    return -_incremental_cost(outcome, spec)


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
    max(node free time, data-ready time). peek() answers what a commit
    would do without changing anything.
    """

    def __init__(self, cluster: ClusterSpec, workload: Sequence[AppDag],
                 releases: Mapping[int, float] | None = None,
                 origin: int = USER) -> None:
        self.cluster = cluster
        self.workload = tuple(workload)
        self.origin = origin
        self.releases = {dag.id: 0.0 for dag in workload}
        if releases:
            self.releases.update(releases)
        self.norms = NormConstants.from_workload(cluster, workload)
        self._dags = {dag.id: dag for dag in self.workload}
        n = cluster.n
        self.node_free = [0.0] * n
        self.committed_mem = [0.0] * n
        self.runs: dict[int, dict[int, TaskRun]] = {dag.id: {} for dag in workload}
        # (finish_s, compute_req) per node, for the pending-work feature
        self._queued: list[list[tuple[float, float]]] = [[] for _ in range(n)]

    def _pred_runs(self, app: AppDag, task: Task) -> list[TaskRun]:
        done = self.runs[app.id]
        missing = [p for p in task.predecessors if p not in done]
        if missing:
            raise ValueError(f"app {app.id} task {task.id}: predecessors "
                             f"{missing} not scheduled yet")
        return [done[p] for p in task.predecessors]

    def dependencies_met_at(self, app: AppDag, task: Task) -> float:
        """Release for sources, else the latest predecessor finish."""
        preds = self._pred_runs(app, task)
        release = self.releases[app.id]
        if not preds:
            return release
        return max(release, max(r.finish_s for r in preds))

    def _ready_on(self, app: AppDag, task: Task, node: int) -> float:
        release = self.releases[app.id]
        preds = self._pred_runs(app, task)
        if not preds:
            return release + self.cluster.transfer_time(self.origin, node,
                                                        task.input_size)
        arrivals = [
            run.finish_s + self.cluster.transfer_time(run.node, node,
                                                      pred.output_size)
            for run, pred in zip(preds,
                                 (app.task(p) for p in task.predecessors))
        ]
        return max(release, max(arrivals))

    def _outcome(self, app: AppDag, task: Task, node: int) -> StepOutcome:
        nd = self.cluster.nodes[node]
        ready = self._ready_on(app, task, node)
        start = max(self.node_free[node], ready)
        duration = task.compute_req / nd.compute_cap
        finish = start + duration
        energy = nd.power_draw * duration
        footprint = task.input_size + task.output_size
        fits = self.committed_mem[node] + footprint <= nd.mem_avail + _EPS
        in_time = task.deadline is None or finish <= task.deadline + _EPS
        rt = finish - self.dependencies_met_at(app, task)
        return StepOutcome(node, start, finish, energy, rt, fits and in_time)

    def peek(self, app: AppDag, task: Task, node: int) -> StepOutcome:
        return self._outcome(app, task, node)

    def commit(self, app: AppDag, task: Task, node: int) -> StepOutcome:
        if task.id in self.runs[app.id]:
            raise ValueError(f"app {app.id} task {task.id} already scheduled")
        out = self._outcome(app, task, node)
        self.node_free[node] = out.finish_s
        self.committed_mem[node] += task.input_size + task.output_size
        self._queued[node].append((out.finish_s, task.compute_req))
        self.runs[app.id][task.id] = TaskRun(node, out.start_s, out.finish_s,
                                             out.energy_j, out.success)
        return out

    def pending_cycles(self, node: int, now: float) -> float:
        return sum(req for fin, req in self._queued[node] if fin > now)

    def config_for(self, app: AppDag) -> ScheduleConfig:
        runs = self.runs[app.id]
        if len(runs) != len(app.tasks):
            raise ValueError(f"app {app.id}: schedule incomplete")
        return ScheduleConfig(app.id, dict(runs), self.releases[app.id])


def encode_state(cluster: ClusterSpec, sim: IncrementalSim, app: AppDag,
                 task: Task) -> np.ndarray:
    """Feature vector of length 3n + 4, every entry in [0, 1].

    Per node: spare capacity after debiting queued-but-unfinished work
    (mega-cycles against one second of nominal throughput), spare memory,
    and queue backlog seconds relative to the most backlogged node. Per
    task: compute, input, output, out-degree against workload maxima.
    """
    norms = sim.norms
    now = sim.dependencies_met_at(app, task)
    feats: list[float] = []
    backlogs = [max(free - now, 0.0) for free in sim.node_free]
    max_backlog = max(backlogs)
    for i, nd in enumerate(cluster.nodes):
        spare = nd.compute_cap - sim.pending_cycles(i, now)
        feats.append(min(max(spare / norms.cap, 0.0), 1.0))
        spare_mem = nd.mem_avail - sim.committed_mem[i]
        feats.append(min(max(spare_mem / norms.mem, 0.0), 1.0))
        feats.append(backlogs[i] / max_backlog if max_backlog > 0 else 0.0)
    out_degree = len(app.successors()[task.id])
    feats.append(min(task.compute_req / norms.compute, 1.0))
    feats.append(min(task.input_size / norms.input_size, 1.0))
    feats.append(min(task.output_size / norms.output_size, 1.0))
    feats.append(min(out_degree / norms.out_degree, 1.0))
    return np.array(feats)


def check_schedule(cluster: ClusterSpec, dags: Sequence[AppDag],
                   configs: Sequence[ScheduleConfig],
                   origin: int = USER) -> None:
    """Causality and per-node no-overlap checks; raises on violation."""
    by_id = {cfg.app_id: cfg for cfg in configs}
    intervals: dict[int, list[tuple[float, float]]] = {}
    for dag in dags:
        cfg = by_id[dag.id]
        if set(cfg.entries) != {t.id for t in dag.tasks}:
            raise ValueError(f"app {dag.id}: schedule does not cover all tasks")
        for task in dag.tasks:
            run = cfg.entries[task.id]
            if task.predecessors:
                ready = max(
                    cfg.entries[p].finish_s
                    + cluster.transfer_time(cfg.entries[p].node, run.node,
                                            dag.task(p).output_size)
                    for p in task.predecessors
                )
                ready = max(ready, cfg.release_s)
            else:
                ready = cfg.release_s + cluster.transfer_time(
                    origin, run.node, task.input_size)
            if run.start_s < ready - _EPS:
                raise ValueError(
                    f"app {dag.id} task {task.id} starts at {run.start_s} "
                    f"before its inputs arrive at {ready}")
            intervals.setdefault(run.node, []).append((run.start_s, run.finish_s))
    for node, spans in intervals.items():
        spans.sort()
        for (s0, f0), (s1, _) in zip(spans, spans[1:]):
            if s1 < f0 - _EPS:
                raise ValueError(f"node {node} runs two tasks at once "
                                 f"({s0},{f0}) vs start {s1}")


def _decision_order(workload: Sequence[AppDag],
                    releases: Mapping[int, float]) -> list[tuple[AppDag, Task]]:
    apps = sorted(workload, key=lambda dag: (releases.get(dag.id, 0.0), dag.id))
    order: list[tuple[AppDag, Task]] = []
    for dag in apps:
        for tid in topo_order(dag):
            order.append((dag, dag.task(tid)))
    return order


def simulate_workload(cluster: ClusterSpec, dags: Sequence[AppDag],
                      choices: Mapping[int, Mapping[int, int]],
                      releases: Mapping[int, float] | None = None,
                      origin: int = USER) -> list[ScheduleConfig]:
    """Event-driven replay of a complete task-to-node mapping.

    Nodes serve waiting tasks in ready-time order, ties by (app id,
    task id). Memory reservations are applied in decision order so the
    failure flags match what an incremental run would have produced.
    """
    rel = {dag.id: 0.0 for dag in dags}
    if releases:
        rel.update(releases)
    for dag in dags:
        for task in dag.tasks:
            if task.id not in choices.get(dag.id, {}):
                raise ValueError(f"no node choice for app {dag.id} task {task.id}")

    mem = [0.0] * cluster.n
    mem_ok: dict[tuple[int, int], bool] = {}
    for dag, task in _decision_order(dags, rel):
        node = choices[dag.id][task.id]
        footprint = task.input_size + task.output_size
        mem_ok[(dag.id, task.id)] = \
            mem[node] + footprint <= cluster.nodes[node].mem_avail + _EPS
        mem[node] += footprint

    dag_by_id = {dag.id: dag for dag in dags}
    indeg = {(d.id, t.id): len(t.predecessors) for d in dags for t in d.tasks}
    succ = {d.id: d.successors() for d in dags}
    runs: dict[int, dict[int, TaskRun]] = {d.id: {} for d in dags}
    ready_at: dict[tuple[int, int], float] = {}
    waiting: list[list[tuple[float, int, int]]] = [[] for _ in range(cluster.n)]
    node_free = [0.0] * cluster.n
    running: list[tuple[float, int, int, int]] = []  # finish, app, task, node
    times: list[float] = []

    def mark_ready(dag: AppDag, task: Task) -> None:
        node = choices[dag.id][task.id]
        if task.predecessors:
            ready = max(
                runs[dag.id][p].finish_s
                + cluster.transfer_time(runs[dag.id][p].node, node,
                                        dag.task(p).output_size)
                for p in task.predecessors
            )
            ready = max(ready, rel[dag.id])
        else:
            ready = rel[dag.id] + cluster.transfer_time(origin, node,
                                                        task.input_size)
        ready_at[(dag.id, task.id)] = ready
        heapq.heappush(waiting[node], (ready, dag.id, task.id))
        heapq.heappush(times, ready)

    for dag in dags:
        for task in dag.tasks:
            if not task.predecessors:
                mark_ready(dag, task)

    total = sum(len(d.tasks) for d in dags)
    done = 0
    while done < total:
        if not times:
            raise RuntimeError("simulation stalled with tasks outstanding")
        now = heapq.heappop(times)
        while times and times[0] <= now + _EPS:
            heapq.heappop(times)
        while running and running[0][0] <= now + _EPS:
            _, app_id, task_id, _ = heapq.heappop(running)
            done += 1
            dag = dag_by_id[app_id]
            for s in succ[app_id][task_id]:
                indeg[(app_id, s)] -= 1
                if indeg[(app_id, s)] == 0:
                    mark_ready(dag, dag.task(s))
        for node in range(cluster.n):
            while node_free[node] <= now + _EPS and waiting[node] \
                    and waiting[node][0][0] <= now + _EPS:
                ready, app_id, task_id = heapq.heappop(waiting[node])
                dag = dag_by_id[app_id]
                task = dag.task(task_id)
                nd = cluster.nodes[node]
                start = max(node_free[node], ready)
                duration = task.compute_req / nd.compute_cap
                finish = start + duration
                ok = mem_ok[(app_id, task_id)] and (
                    task.deadline is None or finish <= task.deadline + _EPS)
                runs[app_id][task_id] = TaskRun(node, start, finish,
                                                nd.power_draw * duration, ok)
                node_free[node] = finish
                heapq.heappush(running, (finish, app_id, task_id, node))
                heapq.heappush(times, finish)

    configs = [ScheduleConfig(d.id, dict(runs[d.id]), rel[d.id]) for d in dags]
    check_schedule(cluster, dags, configs, origin)
    return configs


def simulate_schedule(cluster: ClusterSpec, dag: AppDag,
                      choices: Mapping[int, int], origin: int = USER,
                      release_s: float = 0.0) -> ScheduleConfig:
    """Run one application alone on the cluster under a fixed mapping."""
    return simulate_workload(cluster, [dag], {dag.id: choices},
                             {dag.id: release_s}, origin)[0]


@dataclass(frozen=True)
class EpisodeResult:
    configs: tuple[ScheduleConfig, ...]
    total_rt: float
    total_ec: float
    total_wc: float
    rewards: tuple[float, ...]
    steps: tuple[Experience, ...]  # empty for the baselines


def _drive(cluster: ClusterSpec, workload: Sequence[AppDag],
           choose: Callable[[IncrementalSim, AppDag, Task], int],
           reward_spec: RewardSpec | None,
           releases: Mapping[int, float] | None,
           origin: int) -> EpisodeResult:
    """Commit every decision `choose` makes; the result carries no transitions."""
    sim = IncrementalSim(cluster, workload, releases, origin)
    outcomes = [sim.commit(app, task, choose(sim, app, task))
                for app, task in _decision_order(sim.workload, sim.releases)]

    configs = tuple(sim.config_for(app) for app in sim.workload)
    check_schedule(cluster, sim.workload, configs, origin)
    rt = response_time(sim.workload, configs)
    ec = energy_consumption(configs)
    spec = reward_spec or RewardSpec(baseline_rt=max(rt, _EPS),
                                     baseline_ec=max(ec, _EPS))
    wc = weighted_cost(rt, ec, spec.baseline_rt, spec.baseline_ec,
                       spec.w1, spec.w2)
    rewards = tuple(compute_reward(out, spec) for out in outcomes)
    return EpisodeResult(configs, rt, ec, wc, rewards, ())


def run_episode(cluster: ClusterSpec, workload: Sequence[AppDag],
                policy: Callable[[np.ndarray], int],
                reward_spec: RewardSpec | None = None,
                releases: Mapping[int, float] | None = None,
                origin: int = USER) -> EpisodeResult:
    """Walk every task in arrival then topological order through the policy.

    Returns one Experience per decision; the last one is terminal with an
    all-zero next state. With reward_spec None the episode normalizes
    against its own totals, which pins total_wc to exactly 1.0; pass a
    spec built from a baseline run for anything comparative.
    """
    encoded: list[np.ndarray] = []
    actions: list[int] = []

    def choose(sim: IncrementalSim, app: AppDag, task: Task) -> int:
        state = encode_state(cluster, sim, app, task)
        action = decode_action(policy(state), cluster.n)
        encoded.append(state)
        actions.append(action)
        return action

    result = _drive(cluster, workload, choose, reward_spec, releases, origin)
    # transitions are built after the loop: nothing extra runs between decisions
    states = [tuple(state) for state in encoded]
    next_states = states[1:] + [tuple([0.0] * (3 * cluster.n + 4))]
    last = len(states) - 1
    steps = tuple(Experience(state, action, reward, nxt, i == last)
                  for i, (state, action, reward, nxt)
                  in enumerate(zip(states, actions, result.rewards, next_states)))
    return replace(result, steps=steps)


def baseline_round_robin(cluster: ClusterSpec, workload: Sequence[AppDag],
                         reward_spec: RewardSpec | None = None,
                         releases: Mapping[int, float] | None = None,
                         origin: int = USER) -> EpisodeResult:
    """Cycle node indices across decisions, irrespective of state."""
    counter = itertools.count()
    return _drive(cluster, workload,
                  lambda sim, app, task: next(counter) % cluster.n,
                  reward_spec, releases, origin)


def baseline_greedy(cluster: ClusterSpec, workload: Sequence[AppDag],
                    reward_spec: RewardSpec | None = None,
                    releases: Mapping[int, float] | None = None,
                    origin: int = USER) -> EpisodeResult:
    """Per task, peek every node and take the cheapest incremental cost.

    Failed placements are surcharged by |failure_penalty| so the greedy
    only accepts a failure when every node fails. Ties go to the lowest
    node id. Without a reward_spec the baselines come from a round-robin
    run on the same inputs.
    """
    spec = reward_spec or make_reward_spec(cluster, workload,
                                           releases=releases, origin=origin)

    def choose(sim: IncrementalSim, app: AppDag, task: Task) -> int:
        costs = [_incremental_cost(sim.peek(app, task, node), spec)
                 for node in range(cluster.n)]
        return int(np.argmin(costs))

    return _drive(cluster, workload, choose, spec, releases, origin)


def make_reward_spec(cluster: ClusterSpec, workload: Sequence[AppDag],
                     metric: str = "weighted_cost",
                     failure_penalty: float = DEFAULT_FAILURE_PENALTY,
                     w1: float = 0.5, w2: float = 0.5,
                     releases: Mapping[int, float] | None = None,
                     origin: int = USER) -> RewardSpec:
    """Baselines from a round-robin run on the same cluster and workload."""
    rr = baseline_round_robin(cluster, workload, releases=releases,
                              origin=origin)
    return RewardSpec(baseline_rt=max(rr.total_rt, _EPS),
                      baseline_ec=max(rr.total_ec, _EPS),
                      metric=metric, failure_penalty=failure_penalty,
                      w1=w1, w2=w2)


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
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    num_layers = layers if layers is not None else math.ceil(math.sqrt(tasks_per_app))
    num_layers = max(1, min(num_layers, tasks_per_app))

    dags: list[AppDag] = []
    for app_id in range(num_apps):
        base, extra = divmod(tasks_per_app, num_layers)
        layer_of: list[list[int]] = []
        next_id = 0
        for k in range(num_layers):
            size = base + (1 if k < extra else 0)
            layer_of.append(list(range(next_id, next_id + size)))
            next_id += size
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
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    t = 0.0
    out: dict[int, float] = {}
    for dag in workload:
        t += float(gen.exponential(1.0 / rate))
        out[dag.id] = t
    return out
