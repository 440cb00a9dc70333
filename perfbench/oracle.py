"""Correctness checks computed outside the program.

Every function here recomputes what the program returned from the raw input
fields, in plain Python, and raises CheckFailed on the first disagreement.
None of them calls the code under test, except `replay_arrivals`, which the
distributed check names on purpose: the learner promises that replaying its
arrival log reproduces it bit for bit.
"""

from __future__ import annotations

import heapq
import math

USER = -1        # the data origin, as a link endpoint
REL_TOL = 1e-9   # sums may be reordered by a later vectorisation
MEM_SLACK = 1e-9  # capacity slack the simulator grants on memory and deadlines


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def _close(what: str, got: float, want: float) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        raise CheckFailed(f"{what}: program {got!r}, benchmark {want!r}")


# -- placement ---------------------------------------------------------------


def placement_cost(inst, node_of) -> tuple[float, float]:
    """(objective, total constraint violation) of one assignment."""
    n = len(inst.nodes)
    if len(node_of) != len(inst.components):
        raise CheckFailed("assignment length differs from the component count")
    obj = 0.0
    cycles = [0.0] * n
    mem = [0.0] * n
    deadline_over = 0.0
    for comp, j in zip(inst.components, node_of):
        if not 0 <= j < n:
            raise CheckFailed(f"component {comp.id} placed on unknown node {j}")
        node = inst.nodes[j]
        seconds = comp.compute_req / node.compute_cap
        obj += inst.omega1 * seconds + inst.omega2 * node.power_draw * seconds
        cycles[j] += comp.compute_req
        mem[j] += comp.mem_req
        deadline_over += max(0.0, seconds - comp.deadline)
    violation = deadline_over
    for j, node in enumerate(inst.nodes):
        violation += max(0.0, cycles[j] - node.compute_cap)
        violation += max(0.0, mem[j] - node.mem_avail)
    return obj, violation


def check_placement(inst, penalty_lambda: float, generations: int, result) -> None:
    """Objective, fitness and feasibility of the returned best, and its trace."""
    obj, violation = placement_cost(inst, result.assignment.node_of)
    _close("objective_value", result.objective_value, obj)
    _close("fitness", result.fitness, -(obj + penalty_lambda * violation))
    if result.feasible != (violation == 0.0):
        raise CheckFailed(f"feasible={result.feasible} but violation is {violation!r}")
    series = result.trace.best_fitness_series()
    if len(series) != generations + 1:
        raise CheckFailed(f"trace has {len(series)} rows for {generations} generations")
    for gen, (before, after) in enumerate(zip(series, series[1:]), start=1):
        if after < before:
            raise CheckFailed(f"best fitness fell at generation {gen}")
    if series[-1] != result.fitness:
        raise CheckFailed("last trace row is not the returned fitness")


# -- scheduling --------------------------------------------------------------


def decision_order(workload, releases) -> list:
    """(app, task) pairs: apps by (release, id), each in Kahn order, lowest id first."""
    order = []
    for app in sorted(workload, key=lambda d: (releases.get(d.id, 0.0), d.id)):
        by_id = {t.id: t for t in app.tasks}
        indeg = {t.id: len(t.predecessors) for t in app.tasks}
        succ: dict[int, list[int]] = {t.id: [] for t in app.tasks}
        for t in app.tasks:
            for p in t.predecessors:
                succ[p].append(t.id)
        ready = [tid for tid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        while ready:
            tid = heapq.heappop(ready)
            order.append((app, by_id[tid]))
            for s in succ[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
    return order


class CommitOrderSim:
    """The commit-order schedule that the simulator documents.

    A node serves tasks in the order they are committed: a task starts at
    max(node free time, the time its inputs arrive). Sources pull their
    input from the origin after the app's release; other tasks wait for
    every predecessor's output to cross the link. Memory is a static
    reservation of input + output for the rest of the run, and a task that
    overflows it or misses its deadline still runs but is unsuccessful.
    """

    def __init__(self, cluster, workload, releases) -> None:
        self.nodes = cluster.nodes
        self.links = cluster.links
        self.releases = releases
        self.output_size = {(app.id, t.id): t.output_size
                            for app in workload for t in app.tasks}
        self.node_free = [0.0] * len(self.nodes)
        self.mem_used = [0.0] * len(self.nodes)
        self.runs: dict[tuple[int, int], tuple] = {}

    def _transfer(self, src: int, dst: int, size_mb: float) -> float:
        if src == dst:
            return 0.0
        link = self.links[(src, dst)]
        return link.latency_s + size_mb / link.bandwidth_mbps

    def outcome(self, app, task, node: int) -> tuple:
        """(node, start, finish, energy, success, rt) of placing task on node."""
        release = self.releases.get(app.id, 0.0)
        preds = [self.runs[(app.id, p)] for p in task.predecessors]
        if preds:
            ready = max(release, max(
                run[2] + self._transfer(run[0], node, self.output_size[(app.id, p)])
                for run, p in zip(preds, task.predecessors)))
            deps_met = max(release, max(run[2] for run in preds))
        else:
            ready = release + self._transfer(USER, node, task.input_size)
            deps_met = release
        spec = self.nodes[node]
        start = max(self.node_free[node], ready)
        duration = task.compute_req / spec.compute_cap
        finish = start + duration
        footprint = task.input_size + task.output_size
        fits = self.mem_used[node] + footprint <= spec.mem_avail + MEM_SLACK
        in_time = task.deadline is None or finish <= task.deadline + MEM_SLACK
        return (node, start, finish, spec.power_draw * duration, fits and in_time,
                finish - deps_met)

    def commit(self, app, task, node: int) -> tuple:
        out = self.outcome(app, task, node)
        self.node_free[node] = out[2]
        self.mem_used[node] += task.input_size + task.output_size
        self.runs[(app.id, task.id)] = out
        return out

    def totals(self, workload) -> tuple[float, float]:
        """(sum over apps of makespan minus release, total energy)."""
        rt = ec = 0.0
        for app in workload:
            runs = [self.runs[(app.id, t.id)] for t in app.tasks]
            rt += max(r[2] for r in runs) - self.releases.get(app.id, 0.0)
            ec += sum(r[3] for r in runs)
        return rt, ec


def incremental_cost(out: tuple, spec) -> float:
    """Greedy's price of one placement: normalised metric, plus |penalty| on failure."""
    rt = out[5] / spec.baseline_rt
    ec = out[3] / spec.baseline_ec
    if spec.metric == "response_time":
        cost = rt
    elif spec.metric == "energy":
        cost = ec
    else:
        cost = spec.w1 * rt + spec.w2 * ec
    return cost + (abs(spec.failure_penalty) if not out[4] else 0.0)


def _compare_runs(label: str, sim: CommitOrderSim, workload, result) -> None:
    by_app = {cfg.app_id: cfg for cfg in result.configs}
    for app in workload:
        entries = by_app[app.id].entries
        if set(entries) != {t.id for t in app.tasks}:
            raise CheckFailed(f"{label}: app {app.id} schedule does not cover its tasks")
        for task in app.tasks:
            node, start, finish, energy, success, _ = sim.runs[(app.id, task.id)]
            run = entries[task.id]
            where = f"{label}: app {app.id} task {task.id}"
            if run.node != node:
                raise CheckFailed(f"{where} ran on node {run.node}, chosen {node}")
            _close(f"{where} start", run.start_s, start)
            _close(f"{where} finish", run.finish_s, finish)
            _close(f"{where} energy", run.energy_j, energy)
            if run.success != success:
                raise CheckFailed(f"{where} success {run.success}, expected {success}")
    rt, ec = sim.totals(workload)
    _close(f"{label}: total_rt", result.total_rt, rt)
    _close(f"{label}: total_ec", result.total_ec, ec)


def check_round_robin_spec(cluster, workload, releases, spec) -> None:
    """make_reward_spec's baselines are the totals of a round-robin schedule."""
    sim = CommitOrderSim(cluster, workload, releases)
    for k, (app, task) in enumerate(decision_order(workload, releases)):
        sim.commit(app, task, k % len(cluster.nodes))
    rt, ec = sim.totals(workload)
    _close("round-robin baseline_rt", spec.baseline_rt, max(rt, 1e-9))
    _close("round-robin baseline_ec", spec.baseline_ec, max(ec, 1e-9))


def check_greedy(cluster, workload, releases, spec, result) -> None:
    """Every choice is the lowest-id argmin of the incremental cost; times match."""
    sim = CommitOrderSim(cluster, workload, releases)
    by_app = {cfg.app_id: cfg for cfg in result.configs}
    for app, task in decision_order(workload, releases):
        chosen = by_app[app.id].entries[task.id].node
        costs = [incremental_cost(sim.outcome(app, task, j), spec)
                 for j in range(len(cluster.nodes))]
        best = min(costs)
        first = next(j for j, c in enumerate(costs)
                     if c <= best + REL_TOL * max(1.0, abs(best)))
        if chosen != first:
            raise CheckFailed(f"greedy: app {app.id} task {task.id} went to node "
                              f"{chosen} (cost {costs[chosen]!r}), argmin is node "
                              f"{first} (cost {costs[first]!r})")
        sim.commit(app, task, chosen)
    _compare_runs("greedy", sim, workload, result)


def check_policy_pass(cluster, workload, releases, choices, result) -> None:
    """The schedule is the commit-order replay of the policy's choices."""
    order = decision_order(workload, releases)
    if len(choices) != len(order):
        raise CheckFailed(f"policy made {len(choices)} decisions for {len(order)} tasks")
    sim = CommitOrderSim(cluster, workload, releases)
    for (app, task), node in zip(order, choices):
        sim.commit(app, task, node)
    _compare_runs("policy", sim, workload, result)


# -- training ----------------------------------------------------------------


def chunk_sizes(total: int, flush: int) -> list[int]:
    """How a stream of `total` experiences is cut into batches of `flush`."""
    return [flush] * (total // flush) + ([total % flush] if total % flush else [])


def updates_for_arrivals(sizes, batch_size: int, capacity: int) -> int:
    """One update per arrival once the buffer holds a full batch."""
    held = updates = 0
    for size in sizes:
        held = min(held + size, capacity)
        if held >= batch_size:
            updates += 1
    return updates


def weights_equal(a, b) -> bool:
    """Bit-for-bit equality of two networks' parameters."""
    return (a.layer_sizes == b.layer_sizes
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights))
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.biases, b.biases)))


def check_finite(params) -> None:
    for tensor in list(params.weights) + list(params.biases):
        values = tensor.ravel().tolist()
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("network has a non-finite weight")


def check_centralized(result, episodes: int, tasks: int, cfg, sync, reference) -> None:
    """Update count from arrival arithmetic, finite weights, bit-identical repeats."""
    if len(result.trace) != episodes or any(r.steps != tasks for r in result.trace):
        raise CheckFailed("training trace does not hold one row per episode")
    want = updates_for_arrivals(chunk_sizes(episodes * tasks, sync.batch_flush),
                                cfg.batch_size, cfg.buffer_capacity)
    if result.updates != want:
        raise CheckFailed(f"{result.updates} updates, arrival arithmetic gives {want}")
    check_finite(result.policy)
    if reference is not None and not weights_equal(result.policy, reference):
        raise CheckFailed("a repeat with the same seed gave different weights")


def check_distributed(learner, reports, workers: int, episodes: int, tasks: int,
                      cfg, sync, seed: int, replay_arrivals) -> None:
    """No experience lost, ordered sessions, and a bit-exact replay of the learner."""
    want = workers * episodes * tasks
    sent = sum(r.experiences_sent for r in reports.values())
    if len(reports) != workers or sent != want or learner.received_experiences != want:
        raise CheckFailed(f"sent {sent}, received {learner.received_experiences}, "
                          f"expected {want} from {workers} workers")
    for wid, report in reports.items():
        if report.episodes_run != episodes or report.shutdown_reason is not None:
            raise CheckFailed(f"worker {wid} ran {report.episodes_run} episodes, "
                              f"shutdown {report.shutdown_reason!r}")
    log = list(learner.arrival_log)
    per_worker: dict[str, list] = {}
    for wid, seq, experiences in log:
        per_worker.setdefault(wid, []).append((seq, len(experiences)))
    for wid in reports:
        got = per_worker.get(wid, [])
        if [s for s, _ in got] != list(range(1, len(got) + 1)):
            raise CheckFailed(f"worker {wid}: batch seqs are not contiguous from 1")
        if [n for _, n in got] != chunk_sizes(episodes * tasks, sync.batch_flush):
            raise CheckFailed(f"worker {wid}: batch sizes do not match batch_flush")
    expected = updates_for_arrivals([len(e) for _, _, e in log],
                                    cfg.batch_size, cfg.buffer_capacity)
    if learner.updates != expected:
        raise CheckFailed(f"{learner.updates} updates, arrival arithmetic gives {expected}")
    n_actions = learner.agent.online.layer_sizes[-1]
    state_dim = learner.agent.online.layer_sizes[0]
    updates, params = replay_arrivals(log, state_dim, n_actions, cfg, seed=seed)
    if updates != learner.updates or not weights_equal(params, learner.agent.online):
        raise CheckFailed("replaying the arrival log does not reproduce the learner")
    check_finite(learner.agent.online)
