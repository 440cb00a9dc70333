"""`check_schedule` against the scalar rule it replaced, kept here as the oracle."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from reinfog.model import AppDag, Node, ScheduleConfig
from reinfog.sim import (
    _EPS,
    USER,
    ClusterSpec,
    IncrementalSim,
    LinkSpec,
    baseline_greedy,
    baseline_round_robin,
    check_schedule,
    generate_workload,
    poisson_releases,
    simulate_workload,
    uniform_cluster,
)


def _oracle_ready(cluster, app, task, node, runs, release):
    """The scalar data-ready time: `_data_ready` as the per-task check used it."""
    if not task.predecessors:
        return release + cluster.transfer_time(USER, node, task.input_size)
    arrivals = [runs[p].finish_s + cluster.transfer_time(runs[p].node, node,
                                                         app.task(p).output_size)
                for p in task.predecessors]
    return max(release, max(arrivals))


def _oracle_check(cluster, dags, configs):
    """`check_schedule` as one scalar pass per task and one interval loop per
    node, the nodes visited in id order."""
    by_id = {cfg.app_id: cfg for cfg in configs}
    intervals: dict[int, list[tuple[float, float]]] = {}
    for dag in dags:
        cfg = by_id[dag.id]
        if set(cfg.entries) != {t.id for t in dag.tasks}:
            raise ValueError(f"app {dag.id}: schedule does not cover all tasks")
        for task in dag.tasks:
            run = cfg.entries[task.id]
            ready = _oracle_ready(cluster, dag, task, run.node, cfg.entries,
                                  cfg.release_s)
            if run.start_s < ready - _EPS:
                raise ValueError(
                    f"app {dag.id} task {task.id} starts at {run.start_s} "
                    f"before its inputs arrive at {ready}")
            intervals.setdefault(run.node, []).append((run.start_s, run.finish_s))
    for node, spans in sorted(intervals.items()):
        spans.sort()
        for (s0, f0), (s1, _) in zip(spans, spans[1:]):
            if s1 < f0 - _EPS:
                raise ValueError(f"node {node} runs two tasks at once "
                                 f"({s0},{f0}) vs start {s1}")


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _random_cluster(rng, n):
    nodes = tuple(Node(i, float(rng.uniform(400.0, 2000.0)), float(rng.uniform(256.0, 1024.0)),
                       float(rng.uniform(20.0, 140.0))) for i in range(n))
    ends = list(range(n)) + [USER]
    links = {(a, b): LinkSpec(float(rng.uniform(0.002, 0.02)), float(rng.uniform(50.0, 200.0)))
             for a in ends for b in ends if a != b}
    return ClusterSpec(nodes, links)


def _copy(configs):
    return [ScheduleConfig(c.app_id, {t: replace(r) for t, r in c.entries.items()},
                           c.release_s) for c in configs]


def _perturb(rng, cluster, workload, configs):
    """A copy of `configs` with one to three random edits a schedule can suffer."""
    out = _copy(configs)
    for _ in range(int(rng.integers(1, 4))):
        a = int(rng.integers(len(out)))
        cfg, dag = out[a], workload[a]
        tid = dag.tasks[int(rng.integers(len(dag.tasks)))].id
        run = cfg.entries.get(tid)
        kind = int(rng.integers(7))
        if run is None or kind == 0:  # leave the config as it is
            continue
        if kind == 1:  # shift one task in time, by a tiny to a large amount
            delta = float(rng.choice([-1.0, -1e-3, -2e-9, -1e-9, -5e-10, 5e-10, 1e-3, 1.0]))
            run.start_s += delta
            run.finish_s += delta
        elif kind == 2:  # start exactly _EPS, or just over it, before the data is ready
            ready = _oracle_ready(cluster, dag, dag.task(tid), run.node, cfg.entries,
                                  cfg.release_s) if all(
                p in cfg.entries for p in dag.task(tid).predecessors) else run.start_s
            run.start_s = ready - _EPS * float(rng.choice([1.0, 1.0 + 1e-6, 0.5]))
            run.finish_s = max(run.finish_s, run.start_s)
        elif kind == 3:  # move one task to another node
            run.node = int(rng.integers(cluster.n))
        elif kind == 4:  # swap the nodes of two tasks, unless the partner was dropped
            other = cfg.entries.get(dag.tasks[int(rng.integers(len(dag.tasks)))].id)
            if other is not None:
                run.node, other.node = other.node, run.node
        elif kind == 5:  # drop a task
            del cfg.entries[tid]
        else:  # move the app's release
            cfg.release_s += float(rng.choice([-0.5, -1e-9, 1e-9, 0.5]))
    return out


@pytest.mark.parametrize("size", ["sched", "train"])
def test_array_pass_gives_the_oracle_verdict_on_perturbed_schedules(size):
    rng = np.random.default_rng(17 if size == "sched" else 18)
    seen: set[str] = set()
    for case in range(4 if size == "sched" else 20):
        if size == "sched":
            cluster = _random_cluster(rng, 16)
            workload = generate_workload(3, 200, rng=rng)
        else:
            cluster = _random_cluster(rng, 3)
            workload = generate_workload(20, 5, rng=rng, density=1.0)
        releases = poisson_releases(workload, 0.5, rng=rng)
        run = (baseline_greedy if case % 2 else baseline_round_robin)(
            cluster, workload, releases=releases)
        configs = list(run.configs)
        assert _verdict(check_schedule, cluster, workload, configs) is None
        for _ in range(80 if size == "sched" else 16):
            tampered = _perturb(rng, cluster, workload, configs)
            want = _verdict(_oracle_check, cluster, workload, tampered)
            assert _verdict(check_schedule, cluster, workload, tampered) == want
            seen.add("accepted" if want is None else next(
                (k for k in ("starts at", "at once", "does not cover") if k in want), want))
    assert seen == {"accepted", "starts at", "at once", "does not cover"}


def _one_source(start_shift: float):
    """One source task on node 1 of a 2-node cluster; its start moved from the
    data-ready time by `start_shift`."""
    cluster = uniform_cluster(2, latency_s=0.01, bandwidth_mbps=100.0)
    dag = generate_workload(1, 1, rng=0)[0]
    cfg = simulate_workload(cluster, [dag], {0: {0: 1}}, {0: 0.25})[0]
    run = cfg.entries[0]
    ready = 0.25 + cluster.transfer_time(USER, 1, dag.tasks[0].input_size)
    assert run.start_s == ready
    run.start_s = ready - start_shift
    return cluster, dag, cfg, ready


def test_start_within_eps_of_ready_is_accepted_and_beyond_it_rejected():
    for shift in (_EPS, 0.5 * _EPS, 0.0):
        cluster, dag, cfg, ready = _one_source(shift)
        if shift == _EPS:  # the very edge: start == ready - _EPS in float64
            assert cfg.entries[0].start_s == ready - _EPS
        check_schedule(cluster, [dag], [cfg])
    cluster, dag, cfg, ready = _one_source(2 * _EPS)
    with pytest.raises(ValueError, match=rf"app 0 task 0 starts at .* before its "
                                         rf"inputs arrive at {ready}"):
        check_schedule(cluster, [dag], [cfg])


def _small_case():
    cluster = uniform_cluster(3)
    workload = generate_workload(2, 6, rng=3)
    res = baseline_round_robin(cluster, workload, releases={0: 0.0, 1: 0.5})
    return cluster, workload, _copy(res.configs)


def test_overlap_on_one_node_is_rejected():
    cluster = uniform_cluster(1)
    workload = generate_workload(1, 4, rng=3, density=0.0)
    configs = _copy(baseline_round_robin(cluster, workload).configs)
    runs = sorted(configs[0].entries.values(), key=lambda r: r.start_s)
    check_schedule(cluster, workload, configs)
    runs[-1].start_s = runs[-2].finish_s - 0.01  # still long after its input arrived
    for check in (_oracle_check, check_schedule):
        with pytest.raises(ValueError, match="node 0 runs two tasks at once"):
            check(cluster, workload, configs)


def test_a_missing_task_is_rejected():
    cluster, workload, configs = _small_case()
    del configs[1].entries[3]
    with pytest.raises(ValueError, match="app 1: schedule does not cover all tasks"):
        check_schedule(cluster, workload, configs)


def test_causality_in_an_earlier_app_is_named_before_a_later_malformed_app():
    cluster, workload, configs = _small_case()
    configs[0].entries[5].start_s -= 1.0
    del configs[1].entries[0]
    with pytest.raises(ValueError, match="app 0 task 5 starts at"):
        check_schedule(cluster, workload, configs)


def _set(app, task, **values):
    return lambda cfgs: [setattr(cfgs[app].entries[task], k, v) for k, v in values.items()]


@pytest.mark.parametrize("edit, message", [
    (lambda cfgs: cfgs.pop(1), "app 1: no schedule config"),
    (lambda cfgs: cfgs.append(_copy(cfgs)[0]), "app 0: more than one schedule config"),
    (_set(1, 2, node=7), r"app 1 task 2: node 7 must lie in \[0, 3\)"),
    (_set(1, 2, node=-1), r"app 1 task 2: node -1 must lie in \[0, 3\)"),
    (_set(0, 4, node=-2), r"app 0 task 4: node -2 must lie in"),
    (_set(0, 4, node=1.0), r"app 0 task 4: node 1.0 must lie in"),
    (_set(0, 4, node=None), r"app 0 task 4: node None must lie in"),
    (_set(1, 3, start_s=math.nan), r"app 1 task 3: .* start nan and finish .* be finite"),
    (_set(0, 0, finish_s=math.inf), r"app 0 task 0: .* start .* and finish inf be finite"),
    (lambda cfgs: setattr(cfgs[1], "release_s", math.nan), r"app 1 task 0: .* release nan,"),
])
def test_malformed_schedule_is_a_value_error_naming_the_app_or_task(edit, message):
    cluster, workload, configs = _small_case()
    check_schedule(cluster, workload, configs)
    edit(configs)
    with pytest.raises(ValueError, match=message):
        check_schedule(cluster, workload, configs)


def test_shuffled_task_lists_match_the_oracle():
    rng = np.random.default_rng(5)
    cluster = _random_cluster(rng, 4)
    workload = [AppDag(d.id, tuple(d.tasks[i] for i in rng.permutation(len(d.tasks))))
                for d in generate_workload(3, 9, rng=rng)]
    choices = {d.id: {t.id: int(rng.integers(4)) for t in d.tasks} for d in workload}
    configs = simulate_workload(cluster, workload, choices)
    for _ in range(200):
        tampered = _perturb(rng, cluster, workload, configs)
        assert (_verdict(check_schedule, cluster, workload, tampered)
                == _verdict(_oracle_check, cluster, workload, tampered))


@pytest.mark.parametrize("node", [-1, 3, 5, 1.5, True, np.float64(1.0)])
def test_commit_rejects_a_node_outside_the_cluster(node):
    cluster = uniform_cluster(3)
    dag = generate_workload(1, 3, rng=0)[0]
    sim = IncrementalSim(cluster, [dag])
    why = rf"node {node} is not in \[0, 3\)" if type(node) is int \
        else f"node {re.escape(repr(node))} is not an integer"
    with pytest.raises(ValueError, match=f"app 0 task 0: {why}"):
        sim.commit(dag, dag.tasks[0], node)
    assert sim.runs[0] == {} and sim.node_free == [0.0] * 3
    assert sim.committed_mem == [0.0] * 3
    sim.commit(dag, dag.tasks[0], np.int64(1))  # a numpy integer is a node id
    assert sim.runs[0][dag.tasks[0].id].node == 1
