import hashlib
import heapq
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from reinfog.model import (
    AppDag,
    Node,
    ScheduleConfig,
    Task,
    TaskRun,
    critical_path,
    energy_consumption,
    response_time,
)
from reinfog import sim as sim_module
from reinfog.sim import (
    _EPS,
    USER,
    ClusterSpec,
    IncrementalSim,
    LinkSpec,
    RewardSpec,
    StepOutcome,
    _data_ready,
    _decision_order,
    _incremental_cost,
    _release_times,
    _run_on,
    baseline_greedy,
    baseline_round_robin,
    check_schedule,
    cluster_from_json,
    cluster_to_json,
    compute_reward,
    decode_action,
    encode_state,
    generate_workload,
    make_reward_spec,
    poisson_releases,
    run_episode,
    simulate_schedule,
    simulate_workload,
    uniform_cluster,
)


def chain_dag(computes, out=1.0, inp=0.0) -> AppDag:
    tasks = [Task(i, c, inp if i == 0 else 0.0, out,
                  predecessors=(i - 1,) if i else ())
             for i, c in enumerate(computes)]
    return AppDag(0, tuple(tasks))


def two_node_cluster(lat=0.1, bw=10.0, user_lat=None) -> ClusterSpec:
    """Links of `lat`; the user's links of `user_lat` when given."""
    nodes = (Node(0, 1000.0, 1024.0, 50.0), Node(1, 1000.0, 1024.0, 50.0))
    link = LinkSpec(lat, bw)
    user = link if user_lat is None else LinkSpec(user_lat, bw)
    endpoints = [0, 1, USER]
    links = {(s, d): user if s == USER else link
             for s in endpoints for d in endpoints if s != d}
    return ClusterSpec(nodes, links)


def test_cluster_validation():
    nodes = (Node(0, 1000.0, 1024.0, 50.0), Node(1, 1000.0, 1024.0, 50.0))
    links = {(0, 1): LinkSpec(0.1, 10.0)}
    with pytest.raises(ValueError, match="missing link"):
        ClusterSpec(nodes, links)
    with pytest.raises(ValueError):
        LinkSpec(-0.1, 10.0)
    with pytest.raises(ValueError):
        LinkSpec(0.1, 0.0)
    with pytest.raises(ValueError, match="0..n-1"):
        ClusterSpec((Node(1, 1.0, 1.0, 1.0),), {})


@pytest.mark.parametrize("extra, message", [
    ((0, 0), "self-link"), ((USER, USER), "self-link"),
    ((9, 1), "unknown endpoint"), ((1, -2), "unknown endpoint")])
def test_cluster_rejects_self_and_unknown_links(extra, message):
    cluster = two_node_cluster()
    links = {**cluster.links, extra: LinkSpec(0.1, 10.0)}
    with pytest.raises(ValueError, match=message):
        ClusterSpec(cluster.nodes, links)
    doc = cluster_to_json(cluster)
    doc["links"].append({"src": extra[0], "dst": extra[1], "latency_s": 0.1,
                         "bandwidth_mbps": 10.0})
    with pytest.raises(ValueError, match=message):
        cluster_from_json(doc)


def test_transfer_time():
    cluster = two_node_cluster(lat=0.1, bw=10.0)
    assert cluster.transfer_time(0, 0, 50.0) == 0.0
    assert cluster.transfer_time(0, 1, 1.0) == pytest.approx(0.2)
    assert cluster.transfer_time(USER, 1, 5.0) == pytest.approx(0.6)


def test_cluster_json_round_trip():
    cluster = uniform_cluster(3, compute_cap=800.0, latency_s=0.02)
    doc = cluster_to_json(cluster)
    again = cluster_from_json(json.loads(json.dumps(doc)))
    assert again == cluster
    with pytest.raises(ValueError, match="malformed"):
        cluster_from_json({"nodes": [{"id": 0}]})
    doc["links"][0]["src"] = 0.7  # int() would truncate it to node 0
    with pytest.raises(ValueError, match="link src must be an integer"):
        cluster_from_json(doc)


def test_cluster_json_rejects_duplicate_links():
    doc = cluster_to_json(uniform_cluster(2))
    assert len(cluster_from_json(doc).links) == len(doc["links"])
    doc["links"].append({"src": 0, "dst": 1, "latency_s": 5.0,
                         "bandwidth_mbps": 10.0})
    with pytest.raises(ValueError, match=r"duplicate link \(0, 1\)"):
        cluster_from_json(doc)


@pytest.mark.parametrize("section, field, literal", [
    ("nodes", "compute_cap", "NaN"),
    ("nodes", "mem_avail", "Infinity"),
    ("nodes", "power_draw", "-Infinity"),
    ("links", "latency_s", "NaN"),
    ("links", "bandwidth_mbps", "Infinity"),
])
def test_cluster_json_rejects_non_finite_numbers(section, field, literal):
    doc = cluster_to_json(uniform_cluster(2))
    doc[section][1][field] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(ValueError, match="must be finite"):
        cluster_from_json(json.loads(text))


def test_chain_on_one_node_serial_finishes():
    cluster = two_node_cluster(user_lat=0.0)
    dag = chain_dag([1000.0, 2000.0])
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0})
    assert cfg.entries[0].finish_s == pytest.approx(1.0)
    assert cfg.entries[1].start_s == pytest.approx(1.0)
    assert cfg.entries[1].finish_s == pytest.approx(3.0)


def test_chain_split_across_nodes_pays_transfer():
    # fin(t0)=1, then 0.1 latency + 1MB / 10MB/s -> start 1.2
    cluster = two_node_cluster(lat=0.1, bw=10.0, user_lat=0.0)
    dag = chain_dag([1000.0, 2000.0], out=1.0)
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1})
    assert cfg.entries[0].finish_s == pytest.approx(1.0)
    assert cfg.entries[1].start_s == pytest.approx(1.2)
    assert cfg.entries[1].finish_s == pytest.approx(3.2)


def test_independent_tasks_run_in_parallel():
    cluster = uniform_cluster(2, latency_s=0.0)
    dag = AppDag(0, (Task(0, 1000.0, 0.0, 1.0), Task(1, 2000.0, 0.0, 1.0)))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1})
    assert cfg.makespan == pytest.approx(2.0)


def diamond_case():
    nodes = (Node(0, 1000.0, 1024.0, 30.0), Node(1, 500.0, 1024.0, 90.0))
    link = LinkSpec(0.05, 20.0)
    endpoints = [0, 1, USER]
    links = {(s, d): link for s in endpoints for d in endpoints if s != d}
    cluster = ClusterSpec(nodes, links)
    dag = AppDag(0, (
        Task(0, 500.0, 2.0, 4.0),
        Task(1, 1000.0, 0.0, 1.0, predecessors=(0,)),
        Task(2, 600.0, 0.0, 3.0, predecessors=(0,)),
        Task(3, 800.0, 0.0, 5.0, predecessors=(1, 2)),
    ))
    return cluster, dag


def test_diamond_closed_form():
    # hand event trace: t0 ready 0.05+2/20=0.15, fin 0.65; t1 on n0 fin 1.65;
    # t2 on n1 ready 0.65+0.05+4/20=0.9, dur 1.2, fin 2.1;
    # t3 waits for t2's output: 2.1+0.05+3/20=2.3, fin 3.1
    cluster, dag = diamond_case()
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0, 2: 1, 3: 0})
    assert cfg.entries[0].start_s == pytest.approx(0.15)
    assert cfg.entries[0].finish_s == pytest.approx(0.65)
    assert cfg.entries[1].finish_s == pytest.approx(1.65)
    assert cfg.entries[2].start_s == pytest.approx(0.9)
    assert cfg.entries[2].finish_s == pytest.approx(2.1)
    assert cfg.entries[3].start_s == pytest.approx(2.3)
    assert cfg.entries[3].finish_s == pytest.approx(3.1)
    assert critical_path(dag, cfg) == [0, 2, 3]
    assert response_time([dag], [cfg]) == pytest.approx(3.1)
    # energies: 0.5*30 + 1.0*30 + 1.2*90 + 0.8*30
    assert energy_consumption([cfg]) == pytest.approx(15 + 30 + 108 + 24)


def test_node_serves_in_ready_order():
    # both queued on node 0 while it is busy; earlier-ready task goes first
    cluster = two_node_cluster(lat=0.0, bw=10.0)
    dag = AppDag(0, (
        Task(0, 3000.0, 0.0, 1.0),                       # occupies node 0 until 3
        Task(1, 1000.0, 0.0, 2.0),                       # on node 1, fin 1
        Task(2, 1000.0, 0.0, 1.0, predecessors=(1,)),    # ready 1.2
        Task(3, 500.0, 10.0, 1.0),                       # ready at 1.0 (input pull)
    ))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1, 2: 0, 3: 0})
    assert cfg.entries[3].start_s == pytest.approx(3.0)
    assert cfg.entries[2].start_s == pytest.approx(3.5)


def test_ready_tie_breaks_by_task_id():
    cluster = uniform_cluster(1, latency_s=0.0)
    dag = AppDag(0, (Task(2, 1000.0, 0.0, 1.0), Task(5, 1000.0, 0.0, 1.0),
                     Task(3, 1000.0, 0.0, 1.0)))
    cfg = simulate_schedule(cluster, dag, {2: 0, 5: 0, 3: 0})
    starts = {tid: run.start_s for tid, run in cfg.entries.items()}
    assert starts[2] < starts[3] < starts[5]


def test_deadline_miss_flags_failure():
    cluster = uniform_cluster(1, latency_s=0.0)
    dag = AppDag(0, (Task(0, 2000.0, 0.0, 1.0, deadline=1.0),))
    cfg = simulate_schedule(cluster, dag, {0: 0})
    assert not cfg.entries[0].success
    assert not cfg.all_success


def test_memory_overflow_fails_but_still_runs():
    cluster = uniform_cluster(1, mem_avail=10.0, latency_s=0.0)
    dag = AppDag(0, (Task(0, 1000.0, 4.0, 4.0), Task(1, 1000.0, 4.0, 4.0)))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0})
    assert cfg.entries[0].success
    assert not cfg.entries[1].success
    assert cfg.entries[1].finish_s > cfg.entries[1].start_s


def test_check_schedule_rejects_a_start_before_the_inputs_arrive():
    # task 1 alone on node 1, its input from node 0 due at 1.2: no overlap
    cluster = two_node_cluster(lat=0.1, bw=10.0, user_lat=0.0)
    dag = chain_dag([1000.0, 2000.0], out=1.0)
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1})
    bad = cfg.entries[1]
    cfg.entries[1] = type(bad)(bad.node, 1.1, 3.1, bad.energy_j, True)
    with pytest.raises(ValueError, match=r"app 0 task 1 starts at 1\.1 before its inputs "
                                         r"arrive at 1\.2"):
        check_schedule(cluster, [dag], [cfg])


def test_check_schedule_rejects_two_tasks_at_once_on_a_node():
    # two independent tasks whose inputs are ready at 0: only the overlap is wrong
    cluster = uniform_cluster(1, latency_s=0.0)
    dag = AppDag(0, (Task(0, 1000.0, 0.0, 1.0), Task(1, 1000.0, 0.0, 1.0)))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0})
    bad = cfg.entries[1]
    cfg.entries[1] = type(bad)(bad.node, 0.5, 1.5, bad.energy_j, True)
    with pytest.raises(ValueError, match=r"node 0 runs two tasks at once \(0\.0,1\.0\) "
                                         r"vs start 0\.5"):
        check_schedule(cluster, [dag], [cfg])


def test_decode_action_bounds():
    assert decode_action(0, 3) == 0
    assert decode_action(2, 3) == 2
    with pytest.raises(ValueError, match="invalid action"):
        decode_action(3, 3)
    with pytest.raises(ValueError, match="invalid action"):
        decode_action(-1, 3)
    assert decode_action(np.int64(1), 3) == 1
    assert type(decode_action(np.intp(2), 3)) is int
    for raw in (True, False, 1.0, 1.9, np.float64(0.0)):
        with pytest.raises(ValueError, match="not an integer"):
            decode_action(raw, 3)


@pytest.mark.parametrize("policy", [lambda s: 1.9, lambda s: True])
def test_run_episode_rejects_non_integer_actions(policy):
    with pytest.raises(ValueError, match="not an integer"):
        run_episode(uniform_cluster(3), generate_workload(1, 3, rng=0), policy)


def test_reward_spec_validation():
    with pytest.raises(ValueError):
        RewardSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        RewardSpec(1.0, 1.0, failure_penalty=0.5)
    with pytest.raises(ValueError):
        RewardSpec(1.0, 1.0, metric="latency")


def test_compute_reward_cases():
    spec = RewardSpec(baseline_rt=10.0, baseline_ec=5.0)
    ok = StepOutcome(0, 0.0, 2.0, 1.0, 2.0, True)
    assert compute_reward(ok, spec) == -0.2
    failed = StepOutcome(0, 0.0, 2.0, 1.0, 2.0, False)
    assert compute_reward(failed, spec) == -2.0
    rt_spec = RewardSpec(baseline_rt=10.0, baseline_ec=5.0, metric="response_time")
    at_baseline = StepOutcome(0, 0.0, 10.0, 3.0, 10.0, True)
    assert compute_reward(at_baseline, rt_spec) == -1.0
    ec_spec = RewardSpec(baseline_rt=10.0, baseline_ec=5.0, metric="energy")
    assert compute_reward(ok, ec_spec) == -0.2


def test_state_vector_shape_and_bounds():
    cluster = uniform_cluster(3)
    workload = generate_workload(2, 6, rng=0)
    sim = IncrementalSim(cluster, workload)
    app = workload[0]
    state = encode_state(cluster, sim, app, app.task(0))
    assert state.shape == (13,)
    assert np.all(state >= 0.0) and np.all(state <= 1.0)
    # idle homogeneous cluster: identical per-node triples
    assert np.array_equal(state[0:3], state[3:6])
    assert np.array_equal(state[0:3], state[6:9])


def test_state_reflects_load():
    cluster = uniform_cluster(2, compute_cap=1000.0)
    dag = AppDag(0, (Task(0, 1500.0, 1.0, 1.0), Task(1, 500.0, 1.0, 1.0)))
    sim = IncrementalSim(cluster, [dag])
    sim.commit(dag, dag.task(0), 0)
    state = encode_state(cluster, sim, dag, dag.task(1))
    # queued work exceeds a second of capacity: spare-compute feature pins at 0
    assert state[0] == 0.0
    assert state[2] == 1.0  # node 0 carries the max backlog
    assert state[3] > 0.0 and state[5] == 0.0


def test_state_features_stay_bounded_under_load():
    cluster = uniform_cluster(2, mem_avail=30.0)
    workload = generate_workload(1, 8, rng=3, density=0.7)
    sim = IncrementalSim(cluster, workload)
    app = workload[0]
    rng = np.random.default_rng(0)
    for tid in [t.id for t in app.tasks]:
        state = encode_state(cluster, sim, app, app.task(tid))
        assert np.all(state >= 0.0) and np.all(state <= 1.0)
        sim.commit(app, app.task(tid), int(rng.integers(2)))


def test_run_episode_single_task():
    cluster = uniform_cluster(1)
    dag = AppDag(0, (Task(0, 1000.0, 1.0, 1.0),))
    res = run_episode(cluster, [dag], lambda s: 0)
    assert len(res.steps) == 1
    assert res.steps.done.tolist() == [True]
    # self-normalized: the only task carries the whole baseline
    assert res.rewards[0] == pytest.approx(-1.0)
    assert res.total_wc == pytest.approx(1.0)


def test_run_episode_matches_direct_simulation_on_chain():
    cluster = two_node_cluster()
    dag = chain_dag([1000.0, 1500.0, 500.0], out=2.0, inp=3.0)
    fastest = 0
    res = run_episode(cluster, [dag], lambda s: fastest)
    direct = simulate_schedule(cluster, dag, {t.id: fastest for t in dag.tasks})
    assert res.configs[0].entries == direct.entries


def test_run_episode_metric_consistency_and_determinism():
    cluster = uniform_cluster(3, mem_avail=200.0)
    workload = generate_workload(3, 5, rng=11, density=0.6)
    spec = make_reward_spec(cluster, workload)

    def run():
        rng = np.random.default_rng(4)
        return run_episode(cluster, workload, lambda s: int(rng.integers(3)), spec)

    a, b = run(), run()
    assert a == b
    assert a.total_rt == response_time(workload, a.configs)
    assert a.total_ec == energy_consumption(a.configs)
    assert a.steps.rewards.tolist() == list(a.rewards)
    assert all(reward <= 0.0 for reward in a.rewards)


def test_failed_steps_earn_exactly_the_penalty():
    cluster = uniform_cluster(1, mem_avail=5.0)
    dag = AppDag(0, (Task(0, 1000.0, 2.0, 2.0), Task(1, 1000.0, 2.0, 2.0)))
    spec = RewardSpec(baseline_rt=10.0, baseline_ec=100.0, failure_penalty=-2.0)
    res = run_episode(cluster, [dag], lambda s: 0, spec)
    assert res.rewards[1] == -2.0
    assert not res.configs[0].entries[1].success


def test_release_delays_start():
    cluster = uniform_cluster(2, latency_s=0.0)
    workload = generate_workload(2, 3, rng=5, density=0.5)
    res = run_episode(cluster, workload, lambda s: 0, releases={1: 5.0})
    cfg = {c.app_id: c for c in res.configs}
    assert min(r.start_s for r in cfg[1].entries.values()) >= 5.0
    assert cfg[1].release_s == 5.0


def test_round_robin_cycles_nodes():
    cluster = uniform_cluster(3, latency_s=0.0)
    dag = AppDag(0, tuple(Task(i, 1000.0, 0.0, 1.0) for i in range(3)))
    res = baseline_round_robin(cluster, [dag])
    nodes = [res.configs[0].entries[i].node for i in range(3)]
    assert nodes == [0, 1, 2]
    assert res.total_wc == pytest.approx(1.0)  # self-normalized baseline


def test_greedy_single_task_takes_argmin():
    nodes = (Node(0, 400.0, 1024.0, 140.0), Node(1, 1000.0, 1024.0, 60.0),
             Node(2, 2000.0, 1024.0, 20.0))
    link = LinkSpec(0.01, 100.0)
    endpoints = [0, 1, 2, USER]
    cluster = ClusterSpec(nodes, {(s, d): link for s in endpoints
                                  for d in endpoints if s != d})
    dag = AppDag(0, (Task(0, 1000.0, 2.0, 1.0),))
    spec = RewardSpec(baseline_rt=1.0, baseline_ec=100.0)
    res = baseline_greedy(cluster, [dag], spec)
    # evaluate all three single-task placements by hand
    costs = []
    for node in range(3):
        cfg = simulate_schedule(cluster, dag, {0: node})
        rt = cfg.entries[0].finish_s
        ec = cfg.entries[0].energy_j
        costs.append(0.5 * rt / spec.baseline_rt + 0.5 * ec / spec.baseline_ec)
    assert res.configs[0].entries[0].node == int(np.argmin(costs))


def test_greedy_choices_match_stepwise_argmin():
    cluster = uniform_cluster(3, mem_avail=500.0)
    workload = generate_workload(2, 4, rng=9, density=0.5)
    spec = make_reward_spec(cluster, workload)
    res = baseline_greedy(cluster, workload, spec)
    # replay the same decisions, pricing each node through the scalar rule
    sim = IncrementalSim(cluster, workload)
    for app, task in _decision_order(workload, sim.releases):
        costs = [_incremental_cost(sim._outcome(app, task, node), spec)
                 for node in range(cluster.n)]
        chosen = res.configs[app.id].entries[task.id].node
        assert chosen == int(np.argmin(costs))
        sim.commit(app, task, chosen)


def test_greedy_ties_go_to_the_lowest_node_id():
    cluster = uniform_cluster(4)
    twins = AppDag(0, (Task(0, 500.0, 2.0, 1.0), Task(1, 500.0, 2.0, 1.0)))
    spec = RewardSpec(baseline_rt=1.0, baseline_ec=100.0)
    sim = IncrementalSim(cluster, [twins])
    first = [_incremental_cost(sim._outcome(twins, twins.task(0), j), spec)
             for j in range(4)]
    assert len(set(map(float, first))) == 1  # all four nodes tie
    sim.commit(twins, twins.task(0), 0)
    second = [float(_incremental_cost(sim._outcome(twins, twins.task(1), j), spec))
              for j in range(4)]
    assert second[0] > second[1] == second[2] == second[3]
    res = baseline_greedy(cluster, [twins], spec)
    assert [res.configs[0].entries[t].node for t in (0, 1)] == [0, 1]


def _sweep_case(seed: int):
    """A heterogeneous cluster, deadlines and tight memory."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    nodes = tuple(Node(i, float(rng.uniform(200.0, 2000.0)),
                       float(rng.uniform(10.0, 60.0)), float(rng.uniform(10.0, 150.0)))
                  for i in range(n))
    endpoints = list(range(n)) + [USER]
    links = {(s, d): LinkSpec(float(rng.uniform(0.0, 0.05)), float(rng.uniform(5.0, 300.0)))
             for s in endpoints for d in endpoints if s != d}
    workload = generate_workload(int(rng.integers(1, 4)), int(rng.integers(1, 12)),
                                 rng=rng, density=float(rng.uniform(0.0, 1.0)))
    workload = [AppDag(dag.id, tuple(
        replace(t, deadline=float(rng.uniform(0.1, 3.0))) if rng.random() < 0.4 else t
        for t in dag.tasks)) for dag in workload]
    releases = poisson_releases(workload, 1.0, rng=rng) if rng.random() < 0.7 else None
    return rng, ClusterSpec(nodes, links), workload, releases


def test_peek_sweep_equals_scalar_outcome_bit_for_bit():
    seen = set()
    for seed in range(12):
        rng, cluster, workload, releases = _sweep_case(seed)
        sim = IncrementalSim(cluster, workload, releases)
        for app, task in _decision_order(workload, sim.releases):
            sweep = sim.peek(app, task)
            for j in range(cluster.n):
                out = sim._outcome(app, task, j)
                got = (int(sweep.node[j]), float(sweep.start_s[j]),
                       float(sweep.finish_s[j]), float(sweep.energy_j[j]),
                       float(sweep.rt_s[j]), bool(sweep.success[j]))
                # repr tells -0.0 from 0.0 and round-trips every other float
                assert repr(got) == repr(tuple(vars(out).values())), (seed, task.id, j)
            seen.add(min(len(task.predecessors), 2))
            seen.add("deadline" if task.deadline is not None else "no deadline")
            seen.update(map(bool, sweep.success))
            sim.commit(app, task, int(rng.integers(cluster.n)))
    assert seen == {0, 1, 2, True, False, "deadline", "no deadline"}


def test_pending_cycles_bisection_equals_filter_sum_when_now_falls():
    rng = np.random.default_rng(4)
    cluster = _pinned_cluster(rng, 5, 400.0)
    workload = generate_workload(3, 20, rng=rng, density=0.5)
    releases = poisson_releases(workload, 0.5, rng=rng)
    sim = IncrementalSim(cluster, workload, releases)
    committed: list[list[tuple[float, float]]] = [[] for _ in range(cluster.n)]
    previous, falls = -np.inf, 0
    for app, task in _decision_order(workload, sim.releases):
        now = sim.dependencies_met_at(app, task)
        falls += now < previous
        previous = now
        for i in range(cluster.n):
            expected = sum(req for fin, req in committed[i] if fin > now)
            assert repr(sim.pending_cycles(i, now)) == repr(expected)
        node = int(rng.integers(cluster.n))
        out = sim.commit(app, task, node)
        committed[node].append((out.finish_s, task.compute_req))
    assert falls > 0


def _encode_state_reference(cluster, sim, app, task):
    """encode_state as it was: every node through pending_cycles and its own
    memory arithmetic, with no cached features."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_encode_state_equals_the_per_node_loop_at_every_decision(n):
    seen = set()
    for seed in range(6):
        rng = np.random.default_rng([n, seed])
        cluster = _pinned_cluster(rng, n, float(rng.choice([30.0, 400.0])))
        workload = generate_workload(int(rng.integers(1, 4)), int(rng.integers(2, 25)),
                                     rng=rng, density=float(rng.uniform(0.0, 1.0)),
                                     compute_range=(100.0, 3000.0))
        workload = [AppDag(dag.id, tuple(
            replace(t, deadline=float(rng.uniform(0.5, 5.0))) if rng.random() < 0.3 else t
            for t in dag.tasks)) for dag in workload]
        releases = poisson_releases(workload, 2.0, rng=rng) if seed % 3 else None
        spec = RewardSpec(baseline_rt=1.0, baseline_ec=100.0)
        sim = IncrementalSim(cluster, workload, releases)
        previous = -np.inf
        for app, task in _decision_order(workload, sim.releases):
            got = encode_state(cluster, sim, app, task)
            assert got.tobytes() == _encode_state_reference(cluster, sim, app, task).tobytes()
            now = sim.dependencies_met_at(app, task)
            seen.add("now falls" if now < previous else "now holds")
            previous = now
            caps, mems, loads = got[0:3 * n:3], got[1:3 * n:3], got[2:3 * n:3]
            seen.update(("busy node" if load > 0 else "idle node") for load in loads)
            if (caps == 0.0).any():
                seen.add("clipped capacity")
            if (mems == 0.0).any():
                seen.add("clipped memory")
            if task.deadline is not None:
                seen.add("deadline")
            if rng.random() < 0.5:  # greedy: commit the entry peek priced
                sweep = sim.peek(app, task)
                sim.commit(app, task, int(np.argmin(_incremental_cost(sweep, spec))), sweep)
            else:
                sim.commit(app, task, int(rng.integers(n)))
        seen.add("releases" if releases else "no releases")
    assert {"now falls", "busy node", "idle node", "clipped capacity", "clipped memory",
            "deadline", "releases", "no releases"} <= seen


def test_encode_state_returns_a_fresh_array_at_every_call():
    cluster = uniform_cluster(3)
    workload = generate_workload(2, 8, rng=5)
    sim = IncrementalSim(cluster, workload)
    busy = False
    for k, (app, task) in enumerate(_decision_order(workload, sim.releases)):
        first = encode_state(cluster, sim, app, task)
        expected = first.tobytes()
        first[:] = -1.0  # run_episode keeps its states; a caller may write into one
        second = encode_state(cluster, sim, app, task)
        assert second.tobytes() == expected
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, sim._row)
        assert not np.shares_memory(second, sim._row)
        busy |= bool((second[2:9:3] > 0).any())
        sim.commit(app, task, k % cluster.n)
    assert busy


def test_replay_keeps_the_state_row_memory_equal_to_committed_mem(monkeypatch):
    """simulate_workload writes committed_mem before each commit; the kept
    row's spare-memory entries must still follow it."""
    made = []

    class Recording(IncrementalSim):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(sim_module, "IncrementalSim", Recording)
    rng = np.random.default_rng(7)
    cluster = uniform_cluster(3, mem_avail=200.0)
    workload = generate_workload(3, 12, rng=rng, density=0.3)
    choices = {dag.id: {t.id: int(rng.integers(3)) for t in dag.tasks} for dag in workload}
    simulate_workload(cluster, workload, choices, poisson_releases(workload, 2.0, rng=rng))
    (sim,) = made
    mems = [float(sim._row[3 * i + 1]) for i in range(cluster.n)]
    assert mems == [sim._spare_mem(i) for i in range(cluster.n)]
    assert all(0.0 < m < 1.0 for m in mems)


def test_step_outcome_keeps_its_repr_and_compares_by_value():
    out = StepOutcome(1, 0.5, 2.0, 3.0, 1.5, True)
    assert repr(out) == ("StepOutcome(node=1, start_s=0.5, finish_s=2.0, "
                         "energy_j=3.0, rt_s=1.5, success=True)")
    assert out == StepOutcome(1, 0.5, 2.0, 3.0, 1.5, True)
    assert out != StepOutcome(1, 0.5, 2.0, 3.0, 1.5, False)


def test_brute_force_bound_on_small_workload():
    # enumerate all mappings: greedy and round robin can't beat the optimum,
    # and greedy should land within the enumerated range
    cluster = uniform_cluster(3, compute_cap=800.0, mem_avail=300.0)
    workload = generate_workload(1, 4, rng=21, density=0.6)
    spec = make_reward_spec(cluster, workload)
    task_ids = [t.id for t in workload[0].tasks]
    best = np.inf
    for mapping in itertools.product(range(3), repeat=4):
        seq = list(mapping)
        res = run_episode(cluster, workload,
                          lambda s, it=iter(seq): next(it), spec)
        best = min(best, res.total_wc)
    greedy = baseline_greedy(cluster, workload, spec)
    rr = baseline_round_robin(cluster, workload, spec)
    assert greedy.total_wc >= best - 1e-9
    assert rr.total_wc >= best - 1e-9
    assert greedy.total_wc <= rr.total_wc + 1e-9


def longest_chain_seconds(dag: AppDag, cap: float) -> float:
    # unloaded critical path: longest cumulative compute along any path
    memo: dict[int, float] = {}
    def chain(tid: int) -> float:
        if tid not in memo:
            t = dag.task(tid)
            memo[tid] = t.compute_req + max(
                (chain(p) for p in t.predecessors), default=0.0)
        return memo[tid]
    return max(chain(t.id) for t in dag.tasks) / cap


def test_makespan_never_beats_unloaded_critical_path():
    cluster = uniform_cluster(3, compute_cap=1200.0)
    fastest = max(nd.compute_cap for nd in cluster.nodes)
    for seed in range(6):
        workload = generate_workload(2, 6, rng=seed, density=0.5)
        rng = np.random.default_rng(seed)
        res = run_episode(cluster, workload, lambda s: int(rng.integers(3)))
        for dag, cfg in zip(workload, res.configs):
            bound = longest_chain_seconds(dag, fastest)
            assert cfg.makespan - cfg.release_s >= bound - 1e-9


def test_random_schedules_pass_internal_checks():
    # causality and node exclusivity hold under arbitrary mappings
    for seed in range(8):
        cluster = uniform_cluster(3, latency_s=0.02, bandwidth_mbps=50.0)
        workload = generate_workload(2, 7, rng=seed, density=0.4)
        rng = np.random.default_rng(seed + 100)
        choices = {dag.id: {t.id: int(rng.integers(3)) for t in dag.tasks}
                   for dag in workload}
        configs = simulate_workload(cluster, workload, choices)
        check_schedule(cluster, workload, configs)
        total = sum(r.energy_j for c in configs for r in c.entries.values())
        byhand = sum(
            (t.compute_req / cluster.nodes[configs[d].entries[t.id].node].compute_cap)
            * cluster.nodes[configs[d].entries[t.id].node].power_draw
            for d, dag in enumerate(workload) for t in dag.tasks)
        assert total == pytest.approx(byhand, rel=1e-12)


# --- offline replay against the event loop it replaced -----------------------


def _event_loop_reference(cluster, dags, choices, releases=None):
    """The discrete-event loop `simulate_workload` used to run: per-node
    waiting heaps in ready order, events merged within 1e-9, memory flags
    from decision order. Nodes are indexed as given, without checks."""
    rel = _release_times(dags, releases)
    mem = [0.0] * cluster.n
    mem_ok = {}
    for dag, task in _decision_order(dags, rel):
        node = choices[dag.id][task.id]
        footprint = task.input_size + task.output_size
        mem_ok[dag.id, task.id] = mem[node] + footprint <= cluster.nodes[node].mem_avail + _EPS
        mem[node] += footprint
    dag_by_id = {dag.id: dag for dag in dags}
    indeg = {(d.id, t.id): len(t.predecessors) for d in dags for t in d.tasks}
    runs = {d.id: {} for d in dags}
    waiting = [[] for _ in range(cluster.n)]
    node_free = [0.0] * cluster.n
    running, times = [], []

    def mark_ready(dag, task):
        node = choices[dag.id][task.id]
        ready, _ = _data_ready(cluster, dag, task, node, runs[dag.id], rel[dag.id])
        heapq.heappush(waiting[node], (ready, dag.id, task.id))
        heapq.heappush(times, ready)

    for dag in dags:
        for task in dag.tasks:
            if not task.predecessors:
                mark_ready(dag, task)
    done, total = 0, sum(len(d.tasks) for d in dags)
    while done < total:
        now = heapq.heappop(times)
        while times and times[0] <= now + _EPS:
            heapq.heappop(times)
        while running and running[0][0] <= now + _EPS:
            _, app_id, task_id = heapq.heappop(running)
            done += 1
            dag = dag_by_id[app_id]
            for s in dag.successors()[task_id]:
                indeg[app_id, s] -= 1
                if indeg[app_id, s] == 0:
                    mark_ready(dag, dag.task(s))
        for node in range(cluster.n):
            while node_free[node] <= now + _EPS and waiting[node] \
                    and waiting[node][0][0] <= now + _EPS:
                ready, app_id, task_id = heapq.heappop(waiting[node])
                task = dag_by_id[app_id].task(task_id)
                start = max(node_free[node], ready)
                nd = cluster.nodes[node]
                finish, energy, in_time = _run_on(nd.compute_cap, nd.power_draw, task, start)
                runs[app_id][task_id] = TaskRun(node, start, finish, energy,
                                                mem_ok[app_id, task_id] and in_time)
                node_free[node] = finish
                heapq.heappush(running, (finish, app_id, task_id))
                heapq.heappush(times, finish)
    return [ScheduleConfig(d.id, dict(runs[d.id]), rel[d.id]) for d in dags]


def _tie_heavy_case(rng: np.random.Generator):
    """A small cluster and workload on round numbers, so that ready times,
    finishes and node choices tie often; compute stays positive."""
    n = int(rng.integers(1, 5))
    nodes = tuple(Node(i, float(rng.choice([500.0, 1000.0, 2000.0])),
                       float(rng.choice([8.0, 20.0, 1024.0])),
                       float(rng.choice([10.0, 50.0]))) for i in range(n))
    endpoints = list(range(n)) + [USER]
    links = {(s, d): LinkSpec(float(rng.choice([0.0, 0.01, 0.5])),
                              float(rng.choice([10.0, 100.0])))
             for s in endpoints for d in endpoints if s != d}
    cluster = ClusterSpec(nodes, links)
    workload = generate_workload(int(rng.integers(1, 4)), int(rng.integers(1, 7)),
                                 rng=rng, density=float(rng.choice([0.0, 0.5, 1.0])))
    workload = [AppDag(dag.id, tuple(
        replace(t, compute_req=float(rng.choice([100.0, 500.0, 1000.0])),
                input_size=float(rng.choice([0.0, 1.0, 4.0])),
                output_size=float(rng.choice([0.0, 1.0, 4.0])),
                deadline=float(rng.choice([0.5, 2.0])) if rng.random() < 0.3 else None)
        for t in dag.tasks)) for dag in workload]
    releases = ({dag.id: float(rng.choice([0.0, 0.5, 1.0])) for dag in workload}
                if rng.random() < 0.5 else None)
    choices = {dag.id: {t.id: int(rng.integers(n)) for t in dag.tasks} for dag in workload}
    return cluster, workload, choices, releases


def test_replay_runs_equal_the_event_loop_it_replaced():
    rng = np.random.default_rng(1212)
    seen = {"late": 0, "overflow": 0, "released": 0, "tied starts": 0}
    for _ in range(600):
        cluster, workload, choices, releases = _tie_heavy_case(rng)
        new = simulate_workload(cluster, workload, choices, releases)
        old = _event_loop_reference(cluster, workload, choices, releases)
        assert [c.entries for c in new] == [c.entries for c in old]
        assert [c.release_s for c in new] == [c.release_s for c in old]
        for cfg in new:  # each app lists its runs by (start, node)
            keys = [(r.start_s, r.node) for r in cfg.entries.values()]
            assert keys == sorted(keys)
        runs = [(dag.task(tid), r) for dag, c in zip(workload, new)
                for tid, r in c.entries.items()]
        late = [t.deadline is not None and r.finish_s > t.deadline + _EPS for t, r in runs]
        starts = [r.start_s for _, r in runs]
        seen["late"] += any(late)
        seen["overflow"] += any(not r.success and not miss for (_, r), miss in zip(runs, late))
        seen["released"] += releases is not None
        seen["tied starts"] += len(set(starts)) < len(starts)
    # the cases reach memory and deadline failures, releases and ties
    assert min(seen.values()) >= 50, seen


def test_zero_duration_task_readies_its_successor_under_the_tie_rule():
    # app 0: task 0 takes no time and readies task 1 at 0.0, when app 1's
    # task 0 is ready too; the tie goes to the lower app id
    cluster = uniform_cluster(1, latency_s=0.0)
    app0 = AppDag(0, (Task(0, 0.0, 0.0, 0.0), Task(1, 1000.0, 0.0, 0.0, predecessors=(0,))))
    app1 = AppDag(1, (Task(0, 1000.0, 0.0, 0.0),))
    cfg0, cfg1 = simulate_workload(cluster, [app0, app1], {0: {0: 0, 1: 0}, 1: {0: 0}})
    assert (cfg0.entries[1].start_s, cfg1.entries[0].start_s) == (0.0, 1.0)


@pytest.mark.parametrize("choice", [True, 1.5, 7, -1, "missing"])
def test_replay_rejects_an_invalid_choice_naming_the_task(choice):
    cluster = uniform_cluster(2)
    workload = generate_workload(2, 3, rng=0)
    choices = {dag.id: {t.id: 0 for t in dag.tasks} for dag in workload}
    choices[1][2] = choice
    if choice == "missing":
        del choices[1][2]
    with pytest.raises(ValueError, match="app 1 task 2: .*(not an integer|invalid action)"):
        simulate_workload(cluster, workload, choices)


def test_generate_workload_structure():
    w1 = generate_workload(2, 7, rng=13, density=0.5, layers=3)
    w2 = generate_workload(2, 7, rng=13, density=0.5, layers=3)
    assert w1 == w2
    for dag in w1:
        ids = [t.id for t in dag.tasks]
        assert ids == list(range(7))
        for t in dag.tasks:
            assert all(p < t.id for p in t.predecessors)
            assert 100.0 <= t.compute_req <= 500.0
            assert 1.0 <= t.input_size <= 10.0


def test_generate_workload_density_zero_and_edges():
    flat = generate_workload(1, 5, rng=2, density=0.0)
    assert all(t.predecessors == () for t in flat[0].tasks)
    tiny = generate_workload(1, 1, rng=0)
    assert len(tiny[0].tasks) == 1
    dense = generate_workload(1, 6, rng=4, density=1.0, layers=3)
    non_source = [t for t in dense[0].tasks if t.id >= 2]
    assert all(t.predecessors for t in non_source)
    with pytest.raises(ValueError):
        generate_workload(0, 3)
    with pytest.raises(ValueError):
        generate_workload(1, 3, density=1.5)


def test_poisson_releases():
    workload = generate_workload(4, 2, rng=0)
    rel = poisson_releases(workload, rate=0.5, rng=8)
    times = [rel[dag.id] for dag in workload]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert rel == poisson_releases(workload, rate=0.5, rng=8)
    with pytest.raises(ValueError):
        poisson_releases(workload, rate=0.0)


# --- outputs pinned bit for bit ---------------------------------------------
# sha256 of repr() of every schedule, reward and offline replay, then of the
# raw bytes of every transition, on four generated cases. repr() of a float
# round-trips exactly, so any change in the timing rule, the task physics or
# the decision order changes a digest.

def _pinned_cluster(rng: np.random.Generator, n: int, mem: float) -> ClusterSpec:
    nodes = tuple(Node(i, float(rng.uniform(500.0, 2000.0)),
                       float(rng.uniform(0.5, 1.5)) * mem,
                       float(rng.uniform(20.0, 80.0))) for i in range(n))
    endpoints = list(range(n)) + [USER]
    links = {(s, d): LinkSpec(float(rng.uniform(0.001, 0.05)),
                              float(rng.uniform(20.0, 200.0)))
             for s in endpoints for d in endpoints if s != d}
    return ClusterSpec(nodes, links)


def _pinned_case(seed: int, n: int, apps: int, tasks: int, density: float,
                 mem: float, rate: float | None, deadlines: bool,
                 shuffle: bool) -> str:
    rng = np.random.default_rng(seed)
    cluster = _pinned_cluster(rng, n, mem)
    workload = generate_workload(apps, tasks, rng=rng, density=density)
    if deadlines:
        workload = [AppDag(dag.id, tuple(
            replace(t, deadline=float(rng.uniform(0.2, 2.0))) if t.id % 2 else t
            for t in dag.tasks)) for dag in workload]
    if shuffle:
        workload = [AppDag(dag.id, tuple(dag.tasks[i] for i in
                                         rng.permutation(len(dag.tasks))))
                    for dag in workload]
    releases = poisson_releases(workload, rate, rng=rng) if rate else None
    weights = rng.standard_normal((n, 3 * n + 4))

    def policy(state: np.ndarray) -> int:
        return int(np.argmax(weights @ state))

    spec = make_reward_spec(cluster, workload, releases=releases)
    greedy = baseline_greedy(cluster, workload, spec, releases)
    rr = baseline_round_robin(cluster, workload, spec, releases)
    episode = run_episode(cluster, workload, policy, spec, releases)
    unscaled = run_episode(cluster, workload, policy, None, releases)
    choices = {dag.id: {t.id: int(rng.integers(n)) for t in dag.tasks}
               for dag in workload}
    offline = simulate_workload(cluster, workload, choices, releases)
    results = tuple(replace(r, steps=None) for r in (greedy, rr, episode, unscaled))
    digest = hashlib.sha256(repr((spec, *results, offline)).encode())
    for t in (episode.steps, unscaled.steps):
        digest.update(b"".join(a.tobytes() for a in (t.states, t.next_states, t.actions,
                                                      t.rewards, t.done)))
    return digest.hexdigest()


@pytest.mark.parametrize("case, digest", [
    (dict(seed=0, n=3, apps=2, tasks=8, density=0.0, mem=1024.0, rate=None,
          deadlines=False, shuffle=False),
     "c7561a460a186ac3ab0aedea0259ac701b6d540f41ba8e086584b57d4e1c9a61"),
    (dict(seed=1, n=4, apps=3, tasks=12, density=0.5, mem=120.0, rate=2.0,
          deadlines=True, shuffle=False),
     "903d4c0a73ecb61294c7dfcf0c963945a6f2003a0860f94a82a312c83e4f4946"),
    (dict(seed=2, n=5, apps=2, tasks=10, density=1.0, mem=60.0, rate=0.5,
          deadlines=False, shuffle=True),
     "0ddd85ae36dce2bb88cfae5838a1dd75499193c68a8cf883c74af11df5066554"),
    (dict(seed=3, n=4, apps=3, tasks=9, density=0.5, mem=200.0, rate=1.0,
          deadlines=True, shuffle=True),
     "f7bc45619f0f2adbf1721eb377f5c0766e570787e2151ae76e43bac2fb04ed9b"),
])
def test_simulator_outputs_pinned(case, digest):
    assert _pinned_case(**case) == digest


def test_unscheduled_predecessor_is_rejected():
    cluster = uniform_cluster(2)
    dag = chain_dag([100.0, 200.0, 300.0])
    sim = IncrementalSim(cluster, [dag])
    sim.commit(dag, dag.task(0), 0)
    before = (list(sim.node_free), list(sim.committed_mem))
    for call in (lambda: sim.peek(dag, dag.task(2)),
                 lambda: sim.commit(dag, dag.task(2), 1),
                 lambda: encode_state(cluster, sim, dag, dag.task(2))):
        with pytest.raises(ValueError, match=r"predecessors \[1\] not scheduled"):
            call()
    assert set(sim.runs[dag.id]) == {0}
    assert (sim.node_free, sim.committed_mem) == before
    with pytest.raises(ValueError, match="already scheduled"):
        sim.commit(dag, dag.task(0), 1)



@pytest.mark.parametrize("release", [float("nan"), float("inf")])
def test_non_finite_release_is_rejected(release):
    cluster = uniform_cluster(2)
    workload = generate_workload(2, 4, rng=0)
    releases = {0: 0.5, 1: release}
    with pytest.raises(ValueError, match="releases: 1 must be finite"):
        run_episode(cluster, workload, lambda s: 0, releases=releases)
    choices = {dag.id: {t.id: 0 for t in dag.tasks} for dag in workload}
    with pytest.raises(ValueError, match="releases: 1 must be finite"):
        simulate_workload(cluster, workload, choices, releases)


def test_repeated_app_id_or_release_of_unknown_app_is_rejected():
    # both fail before any task is committed, in every entry point
    cluster = uniform_cluster(2)
    workload = generate_workload(1, 3, rng=0)
    unknown = {0: 0.5, 99: 1.0}
    with pytest.raises(ValueError, match="release for app 99, which the workload"):
        IncrementalSim(cluster, workload, unknown)
    with pytest.raises(ValueError, match="release for app 99, which the workload"):
        run_episode(cluster, workload, lambda s: 0, releases=unknown)
    with pytest.raises(ValueError, match="app id 0 appears twice"):
        run_episode(cluster, workload + workload, lambda s: 0)
    choices = {0: {t.id: 0 for t in workload[0].tasks}}
    with pytest.raises(ValueError, match="app id 0 appears twice"):
        simulate_workload(cluster, workload + workload, choices)
    assert _release_times(workload, {0: 0.5}) == {0: 0.5}
