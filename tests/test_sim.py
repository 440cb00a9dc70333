import itertools
import json

import numpy as np
import pytest

from reinfog.model import (
    AppDag,
    Node,
    Task,
    critical_path,
    energy_consumption,
    response_time,
)
from reinfog.sim import (
    USER,
    ClusterSpec,
    IncrementalSim,
    LinkSpec,
    RewardSpec,
    StepOutcome,
    baseline_greedy,
    baseline_round_robin,
    check_schedule,
    cluster_from_json,
    cluster_to_json,
    compute_reward,
    decode_action,
    encode_state,
    generate_workload,
    load_cluster,
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


def two_node_cluster(lat=0.1, bw=10.0) -> ClusterSpec:
    nodes = (Node(0, 1000.0, 1024.0, 50.0), Node(1, 1000.0, 1024.0, 50.0))
    link = LinkSpec(lat, bw)
    endpoints = [0, 1, USER]
    links = {(s, d): link for s in endpoints for d in endpoints if s != d}
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


def test_transfer_time():
    cluster = two_node_cluster(lat=0.1, bw=10.0)
    assert cluster.transfer_time(0, 0, 50.0) == 0.0
    assert cluster.transfer_time(0, 1, 1.0) == pytest.approx(0.2)
    assert cluster.transfer_time(USER, 1, 5.0) == pytest.approx(0.6)


def test_cluster_json_round_trip(tmp_path):
    cluster = uniform_cluster(3, compute_cap=800.0, latency_s=0.02)
    doc = cluster_to_json(cluster)
    again = cluster_from_json(json.loads(json.dumps(doc)))
    assert again == cluster
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc))
    assert load_cluster(str(path)) == cluster
    with pytest.raises(ValueError, match="malformed"):
        cluster_from_json({"nodes": [{"id": 0}]})


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
    cluster = two_node_cluster()
    dag = chain_dag([1000.0, 2000.0])
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0}, origin=0)
    assert cfg.entries[0].finish_s == pytest.approx(1.0)
    assert cfg.entries[1].start_s == pytest.approx(1.0)
    assert cfg.entries[1].finish_s == pytest.approx(3.0)


def test_chain_split_across_nodes_pays_transfer():
    # fin(t0)=1, then 0.1 latency + 1MB / 10MB/s -> start 1.2
    cluster = two_node_cluster(lat=0.1, bw=10.0)
    dag = chain_dag([1000.0, 2000.0], out=1.0)
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1}, origin=0)
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
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 1, 2: 0, 3: 0}, origin=1)
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
    cluster = uniform_cluster(1)
    dag = AppDag(0, (Task(0, 2000.0, 0.0, 1.0, deadline=1.0),))
    cfg = simulate_schedule(cluster, dag, {0: 0}, origin=0)
    assert not cfg.entries[0].success
    assert not cfg.all_success


def test_memory_overflow_fails_but_still_runs():
    cluster = uniform_cluster(1, mem_avail=10.0)
    dag = AppDag(0, (Task(0, 1000.0, 4.0, 4.0), Task(1, 1000.0, 4.0, 4.0)))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0}, origin=0)
    assert cfg.entries[0].success
    assert not cfg.entries[1].success
    assert cfg.entries[1].finish_s > cfg.entries[1].start_s


def test_check_schedule_rejects_violations():
    cluster = uniform_cluster(1, latency_s=0.0)
    dag = chain_dag([1000.0, 1000.0])
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0}, origin=0)
    bad = cfg.entries[1]
    cfg.entries[1] = type(bad)(bad.node, 0.5, 1.5, bad.energy_j, True)
    with pytest.raises(ValueError, match="before its inputs|at once"):
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
    assert res.steps[0].done
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
    for step, reward in zip(a.steps, a.rewards):
        assert step.reward == reward
        assert reward <= 0.0


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
    # replay the same decisions against fresh peeks
    from reinfog.sim import _decision_order, _incremental_cost
    sim = IncrementalSim(cluster, workload)
    for app, task in _decision_order(workload, sim.releases):
        costs = [_incremental_cost(sim.peek(app, task, node), spec)
                 for node in range(cluster.n)]
        chosen = res.configs[app.id].entries[task.id].node
        assert chosen == int(np.argmin(costs))
        sim.commit(app, task, chosen)


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
