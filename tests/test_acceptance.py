"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [criterion NN] PASS/FAIL line (visible with -s or
on failure) and asserts the same condition, so a plain pytest run doubles as
the acceptance report.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

from reinfog import cli
from reinfog.distributed import (
    Learner,
    SyncConfig,
    centralized_mode,
    worker_loop,
)
from reinfog.dqn import DqnConfig
from reinfog.explore import OuNoiseState, eps_greedy, ou_step
from reinfog.model import (
    AppDag,
    Node,
    Task,
    critical_path,
    energy_consumption,
    ghg_emissions,
    response_time,
    weighted_cost,
)
from reinfog.network import NetworkParams, dqn_loss_grads
from reinfog.placement import (
    InfeasibleInstance,
    PlacementParams,
    brute_force_optimal,
    fa_run,
    ga_run,
    madcp_run,
    pso_run,
    random_instance,
)
from reinfog.protocol import (
    ExperienceBatch,
    PolicySync,
    Shutdown,
    WorkerHello,
    decode_frame,
    encode_frame,
)
from reinfog.replay import ReservoirReplayBuffer, Transitions
from reinfog.sim import (
    ClusterSpec,
    LinkSpec,
    USER,
    baseline_greedy,
    generate_workload,
    make_reward_spec,
    run_episode,
    simulate_schedule,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


# -- 1: small-instance optimality ---------------------------------------------


def test_criterion_01_matches_brute_force_on_small_instances():
    hits = 0
    count = 0
    i = 0
    max_run = 0.0
    while count < 100:
        assert i < 200, "instance stream ran dry"
        m = 3 + i % 3
        n = 2 + (i // 3) % 3
        inst = random_instance(m, n, rng=np.random.default_rng([1000, i]))
        i += 1
        try:
            _, opt_f = brute_force_optimal(inst)
        except InfeasibleInstance:
            continue
        count += 1
        t0 = time.perf_counter()
        res = madcp_run(inst, rng=np.random.default_rng([2000, i]))
        max_run = max(max_run, time.perf_counter() - t0)
        if res.feasible and abs(res.objective_value - opt_f) <= 1e-9 * max(1.0, abs(opt_f)):
            hits += 1
    ok = hits >= 95 and max_run <= 2.0
    assert report(1, ok, f"{hits}/100 optimal, slowest run {max_run:.2f}s (limit 2s)")


# -- 2: hybrid dominates its components ---------------------------------------


def test_criterion_02_hybrid_beats_single_phase_searches():
    t_start = time.perf_counter()
    fits: dict[str, list[float]] = {"madcp": [], "ga": [], "fa": [], "pso": []}
    for i in range(30):
        inst = random_instance(20, 10, rng=np.random.default_rng([3000, i]))
        for k, (name, fn) in enumerate((("madcp", madcp_run), ("ga", ga_run),
                                        ("fa", fa_run), ("pso", pso_run))):
            fits[name].append(fn(inst, rng=np.random.default_rng([4000, i, k])).fitness)
    wall = time.perf_counter() - t_start

    m = np.array(fits["madcp"])
    ok = wall <= 600.0
    parts = []
    for opp in ("ga", "fa", "pso"):
        o = np.array(fits[opp])
        win_rate = float(np.mean(m >= o - 1e-12))
        ok = ok and m.mean() >= o.mean() and win_rate >= 0.70
        parts.append(f"vs {opp}: mean {m.mean():.1f}/{o.mean():.1f} "
                     f"win {win_rate:.0%}")
    assert report(2, ok, "; ".join(parts) + f"; wall {wall:.0f}s")


# -- 3: monotone best-fitness series -------------------------------------------


def test_criterion_03_no_best_fitness_series_ever_decreases():
    master = np.random.default_rng(77)
    runners = (madcp_run, ga_run, fa_run, pso_run)
    params = PlacementParams(population_size=20, generations=15)
    violations = 0
    for _ in range(1000):
        fn = runners[int(master.integers(4))]
        m = int(2 + master.integers(7))
        n = int(2 + master.integers(4))
        inst = random_instance(m, n, rng=np.random.default_rng(int(master.integers(2 ** 32))))
        res = fn(inst, params, rng=np.random.default_rng(int(master.integers(2 ** 32))))
        series = res.trace.best_fitness_series()
        if any(b < a for a, b in zip(series, series[1:])):
            violations += 1
    assert report(3, violations == 0,
                  f"{violations} decreasing series in 1000 randomized runs")


# -- 4: population-doubling cost ------------------------------------------------


def test_criterion_04_population_doubling_time_ratio():
    inst = random_instance(30, 10, rng=np.random.default_rng([4242, 0]))
    medians = {}
    for pop in (100, 200):
        params = PlacementParams(population_size=pop, generations=25)
        res = madcp_run(inst, params, rng=np.random.default_rng([4242, pop]))
        medians[pop] = statistics.median(res.trace.generation_times_ms())
    ratio = medians[200] / medians[100]
    ok = 2.5 <= ratio <= 6.0
    assert report(4, ok, f"median per-generation time ratio P100->P200 = {ratio:.2f} "
                         f"(band [2.5, 6])")


# -- 5: hand-traced schedule ----------------------------------------------------


def test_criterion_05_diamond_dag_reproduces_hand_trace():
    nodes = (Node(0, 1000.0, 1024.0, 30.0), Node(1, 500.0, 1024.0, 90.0))
    endpoints = [0, 1, USER]
    links = {(s, d): LinkSpec(0.05, 20.0)
             for s in endpoints for d in endpoints if s != d}
    cluster = ClusterSpec(nodes, links)
    dag = AppDag(0, (
        Task(0, 500.0, 2.0, 4.0),
        Task(1, 1000.0, 0.0, 1.0, predecessors=(0,)),
        Task(2, 600.0, 0.0, 3.0, predecessors=(0,)),
        Task(3, 800.0, 0.0, 5.0, predecessors=(1, 2)),
    ))
    cfg = simulate_schedule(cluster, dag, {0: 0, 1: 0, 2: 1, 3: 0})

    expected = {0: (0.15, 0.65), 1: (0.65, 1.65), 2: (0.9, 2.1), 3: (2.3, 3.1)}
    ok = all(abs(cfg.entries[t].start_s - s) < 1e-12
             and abs(cfg.entries[t].finish_s - f) < 1e-12
             for t, (s, f) in expected.items())
    rt = response_time([dag], [cfg])
    ec = energy_consumption([cfg])
    ok = ok and critical_path(dag, cfg) == [0, 2, 3]
    ok = ok and abs(rt - 3.1) < 1e-12 and abs(ec - 177.0) < 1e-12
    wc_self = weighted_cost(rt, ec, rt, ec)
    ok = ok and wc_self == 1.0
    assert report(5, ok, f"rt {rt}, energy {ec}, self-normalized cost {wc_self}")


# -- 6: learned scheduler beats random, approaches greedy -----------------------


def _three_node_cluster() -> ClusterSpec:
    nodes = (Node(0, 2000.0, 2048.0, 20.0),
             Node(1, 1000.0, 1024.0, 60.0),
             Node(2, 400.0, 512.0, 140.0))
    ids = [0, 1, 2, USER]
    links = {(a, b): LinkSpec(0.01, 100.0) for a in ids for b in ids if a != b}
    return ClusterSpec(nodes, links)


def test_criterion_06_training_beats_random_within_episode_budget():
    cluster = _three_node_cluster()
    workload = generate_workload(20, 5, rng=np.random.default_rng([42, 101]),
                                 density=1.0)
    releases = {dag.id: 4.0 * i for i, dag in enumerate(workload)}
    spec = make_reward_spec(cluster, workload, releases=releases)

    greedy_wc = baseline_greedy(cluster, workload, spec, releases).total_wc
    rng = np.random.default_rng(7)
    random_wc = float(np.mean([
        run_episode(cluster, workload, lambda s: int(rng.integers(3)),
                    spec, releases).total_wc
        for _ in range(30)
    ]))

    cfg = DqnConfig(hidden_sizes=(64, 64, 32), learning_rate=0.01,
                    discount=0.99, eps_start=1.0, eps_end=0.005,
                    eps_decay_steps=30000, buffer_capacity=20000,
                    batch_size=64, target_sync_interval=50)
    t0 = time.perf_counter()
    result = centralized_mode(cluster, workload, 500, dqn_cfg=cfg,
                              sync=SyncConfig(10, 8), reward_spec=spec,
                              releases=releases, seed=42)
    wall = time.perf_counter() - t0
    last50 = float(np.mean([r.total_wc for r in result.trace[-50:]]))

    ok = (len(result.trace) == 500
          and last50 <= 0.8 * random_wc
          and last50 <= 1.1 * greedy_wc
          and wall <= 300.0)
    assert report(6, ok, f"last-50 wc {last50:.4f} vs random {random_wc:.4f} "
                         f"(need <= {0.8 * random_wc:.4f}) and greedy "
                         f"{greedy_wc:.4f} (need <= {1.1 * greedy_wc:.4f}), "
                         f"{wall:.0f}s")


# -- 7: analytic gradients match finite differences ------------------------------


def test_criterion_07_backprop_matches_finite_differences():
    rng = np.random.default_rng(55)
    h = 1e-6
    worst = 0.0
    for probe in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(3, 7))] + \
                [int(rng.integers(3, 9)) for _ in range(depth)] + \
                [int(rng.integers(2, 5))]
        act = "relu" if probe % 2 == 0 else "tanh"
        params = NetworkParams.glorot(sizes, act, rng)
        states = rng.normal(size=(5, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=5)
        targets = rng.normal(size=5)

        _, grads_w, grads_b = dqn_loss_grads(params, states, actions, targets)
        layer = int(rng.integers(len(params.weights)))
        if rng.random() < 0.8:
            arr, g = params.weights[layer], grads_w[layer]
        else:
            arr, g = params.biases[layer], grads_b[layer]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)

        orig = arr[idx]
        arr[idx] = orig + h
        lo_plus, _, _ = dqn_loss_grads(params, states, actions, targets)
        arr[idx] = orig - h
        lo_minus, _, _ = dqn_loss_grads(params, states, actions, targets)
        arr[idx] = orig
        fd = (lo_plus - lo_minus) / (2 * h)
        rel = abs(g[idx] - fd) / max(abs(fd), abs(g[idx]), 1e-4)
        worst = max(worst, rel)
    ok = worst <= 1e-4
    assert report(7, ok, f"worst relative error {worst:.2e} over 100 probes")


# -- 8: statistical behavior of sampling utilities -------------------------------


def test_criterion_08_sampling_statistics_within_three_sigma():
    # reservoir: every decile of the stream retained at rate k/N
    k, n_stream, trials = 100, 10_000, 1000
    stream = Transitions(np.zeros((n_stream, 1)), np.zeros(n_stream, dtype=np.int64),
                         np.arange(n_stream, dtype=float), np.zeros((n_stream, 1)),
                         np.zeros(n_stream, dtype=bool))
    rng = np.random.default_rng(808)
    counts = np.zeros(n_stream)
    for _ in range(trials):
        buf = ReservoirReplayBuffer(k)
        buf.push(stream, rng)
        for reward in buf._rows.rewards:
            counts[int(reward)] += 1
    decile = counts.reshape(10, n_stream // 10).sum(axis=1) / (trials * n_stream / 10)
    p = k / n_stream
    sigma_dec = np.sqrt(p * (1 - p) / (trials * n_stream / 10))
    res_dev = float(np.max(np.abs(decile - p)))
    res_ok = res_dev <= 3 * sigma_dec

    # epsilon-greedy: observed non-greedy rate matches eps * (k-1)/k
    eps, draws = 0.3, 10_000
    q = np.array([0.0, 1.0, 0.0])
    grng = np.random.default_rng(909)
    nongreedy = sum(eps_greedy(q, eps, grng) != 1 for _ in range(draws))
    p_ng = eps * 2 / 3
    sigma_ng = np.sqrt(p_ng * (1 - p_ng) / draws)
    eps_dev = abs(nongreedy / draws - p_ng)
    eps_ok = eps_dev <= 3 * sigma_ng

    # OU noise: long-run mean reverts to mu; SE corrected for AR(1) correlation
    mu, theta, sigma, dt, steps = 0.5, 0.15, 0.3, 0.01, 100_000
    state = OuNoiseState.initial(1, mu=mu, theta=theta, sigma=sigma, dt=dt)
    orng = np.random.default_rng(707)
    total = 0.0
    for _ in range(steps):
        state, x = ou_step(state, orng)
        total += float(x[0])
    mean = total / steps
    phi = 1 - theta * dt
    var_st = sigma * sigma * dt / (1 - phi * phi)
    n_eff = steps * (1 - phi) / (1 + phi)
    se = np.sqrt(var_st / n_eff)
    ou_dev = abs(mean - mu)
    ou_ok = ou_dev <= 3 * se

    ok = res_ok and eps_ok and ou_ok
    assert report(8, ok, f"reservoir dev {res_dev:.2e} (3s {3 * sigma_dec:.2e}); "
                         f"eps-greedy dev {eps_dev:.4f} (3s {3 * sigma_ng:.4f}); "
                         f"OU dev {ou_dev:.3f} (3s {3 * se:.3f})")


# -- 9: wire protocol and distributed integrity ----------------------------------


def _random_message(rng: np.random.Generator):
    kind = rng.random()
    if kind < 0.3:
        return WorkerHello(f"w{int(rng.integers(1e6))}")
    if kind < 0.7:
        k, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        exps = Transitions(rng.normal(size=(k, dim)), rng.integers(4, size=k),
                           rng.normal(size=k), rng.normal(size=(k, dim)),
                           rng.random(k) < 0.2)
        return ExperienceBatch(f"w{int(rng.integers(100))}",
                               int(rng.integers(1e9)), exps)
    if kind < 0.9:
        return Shutdown(f"reason {int(rng.integers(1e4))} ✓")
    return PolicySync(int(rng.integers(1e6)),
                      NetworkParams.glorot((2, 3, 2), "tanh", rng))


SMALL_CLUSTER = cli._default_cluster()
SMALL_WORKLOAD = generate_workload(2, 4, rng=np.random.default_rng([9, 101]),
                                   density=0.5)
SMALL_CFG = DqnConfig(hidden_sizes=(8,), batch_size=8, buffer_capacity=512,
                      eps_decay_steps=50, target_sync_interval=5)
SMALL_SYNC = SyncConfig(sync_interval=3, batch_flush=4)


def test_criterion_09_protocol_bijection_and_no_experience_loss():
    rng = np.random.default_rng(999)
    for _ in range(10_000):
        msg = _random_message(rng)
        frame = encode_frame(msg)
        decoded, consumed = decode_frame(frame)
        assert consumed == len(frame)
        assert encode_frame(decoded) == frame
    bijection_ok = True

    state_dim = 3 * SMALL_CLUSTER.n + 4
    learner = Learner(state_dim, SMALL_CLUSTER.n, cfg=SMALL_CFG,
                      sync=SMALL_SYNC, seed=3, expected_workers=3).start()
    spec = make_reward_spec(SMALL_CLUSTER, SMALL_WORKLOAD)
    import threading
    reports = {}

    def run(i: int) -> None:
        reports[i] = worker_loop(learner.address, f"w{i}", SMALL_CLUSTER,
                                 SMALL_WORKLOAD, episodes=4, sync=SMALL_SYNC,
                                 dqn_cfg=SMALL_CFG, reward_spec=spec,
                                 rng=np.random.default_rng([31, i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert learner.join(timeout=30.0)

    sent = sum(r.experiences_sent for r in reports.values())
    received = learner.received_experiences
    conserve_ok = received == sent == 3 * 4 * len(
        [t for dag in SMALL_WORKLOAD for t in dag.tasks])
    seq_ok = True
    for wid in ("w0", "w1", "w2"):
        seqs = [seq for w, seq, _ in learner.arrival_log if w == wid]
        seq_ok = seq_ok and seqs == list(range(1, len(seqs) + 1))
    version_ok = all(
        all(b >= a for a, b in zip(log, log[1:]))
        for r in reports.values()
        for log in (r.decision_log, r.versions_seen))

    single = Learner(state_dim, SMALL_CLUSTER.n, cfg=SMALL_CFG,
                     sync=SMALL_SYNC, seed=5, expected_workers=1).start()
    worker_loop(single.address, "solo", SMALL_CLUSTER, SMALL_WORKLOAD,
                episodes=4, sync=SMALL_SYNC, dqn_cfg=SMALL_CFG,
                reward_spec=spec, rng=np.random.default_rng(11))
    assert single.join(timeout=30.0)
    central = centralized_mode(SMALL_CLUSTER, SMALL_WORKLOAD, episodes=4,
                               dqn_cfg=SMALL_CFG, sync=SMALL_SYNC,
                               reward_spec=spec, seed=5)
    parity_ok = single.updates == central.updates

    ok = bijection_ok and conserve_ok and seq_ok and version_ok and parity_ok
    assert report(9, ok, f"10k frames bijective; {received}/{sent} experiences "
                         f"conserved over 3 workers; versions monotone; "
                         f"1-worker updates {single.updates} == centralized "
                         f"{central.updates}")


# -- 10: thirty workers, bounded run ----------------------------------------------


def test_criterion_10_thirty_workers_clean_shutdown():
    import threading
    state_dim = 3 * SMALL_CLUSTER.n + 4
    spec = make_reward_spec(SMALL_CLUSTER, SMALL_WORKLOAD)
    cfg = DqnConfig(hidden_sizes=(8,), batch_size=16, buffer_capacity=2048,
                    eps_decay_steps=200, target_sync_interval=10)
    t0 = time.perf_counter()
    learner = Learner(state_dim, SMALL_CLUSTER.n, cfg=cfg, sync=SMALL_SYNC,
                      seed=1, max_updates=100, expected_workers=30).start()
    reports = {}

    def run(i: int) -> None:
        reports[i] = worker_loop(learner.address, f"w{i:02d}", SMALL_CLUSTER,
                                 SMALL_WORKLOAD, episodes=50, sync=SMALL_SYNC,
                                 dqn_cfg=cfg, reward_spec=spec,
                                 rng=np.random.default_rng([77, i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(30)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    joined = learner.join(timeout=60.0)
    wall = time.perf_counter() - t0

    sent = sum(r.experiences_sent for r in reports.values())
    ok = (joined and len(reports) == 30 and learner.updates >= 100
          and learner.received_experiences == sent and wall <= 120.0)
    assert report(10, ok, f"30 workers, {learner.updates} updates, "
                          f"{learner.received_experiences}/{sent} experiences "
                          f"conserved, {wall:.1f}s (limit 120)")


# -- 11: emission accounting -------------------------------------------------------


def test_criterion_11_energy_mix_emissions_exact():
    grams = ghg_emissions(2.0, [(700.0, 0.5), (50.0, 0.5)])
    ok = grams == 750.0
    assert report(11, ok, f"2 kWh on a 50/50 700/50 g mix -> {grams} g")


# -- 12: reproducible command line outputs -----------------------------------------


def test_criterion_12_cli_outputs_reproducible(tmp_path, monkeypatch):
    monkeypatch.delenv("REINFOG_LEARNER_ADDR", raising=False)
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump({
            "madcp.population_size": 16, "madcp.generations": 5,
            "ga.population_size": 16, "ga.generations": 5,
            "place.m": 4, "place.n": 3,
            "train.episodes": 3, "sim.apps": 2, "sim.tasks_per_app": 3,
            "dqn.hidden_sizes": [8], "dqn.batch_size": 8,
            "dqn.buffer_capacity": 128, "dqn.eps_decay_steps": 20,
            "dqn.target_sync_interval": 4,
            "bench.populations": "16,32", "bench.generations": 4,
            "bench.m": 8, "bench.n": 4,
        }, fh)

    modes = [
        ["place", "--reps", "2", "--algorithms", "madcp,ga,random"],
        ["train"],
        ["train-dist", "--workers", "2"],
        ["simulate", "--baseline", "random"],
        ["oracle"],
        ["bench"],
    ]
    mismatches = []
    for argv in modes:
        dirs = [tmp_path / f"{argv[0]}_a", tmp_path / f"{argv[0]}_b"]
        for out in dirs:
            rc = cli.main(argv + ["--config", str(cfg_path), "--seed", "21",
                                  "--out", str(out)])
            assert rc == 0, argv
        csvs = [n for n in sorted(os.listdir(dirs[0])) if n.endswith(".csv")]
        for name in csvs:
            bodies = []
            for d in dirs:
                with open(d / name) as fh:
                    bodies.append("".join(l for l in fh
                                          if not l.startswith("#")))
            if bodies[0] != bodies[1]:
                mismatches.append(f"{argv[0]}/{name}")
        if not csvs:
            # oracle emits a single JSON document; hold it to the same bar
            blobs = [(d / "oracle.json").read_bytes() for d in dirs]
            if blobs[0] != blobs[1]:
                mismatches.append(f"{argv[0]}/oracle.json")
    ok = not mismatches
    assert report(12, ok, "CSV bodies byte-identical across repeat runs of "
                          "all six commands"
                  if ok else f"mismatches: {mismatches}")
