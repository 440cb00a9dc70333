"""The four workloads: inputs made from a seed, one timed round, and its checks.

Each workload does a fixed amount of work per round and repeats the same
round, with the same inputs, until the run's time is up. A round's timed
region holds only calls into reinfog; the checks in `oracle` run after it.
Every round counts the same number of operations, so a run attempts whole
rounds and its failed share cannot depend on the run length.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from reinfog import (
    ClusterSpec,
    DqnConfig,
    Learner,
    NetworkParams,
    Node,
    PlacementParams,
    SyncConfig,
    baseline_greedy,
    centralized_mode,
    generate_workload,
    madcp_run,
    make_reward_spec,
    network,
    random_instance,
    run_episode,
    worker_loop,
)
from reinfog.distributed import replay_arrivals
from reinfog.dqn import DqnAgent
from reinfog.sim import USER, LinkSpec, poisson_releases

import oracle
from oracle import CheckFailed

# the training set-up of acceptance criterion 06
TRAIN_DQN = DqnConfig(hidden_sizes=(64, 64, 32), learning_rate=0.01, discount=0.99,
                      eps_start=1.0, eps_end=0.005, eps_decay_steps=30000,
                      buffer_capacity=20000, batch_size=64, target_sync_interval=50)
TRAIN_SYNC = SyncConfig(sync_interval=10, batch_flush=8)


@dataclass
class Round:
    ops: int
    seconds: float        # wall time of the timed region
    cpu_seconds: float    # CPU time of the whole process in the timed region
    decision_ms: list[float]
    facts: dict[str, float] = field(default_factory=dict)


class DecisionClock:
    """Stamps every DqnAgent.act call, per agent, to time decisions.

    The gap between two consecutive calls of one agent inside one episode
    is one decision: the previous forward pass and action choice, the
    simulator's commit, and the next state encoding.
    """

    def __init__(self) -> None:
        self.stamps: dict[int, list[float]] = {}
        self._original = DqnAgent.__dict__["act"]
        original = self._original
        stamps = self.stamps

        def act(agent, state, rng=None):
            stamps.setdefault(id(agent), []).append(time.perf_counter())
            return original(agent, state, rng)

        DqnAgent.act = act

    def take_gaps_ms(self, per_episode: int) -> list[float]:
        gaps: list[float] = []
        for series in self.stamps.values():
            for start in range(0, len(series), per_episode):
                episode = series[start:start + per_episode]
                gaps.extend((b - a) * 1e3 for a, b in zip(episode, episode[1:]))
        self.stamps.clear()
        return gaps

    def close(self) -> None:
        DqnAgent.act = self._original


def _per_op(tracer, layer: str, ops: int) -> tuple[float, float]:
    """(microseconds per op, calls per op) of one layer over the traced rounds."""
    span = tracer.spans[layer]
    return span.seconds * 1e6 / ops, span.calls / ops


class Workload:
    name = ""
    ops_per_round = 0
    last = None  # the program's outputs in the latest round, for the self-check

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Inputs plus the program's own set-up; ends where the first op starts."""

    def verify_setup(self) -> None:
        """Checks of the set-up's outputs, run after set-up time is taken."""

    def run_round(self) -> Round:
        raise NotImplementedError

    def layer_metrics(self, tracer, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Place(Workload):
    """madcp_run, population 200, on a 30-component, 10-node instance."""

    name = "place"

    def setup(self) -> None:
        m, n, pop, gens = (6, 3, 20, 4) if self.tiny else (30, 10, 200, 30)
        self.inst = random_instance(m, n, rng=np.random.default_rng([self.seed, 0]))
        self.params = PlacementParams(population_size=pop, generations=gens)
        self.ops_per_round = gens
        self.reference = None

    def run_round(self) -> Round:
        rng = np.random.default_rng([self.seed, 1])
        t0, c0 = time.perf_counter(), time.process_time()
        result = madcp_run(self.inst, self.params, rng=rng)
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        oracle.check_placement(self.inst, self.params.penalty_lambda,
                               self.params.generations, result)
        gen_ms = result.trace.generation_times_ms()
        if len(gen_ms) != self.params.generations or not 0 < sum(gen_ms) <= seconds * 1e3:
            raise CheckFailed("generation times do not fit inside the run")
        self.last = result
        if self.reference is None:
            self.reference = result
        elif (result.assignment != self.reference.assignment
              or result.fitness != self.reference.fitness):
            raise CheckFailed("a repeat with the same seed found another placement")
        return Round(self.ops_per_round, seconds, cpu, gen_ms)

    def layer_metrics(self, tracer, rounds):
        ops = sum(r.ops for r in rounds)
        out = {}
        for layer in ("firefly_movement", "_ga_offspring", "pso_update", "fitness_many"):
            out[f"placement.{layer}.us_per_op"] = (_per_op(tracer, f"placement.{layer}", ops)[0], "us")
        out["placement.fitness_many.calls_per_op"] = (
            _per_op(tracer, "placement.fitness_many", ops)[1], "count")
        out["placement.cost_tables_built_per_op"] = (
            _per_op(tracer, "placement.cost_tables_built", ops)[1], "count")
        for layer in ("objective", "check_constraints"):
            out[f"model.{layer}.calls_per_op"] = (_per_op(tracer, f"model.{layer}", ops)[1], "count")
        return out


class Sched(Workload):
    """Greedy then an untrained-policy pass over DAGs of hundreds of tasks on 16 nodes."""

    name = "sched"

    def setup(self) -> None:
        n, apps, tasks = (4, 2, 12) if self.tiny else (16, 3, 200)
        rng = np.random.default_rng([self.seed, 10])
        nodes = tuple(Node(i, float(rng.uniform(400.0, 2000.0)),
                           float(rng.uniform(256.0, 1024.0)),
                           float(rng.uniform(20.0, 140.0))) for i in range(n))
        ends = list(range(n)) + [USER]
        links = {(a, b): LinkSpec(float(rng.uniform(0.002, 0.02)),
                                  float(rng.uniform(50.0, 200.0)))
                 for a in ends for b in ends if a != b}
        self.cluster = ClusterSpec(nodes, links)
        self.workload = generate_workload(apps, tasks, rng=np.random.default_rng([self.seed, 11]))
        self.releases = poisson_releases(self.workload, 0.5,
                                         rng=np.random.default_rng([self.seed, 12]))
        self.net = NetworkParams.glorot((3 * n + 4, 64, 64, 32, n), "relu",
                                        np.random.default_rng([self.seed, 13]))
        t0 = time.perf_counter()
        self.spec = make_reward_spec(self.cluster, self.workload, releases=self.releases)
        self.spec_seconds = time.perf_counter() - t0
        self.decisions = apps * tasks
        self.ops_per_round = 2 * self.decisions

    def verify_setup(self) -> None:
        oracle.check_round_robin_spec(self.cluster, self.workload, self.releases, self.spec)

    def run_round(self) -> Round:
        gaps: list[float] = []
        choices: list[int] = []
        last = [0.0]
        net = self.net

        def policy(state: np.ndarray) -> int:
            now = time.perf_counter()
            if choices:
                gaps.append((now - last[0]) * 1e3)
            last[0] = now
            action = int(np.argmax(network.forward(net, state)))
            choices.append(action)
            return action

        t0, c0 = time.perf_counter(), time.process_time()
        greedy = baseline_greedy(self.cluster, self.workload, self.spec, self.releases)
        t1 = time.perf_counter()
        learned = run_episode(self.cluster, self.workload, policy, self.spec, self.releases)
        t2, cpu = time.perf_counter(), time.process_time() - c0
        self.last = (greedy, learned, choices)
        oracle.check_greedy(self.cluster, self.workload, self.releases, self.spec, greedy)
        oracle.check_policy_pass(self.cluster, self.workload, self.releases, choices, learned)
        return Round(self.ops_per_round, t2 - t0, cpu, gaps,
                     {"greedy_s": t1 - t0, "policy_s": t2 - t1})

    def layer_metrics(self, tracer, rounds):
        ops = sum(r.ops for r in rounds)
        peek_us, peek_calls = _per_op(tracer, "sim.peek", ops)
        return {
            "sim.peek.us_per_op": (peek_us, "us"),
            "sim.peek.calls_per_op": (peek_calls, "count"),
            "sim.commit.us_per_op": (_per_op(tracer, "sim.commit", ops)[0], "us"),
            "sim.encode_state.us_per_op": (_per_op(tracer, "sim.encode_state", ops)[0], "us"),
            "sim.make_reward_spec.s": (self.spec_seconds, "s"),
        }


def criterion06_inputs(seed: int):
    """Three heterogeneous nodes and 20 five-task chains released 4 s apart."""
    nodes = (Node(0, 2000.0, 2048.0, 20.0), Node(1, 1000.0, 1024.0, 60.0),
             Node(2, 400.0, 512.0, 140.0))
    ends = [0, 1, 2, USER]
    cluster = ClusterSpec(nodes, {(a, b): LinkSpec(0.01, 100.0)
                                  for a in ends for b in ends if a != b})
    workload = generate_workload(20, 5, rng=np.random.default_rng([seed, 20]), density=1.0)
    releases = {dag.id: 4.0 * i for i, dag in enumerate(workload)}
    return cluster, workload, releases


class Train(Workload):
    """centralized_mode on the criterion-06 set-up, 20 episodes a round."""

    name = "train"

    def setup(self) -> None:
        self.cluster, self.workload, self.releases = criterion06_inputs(self.seed)
        self.spec = make_reward_spec(self.cluster, self.workload, releases=self.releases)
        self.episodes = 3 if self.tiny else 20
        self.tasks = sum(len(d.tasks) for d in self.workload)
        self.ops_per_round = self.episodes * self.tasks
        self.reference = None
        self.clock = DecisionClock()

    def run_round(self) -> Round:
        t0, c0 = time.perf_counter(), time.process_time()
        result = centralized_mode(self.cluster, self.workload, self.episodes,
                                  dqn_cfg=TRAIN_DQN, sync=TRAIN_SYNC,
                                  reward_spec=self.spec, releases=self.releases,
                                  seed=self.seed)
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        gaps = self.clock.take_gaps_ms(self.tasks)
        self.last = result
        oracle.check_centralized(result, self.episodes, self.tasks, TRAIN_DQN,
                                 TRAIN_SYNC, self.reference)
        if self.reference is None:
            self.reference = result.policy
        return Round(self.ops_per_round, seconds, cpu, gaps, {"updates": result.updates})

    def layer_metrics(self, tracer, rounds):
        ops = sum(r.ops for r in rounds)
        fwd_us, fwd_calls = _per_op(tracer, "network.forward", ops)
        step_us, step_calls = _per_op(tracer, "dqn.train_step", ops)
        return {
            "network.forward.us_per_op": (fwd_us, "us"),
            "network.forward.calls_per_op": (fwd_calls, "count"),
            "dqn.train_step.us_per_op": (step_us, "us"),
            "dqn.train_step.calls_per_op": (step_calls, "count"),
            "network.dqn_loss_grads.us_per_op": (_per_op(tracer, "network.dqn_loss_grads", ops)[0], "us"),
            "network.optimizer_step.us_per_op": (_per_op(tracer, "network.optimizer_step", ops)[0], "us"),
            "replay.sample.us_per_op": (_per_op(tracer, "replay.sample", ops)[0], "us"),
        }

    def close(self) -> None:
        self.clock.close()


class Dist(Workload):
    """The train inputs through one Learner and worker threads over loopback TCP."""

    name = "dist"
    DRAIN_LIMIT_S = 60.0

    def setup(self) -> None:
        self.cluster, self.workload, self.releases = criterion06_inputs(self.seed)
        self.spec = make_reward_spec(self.cluster, self.workload, releases=self.releases)
        self.workers = min(2, os.cpu_count() or 1)
        self.episodes = 2 if self.tiny else 20
        self.tasks = sum(len(d.tasks) for d in self.workload)
        if self.episodes * self.tasks % TRAIN_SYNC.batch_flush:
            raise ValueError("each worker must send whole batches")
        self.ops_per_round = self.workers * self.episodes * self.tasks
        self.expected_updates = oracle.updates_for_arrivals(
            oracle.chunk_sizes(self.ops_per_round, TRAIN_SYNC.batch_flush),
            TRAIN_DQN.batch_size, TRAIN_DQN.buffer_capacity)
        self.clock = DecisionClock()
        self.learner = self._start_learner()

    def _start_learner(self) -> Learner:
        n = self.cluster.n
        return Learner(3 * n + 4, n, cfg=TRAIN_DQN, sync=TRAIN_SYNC, seed=self.seed,
                       expected_workers=self.workers).start()

    def run_round(self) -> Round:
        learner = self.learner or self._start_learner()
        self.learner = None
        reports: dict = {}
        errors: list[BaseException] = []

        def work(index: int) -> None:
            wid = f"w{index}"
            try:
                reports[wid] = worker_loop(
                    learner.address, wid, self.cluster, self.workload, self.episodes,
                    sync=TRAIN_SYNC, dqn_cfg=TRAIN_DQN, reward_spec=self.spec,
                    releases=self.releases,
                    rng=np.random.default_rng([self.seed, 30, index]))
            except Exception as exc:  # re-raised on the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(self.workers)]
        t0, c0 = time.perf_counter(), time.process_time()
        for t in threads:
            t.start()
        for t in threads:
            t.join(self.DRAIN_LIMIT_S)
        returned = time.perf_counter()
        taken = sum(len(batch) for _, _, batch in list(learner.arrival_log))
        backlog = learner.received_experiences - taken
        # Drained means the trainer has taken in every batch. The wait also
        # ends if the learner stops early; the checks then report the gap.
        while (learner.updates < self.expected_updates
               and time.perf_counter() - returned < self.DRAIN_LIMIT_S):
            if learner.join(timeout=0.01):
                break
        drained, cpu = time.perf_counter(), time.process_time() - c0
        finished = learner.join(timeout=self.DRAIN_LIMIT_S)
        if not finished:
            learner.stop()
            learner.join(timeout=5.0)
        if errors:
            raise errors[0]
        if any(t.is_alive() for t in threads) or not finished:
            raise CheckFailed("a worker or the learner did not finish")
        gaps = self.clock.take_gaps_ms(self.tasks)
        self.last = (learner, reports)
        oracle.check_distributed(learner, reports, self.workers, self.episodes, self.tasks,
                                 TRAIN_DQN, TRAIN_SYNC, self.seed, replay_arrivals)
        syncs = sum(max(len(r.versions_seen) - 1, 0) for r in reports.values())
        return Round(self.ops_per_round, drained - t0, cpu, gaps,
                     {"drain_s": drained - returned, "backlog": backlog,
                      "policy_syncs": syncs, "updates": learner.updates})

    def layer_metrics(self, tracer, rounds):
        ops = sum(r.ops for r in rounds)
        median = lambda key: float(np.median([r.facts[key] for r in rounds]))
        exp_bytes = tracer.spans["protocol.experience_batch"].bytes
        sync_bytes = tracer.spans["protocol.policy_sync"].bytes
        return {
            "protocol.encode_frame.us_per_op": (_per_op(tracer, "protocol.encode_frame", ops)[0], "us"),
            "protocol.decode.us_per_op": (_per_op(tracer, "protocol.decode", ops)[0], "us"),
            "protocol.experience_batch.bytes_per_op": (exp_bytes / ops, "B"),
            "protocol.policy_sync.bytes_per_op": (sync_bytes / ops, "B"),
            "distributed.updates_per_op": (sum(r.facts["updates"] for r in rounds) / ops, "count"),
            "distributed.drain_s": (median("drain_s"), "s"),
            "distributed.backlog_experiences": (median("backlog"), "count"),
            "distributed.policy_syncs_received": (median("policy_syncs"), "count"),
        }

    def close(self) -> None:
        if self.learner is not None:
            self.learner.stop()
            self.learner.join(timeout=5.0)
            self.learner = None
        self.clock.close()


WORKLOADS = {w.name: w for w in (Place, Sched, Train, Dist)}
