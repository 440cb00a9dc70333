"""Quick self-check of the benchmark: every correctness check at tiny sizes.

    python3 perfbench/selfcheck.py

For each workload it runs set-up, the set-up check and three rounds (the
last one traced), so every check in `oracle` runs on real outputs, and every
per-layer metric of the workload is produced. Then it feeds each check a
tampered copy of a real output and requires the check to fail. It asserts
nothing about wall-clock time. Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types

import child

child.import_program()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from reinfog.distributed import replay_arrivals  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


def must_fail(label: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        return
    raise AssertionError(f"{label}: a tampered output passed the check")


def tamper_place(wl) -> None:
    res = wl.last
    must_fail("objective", oracle.check_placement, wl.inst, wl.params.penalty_lambda,
              wl.params.generations, dataclasses.replace(res, objective_value=res.objective_value * 1.01))
    must_fail("feasible", oracle.check_placement, wl.inst, wl.params.penalty_lambda,
              wl.params.generations, dataclasses.replace(res, feasible=not res.feasible))
    rows = list(res.trace.rows)
    rows[1] = dataclasses.replace(rows[1], best_fitness=rows[0].best_fitness - 1.0)
    trace = type(res.trace)(rows)
    must_fail("trace", oracle.check_placement, wl.inst, wl.params.penalty_lambda,
              wl.params.generations, dataclasses.replace(res, trace=trace))


def _move_first_task(result, n_nodes: int):
    cfg = result.configs[0]
    entries = dict(cfg.entries)
    tid = min(entries)
    entries[tid] = dataclasses.replace(entries[tid], node=(entries[tid].node + 1) % n_nodes)
    configs = (dataclasses.replace(cfg, entries=entries),) + tuple(result.configs[1:])
    return dataclasses.replace(result, configs=configs)


def tamper_sched(wl) -> None:
    greedy, learned, choices = wl.last
    n = wl.cluster.n
    must_fail("greedy choice", oracle.check_greedy, wl.cluster, wl.workload, wl.releases,
              wl.spec, _move_first_task(greedy, n))
    must_fail("greedy total", oracle.check_greedy, wl.cluster, wl.workload, wl.releases,
              wl.spec, dataclasses.replace(greedy, total_ec=greedy.total_ec * 1.01))
    wrong = [(choices[0] + 1) % n] + list(choices[1:])
    must_fail("policy replay", oracle.check_policy_pass, wl.cluster, wl.workload,
              wl.releases, wrong, learned)
    must_fail("round-robin spec", oracle.check_round_robin_spec, wl.cluster, wl.workload,
              wl.releases, dataclasses.replace(wl.spec, baseline_rt=wl.spec.baseline_rt * 1.01))


def tamper_train(wl) -> None:
    res = wl.last
    args = (wl.episodes, wl.tasks, workloads.TRAIN_DQN, workloads.TRAIN_SYNC)
    must_fail("update count", oracle.check_centralized,
              dataclasses.replace(res, updates=res.updates + 1), *args, None)
    other = res.policy.copy()
    other.weights[0][0, 0] = np.nextafter(other.weights[0][0, 0], np.inf)
    must_fail("repeat", oracle.check_centralized, res, *args, other)
    other.weights[0][0, 0] = np.nan
    must_fail("finite", oracle.check_centralized,
              dataclasses.replace(res, policy=other), *args, None)


def tamper_dist(wl) -> None:
    learner, reports = wl.last
    args = (wl.workers, wl.episodes, wl.tasks, workloads.TRAIN_DQN, workloads.TRAIN_SYNC,
            wl.seed, replay_arrivals)

    def fake(**changes):
        fields = dict(updates=learner.updates, received_experiences=learner.received_experiences,
                      arrival_log=list(learner.arrival_log), agent=learner.agent)
        fields.update(changes)
        return types.SimpleNamespace(**fields)

    oracle.check_distributed(fake(), reports, *args)
    must_fail("received", oracle.check_distributed,
              fake(received_experiences=learner.received_experiences - 1), reports, *args)
    must_fail("updates", oracle.check_distributed, fake(updates=learner.updates + 1),
              reports, *args)
    log = list(learner.arrival_log)
    wid, seq, batch = log[-1]
    must_fail("seqs", oracle.check_distributed,
              fake(arrival_log=log[:-1] + [(wid, seq + 1, batch)]), reports, *args)
    agent = types.SimpleNamespace(online=learner.agent.online.copy())
    agent.online.biases[-1][0] += 1.0
    must_fail("replay", oracle.check_distributed, fake(agent=agent), reports, *args)


TAMPER = {"place": tamper_place, "sched": tamper_sched, "train": tamper_train,
          "dist": tamper_dist}


def main() -> int:
    declared = json.loads((child.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced: set[str] = set()
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, tiny=True)
        wl.setup()
        try:
            wl.verify_setup()
            for _ in range(2):
                assert wl.run_round().ops == wl.ops_per_round
            tracer = Tracer().install()
            try:
                traced = [wl.run_round()]
            finally:
                tracer.uninstall()
            assert not tracer.missing, tracer.missing
            metrics = wl.layer_metrics(tracer, traced)
            produced.update(metrics, [f"trace_overhead.{name}.pct"])
            TAMPER[name](wl)
        finally:
            wl.close()
        print(f"{name}: checks pass on real outputs and fail on tampered ones; "
              f"{len(metrics)} per-layer metrics")
    missing = {m["name"] for m in declared} ^ produced
    assert not missing, f"per-layer metrics not both declared and produced: {missing}"
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
