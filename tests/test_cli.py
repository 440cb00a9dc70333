import json
import os
import statistics

import numpy as np
import pytest

from reinfog import cli
from reinfog.model import AppDag, instance_to_json
from reinfog.network import NetworkParams, load_policy, save_policy
from reinfog.placement import brute_force_optimal, random_instance
from reinfog.sim import baseline_greedy, generate_workload, make_reward_spec


def run_cli(argv: list[str]) -> int:
    """main() returns its exit code, except argparse errors which raise."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def body(path: str) -> str:
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def write_config(path, values: dict) -> str:
    with open(path, "w") as fh:
        json.dump(values, fh)
    return str(path)


FAST_PLACE = {
    "madcp.population_size": 16, "madcp.generations": 6,
    "ga.population_size": 16, "ga.generations": 6,
    "fa.population_size": 16, "fa.generations": 6,
    "pso.population_size": 16, "pso.generations": 6,
    "place.m": 5, "place.n": 3,
}
FAST_TRAIN = {
    "train.episodes": 4, "sim.apps": 2, "sim.tasks_per_app": 3,
    "dqn.hidden_sizes": [12, 12], "dqn.batch_size": 8,
    "dqn.buffer_capacity": 128, "dqn.eps_decay_steps": 20,
    "dqn.target_sync_interval": 4,
}


# -- argument and config failures -------------------------------------------


def test_unknown_subcommand_exits_1():
    assert run_cli(["definitely-not-a-command"]) == 1


def test_missing_subcommand_exits_1():
    assert run_cli([]) == 1


def test_missing_config_file_exits_1(tmp_path):
    rc = run_cli(["place", "--config", str(tmp_path / "no.json"),
                  "--out", str(tmp_path)])
    assert rc == 1


def test_non_dotted_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"episodes": 3})
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_unknown_algorithm_exits_1(tmp_path):
    rc = run_cli(["place", "--algorithms", "simulated-annealing",
                  "--out", str(tmp_path)])
    assert rc == 1


def test_reps_must_be_positive(tmp_path):
    assert run_cli(["place", "--reps", "0", "--out", str(tmp_path)]) == 1


def test_worker_count_range_enforced(tmp_path):
    assert run_cli(["train-dist", "--workers", "31", "--out", str(tmp_path)]) == 1
    assert run_cli(["train-dist", "--workers", "0", "--out", str(tmp_path)]) == 1


def test_seed_must_be_u64(tmp_path):
    assert run_cli(["place", "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert run_cli(["place", "--seed", str(2 ** 64), "--out", str(tmp_path)]) == 1


# -- place -------------------------------------------------------------------


def test_place_traces_and_summary_agree(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_PLACE)
    out = tmp_path / "out"
    rc = run_cli(["place", "--config", cfg, "--seed", "11", "--reps", "3",
                  "--algorithms", "madcp,ga", "--out", str(out)])
    assert rc == 0

    _, header, rows = read_csv(out / "place_summary.csv")
    assert header == ["algorithm", "reps", "mean_best_F", "stdev_best_F",
                      "feasible_rate"]
    assert [r[0] for r in rows] == ["madcp", "ga"]

    # summary stats must be recomputable from the trace files
    for row in rows:
        alg = row[0]
        finals = []
        for rep in range(3):
            _, th, trows = read_csv(out / f"place_{alg}_rep{rep:02d}.csv")
            assert th == ["generation", "best_fitness", "best_F", "feasible",
                          "elapsed_ms"]
            finals.append(float(trows[-1][2]))
        assert float(row[2]) == pytest.approx(statistics.fmean(finals), rel=1e-12)
        assert float(row[3]) == pytest.approx(statistics.stdev(finals), rel=1e-12)


def test_place_trace_times_zeroed_without_timing_flag(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_PLACE)
    out = tmp_path / "out"
    assert run_cli(["place", "--config", cfg, "--reps", "1",
                    "--algorithms", "madcp", "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "place_madcp_rep00.csv")
    assert all(r[4] == "0.0" for r in rows)


def test_place_best_fitness_never_decreases(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_PLACE)
    out = tmp_path / "out"
    assert run_cli(["place", "--config", cfg, "--reps", "2", "--seed", "9",
                    "--out", str(out)]) == 0
    for name in os.listdir(out):
        if not name.startswith("place_") or "summary" in name:
            continue
        _, _, rows = read_csv(out / name)
        series = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(series, series[1:])), name


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_place_non_finite_instance_exits_2(tmp_path, capsys, literal):
    doc = instance_to_json(random_instance(3, 2, np.random.default_rng(0)))
    doc["components"][0]["compute_req"] = "@"
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc).replace('"@"', literal))
    cfg = write_config(tmp_path / "c.json", {**FAST_PLACE, "place.instance": str(inst_path)})
    rc = run_cli(["place", "--config", cfg, "--algorithms", "madcp",
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "compute_req must be finite" in capsys.readouterr().err


# -- train -------------------------------------------------------------------


def test_train_writes_rewards_and_policy(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["train", "--config", cfg, "--seed", "2",
                    "--out", str(out)]) == 0

    _, header, rows = read_csv(out / "rewards.csv")
    assert header == ["episode", "steps", "total_reward", "total_wc",
                      "epsilon", "updates"]
    assert len(rows) == 4
    updates = [int(r[5]) for r in rows]
    assert updates == sorted(updates)

    params, meta = load_policy(out / "policy.json")
    assert params.layer_sizes == (3 * 3 + 4, 12, 12, 3)
    assert meta["episodes"] == 4


def test_train_zero_episodes_keeps_initial_policy(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["train", "--config", cfg, "--episodes", "0",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "rewards.csv")
    assert rows == []
    params, meta = load_policy(out / "policy.json")
    assert meta["updates"] == 0 and params.layer_sizes[-1] == 3


def test_episode_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["train", "--config", cfg, "--episodes", "2",
                    "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "rewards.csv")
    assert len(rows) == 2


# -- train-dist --------------------------------------------------------------


def test_train_dist_counters_conserved(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["train-dist", "--config", cfg, "--workers", "2",
                    "--seed", "6", "--out", str(out)]) == 0

    meta, header, rows = read_csv(out / "train_dist.csv")
    assert header == ["worker_id", "episodes", "batches_sent",
                      "experiences_sent"]
    assert [r[0] for r in rows] == ["w00", "w01"]
    per_worker = 4 * 2 * 3  # episodes x apps x tasks per app
    assert all(int(r[3]) == per_worker for r in rows)
    assert int(meta["received"]) == 2 * per_worker
    assert (out / "policy.json").exists()


# -- simulate ----------------------------------------------------------------


def test_simulate_metrics_match_direct_model_run(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--seed", "5",
                    "--baseline", "greedy", "--out", str(out)]) == 0

    workload = generate_workload(2, 3, rng=np.random.default_rng([5, 101]),
                                 density=0.5)
    cluster = cli._default_cluster()
    spec = make_reward_spec(cluster, workload)
    direct = baseline_greedy(cluster, workload, spec)

    _, header, rows = read_csv(out / "metrics.csv")
    assert header == ["response_time_s", "energy_j", "weighted_cost",
                      "total_reward", "failures"]
    got = rows[0]
    assert float(got[0]) == direct.total_rt
    assert float(got[1]) == direct.total_ec
    assert float(got[2]) == direct.total_wc
    assert float(got[3]) == sum(direct.rewards)

    # schedule rows cover every task exactly once with the same energy total
    _, _, srows = read_csv(out / "schedule.csv")
    assert len(srows) == 6
    assert sum(float(r[5]) for r in srows) == pytest.approx(direct.total_ec)


def test_simulate_with_trained_policy(tmp_path):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    out = tmp_path / "out"
    assert run_cli(["train", "--config", cfg, "--seed", "2",
                    "--out", str(out)]) == 0
    rc = run_cli(["simulate", "--config", cfg, "--seed", "2",
                  "--policy", str(out / "policy.json"), "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out / "metrics.csv")
    assert float(rows[0][2]) > 0.0


def test_simulate_missing_policy_file_exits_1(tmp_path):
    rc = run_cli(["simulate", "--policy", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path)])
    assert rc == 1


def test_simulate_rejects_mismatched_policy_shape(tmp_path):
    bad = NetworkParams.glorot((4, 4, 2), "relu", np.random.default_rng(0))
    path = tmp_path / "bad.json"
    save_policy(bad, path)
    rc = run_cli(["simulate", "--policy", str(path), "--out", str(tmp_path)])
    assert rc == 1


def test_simulate_rejects_policy_and_baseline_together(tmp_path):
    rc = run_cli(["simulate", "--policy", "p.json", "--baseline", "greedy",
                  "--out", str(tmp_path)])
    assert rc == 1


# -- oracle ------------------------------------------------------------------


def test_oracle_matches_in_process_enumeration(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"place.m": 4, "place.n": 3})
    out = tmp_path / "out"
    assert run_cli(["oracle", "--config", cfg, "--seed", "13",
                    "--out", str(out)]) == 0
    with open(out / "oracle.json") as fh:
        doc = json.load(fh)

    inst = random_instance(4, 3, rng=np.random.default_rng([13, 0]), slack=2.0)
    assignment, best_f = brute_force_optimal(inst)
    assert doc["assignment"] == list(assignment.node_of)
    assert doc["objective_value"] == best_f
    assert doc["fitness"] == -best_f


def test_oracle_refuses_oversized_search(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"place.m": 30, "place.n": 10})
    rc = run_cli(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "10^30" in err and "exceed" in err


# -- bench -------------------------------------------------------------------


def test_bench_reports_all_populations(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"bench.populations": "16,32", "bench.generations": 4,
                        "bench.m": 8, "bench.n": 4})
    out = tmp_path / "out"
    assert run_cli(["bench", "--config", cfg, "--seed", "3",
                    "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "bench.csv")
    assert header == ["population", "generations", "m", "n", "best_F", "feasible"]
    assert [int(r[0]) for r in rows] == [16, 32]
    assert "median_gen_ms_p16" in meta and "median_gen_ms_p32" in meta
    assert "doubling_ratio_p16_p32" in meta


# -- determinism across runs --------------------------------------------------


def test_csv_bodies_identical_across_repeat_runs(tmp_path):
    cfg = write_config(tmp_path / "c.json", {**FAST_PLACE, **FAST_TRAIN,
                                             "bench.populations": "16,32",
                                             "bench.generations": 4,
                                             "bench.m": 8, "bench.n": 4})
    invocations = [
        ["place", "--reps", "2", "--algorithms", "madcp,random"],
        ["train"],
        ["train-dist", "--workers", "2"],
        ["simulate", "--baseline", "random"],
        ["bench"],
    ]
    for argv in invocations:
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run_cli(argv + ["--config", cfg, "--seed", "17",
                                 "--out", str(out)])
            assert rc == 0, argv
        for name in sorted(os.listdir(a)):
            if name.endswith(".csv"):
                assert body(a / name) == body(b / name), (argv, name)
