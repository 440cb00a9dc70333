import hashlib
import json
import os
import re
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from reinfog import cli
from reinfog.model import AppDag, instance_to_json
from reinfog.network import NetworkParams, load_policy, save_policy
from reinfog.placement import brute_force_optimal, random_instance
from reinfog.sim import baseline_greedy, cluster_to_json, generate_workload, make_reward_spec


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


@pytest.mark.parametrize("key, value", [
    ("dqn.learning_rat", 5),
    ("dqn.learning_rate", "nan"),
    ("train.w1", float("nan")),
    ("train.w1", True),
    ("dqn.hidden_sizes", [64, True]),
    ("dqn.batch_size", "4"),
    ("sync.batch_flush", 2.5),
    ("train.metric", "latency"),
    ("dqn.eps_start", 1.5),
    ("dqn.eps_end", -0.2),
    ("dqn.eps_decay_steps", -5),
    ("dqn.optimizer", "adamw"),
    ("dqn.activation", "gelu"),
    # values only the library checks, while inputs are built from the config
    ("sim.density", 2.0),
    ("sim.arrival_rate", 0),
    ("sim.arrival_rate", -1.0),
    ("place.slack", -1.0),
    ("madcp.num_operations", 0),
    ("bench.generations", 0),
    ("bench.m", 0),
    ("bench.populations", "1"),
])
def test_unfit_config_value_exits_1_naming_its_key(tmp_path, capsys, key, value):
    place = ["place", "--algorithms", "madcp"]
    command = {"sim": ["simulate"], "place": place, "madcp": place,
               "bench": ["bench"]}.get(key.split(".")[0], ["train"])
    cfg = write_config(tmp_path / "c.json", {**FAST_TRAIN, **FAST_PLACE, key: value})
    assert run_cli([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err


def test_integral_float_accepted_for_an_integer_key(tmp_path):
    cfg = write_config(tmp_path / "c.json", {**FAST_TRAIN, "dqn.batch_size": 8.0})
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_readme_config_table_lists_exactly_the_accepted_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("### Config file")[1].split("Example:")[0]
    documented = set()
    for row in table.splitlines():
        cells = re.split(r"(?<!\\)\|", row)
        if len(cells) < 4 or not cells[1].strip().startswith("`"):
            continue
        prefixes = re.findall(r"`(\w+)\.`", cells[1])
        names = re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", cells[2]))
        documented |= {f"{p}.{n}" for p in prefixes for n in names}
    assert documented == set(cli.CONFIG_KEYS)


def test_unknown_algorithm_exits_1(tmp_path):
    rc = run_cli(["place", "--algorithms", "simulated-annealing",
                  "--out", str(tmp_path)])
    assert rc == 1


def test_reps_must_be_positive(tmp_path):
    assert run_cli(["place", "--reps", "0", "--out", str(tmp_path)]) == 1


def test_worker_count_range_enforced(tmp_path):
    assert run_cli(["train-dist", "--workers", "31", "--out", str(tmp_path)]) == 1
    assert run_cli(["train-dist", "--workers", "0", "--out", str(tmp_path)]) == 1


def test_listen_port_out_of_range_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    assert run_cli(["train-dist", "--config", cfg, "--listen", "127.0.0.1:99999",
                    "--out", str(tmp_path)]) == 1
    assert "port 99999" in capsys.readouterr().err


def test_listen_port_not_an_integer_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    assert run_cli(["train-dist", "--config", cfg, "--listen", "h:abc",
                    "--out", str(tmp_path)]) == 1
    assert "port 'abc' in 'h:abc' is not an integer" in capsys.readouterr().err


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
def test_place_non_finite_instance_exits_1(tmp_path, capsys, literal):
    doc = instance_to_json(random_instance(3, 2, np.random.default_rng(0)))
    doc["components"][0]["compute_req"] = "@"
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc).replace('"@"', literal))
    cfg = write_config(tmp_path / "c.json", {**FAST_PLACE, "place.instance": str(inst_path)})
    rc = run_cli(["place", "--config", cfg, "--algorithms", "madcp",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "compute_req must be finite" in err and str(inst_path) in err


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


@pytest.mark.parametrize("when", ["before connecting", "after sending"])
def test_train_dist_failing_worker_exits_2_naming_it(tmp_path, capsys, monkeypatch, when):
    real = cli.worker_loop

    def worker_loop(endpoint, worker_id, *args, **kwargs):
        if worker_id == "w01" and when == "before connecting":
            raise ValueError(f"boom {when}")
        report = real(endpoint, worker_id, *args, **kwargs)
        if worker_id == "w01":
            raise ValueError(f"boom {when}")
        return report

    monkeypatch.setattr(cli, "worker_loop", worker_loop)
    cfg = write_config(tmp_path / "c.json", FAST_TRAIN)
    started = time.monotonic()
    rc = run_cli(["train-dist", "--config", cfg, "--workers", "2", "--seed", "6",
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert time.monotonic() - started < 10.0
    assert f"worker w01 failed: ValueError: boom {when}" in capsys.readouterr().err


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


def test_simulate_rejects_non_finite_policy(tmp_path, capsys):
    net = NetworkParams.glorot((13, 8, 3), "relu", np.random.default_rng(0))
    net.weights[1][0, 0] = np.inf
    path = tmp_path / "inf.json"
    save_policy(net, path)
    rc = run_cli(["simulate", "--policy", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, literal", [
    ("compute_req", "NaN"), ("output_size", "Infinity"), ("release", "NaN")])
def test_simulate_non_finite_workload_exits_1(tmp_path, capsys, field, literal):
    doc = {"apps": [{"id": 0, "tasks": [
        {"id": 0, "compute_req": 100.0, "input_size": 1.0, "output_size": 1.0},
        {"id": 1, "compute_req": 100.0, "input_size": 1.0, "output_size": 1.0,
         "predecessors": [0]}]}], "releases": {"0": 0.5}}
    if field == "release":
        doc["releases"]["0"] = "@"
    else:
        doc["apps"][0]["tasks"][0][field] = "@"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    cfg = write_config(tmp_path / "c.json", {"sim.workload": str(path)})
    rc = run_cli(["simulate", "--config", cfg, "--baseline", "greedy",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


def test_simulate_non_integer_workload_id_exits_1(tmp_path, capsys):
    doc = {"apps": [{"id": 0, "tasks": [
        {"id": 1.7, "compute_req": 100.0, "input_size": 1.0, "output_size": 1.0}]}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", {"sim.workload": str(path)})
    rc = run_cli(["simulate", "--config", cfg, "--baseline", "greedy",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "task id must be an integer, got 1.7" in capsys.readouterr().err


def _one_task_app(app_id: int) -> dict:
    return {"id": app_id, "tasks": [
        {"id": 0, "compute_req": 100.0, "input_size": 1.0, "output_size": 1.0}]}


@pytest.mark.parametrize("doc, why", [
    ({"apps": [_one_task_app(0), _one_task_app(0)]}, "app id 0 appears twice"),
    ({"apps": [_one_task_app(0)], "releases": {"0": 0.5, "99": 1.0}},
     "release for app 99, which the workload does not have")])
def test_simulate_repeated_or_unknown_workload_app_exits_1(tmp_path, capsys, doc, why):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", {"sim.workload": str(path)})
    rc = run_cli(["simulate", "--config", cfg, "--baseline", "greedy",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert why in err and str(path) in err


def test_simulate_negative_task_size_exits_1(tmp_path, capsys):
    doc = {"apps": [{"id": 0, "tasks": [
        {"id": 0, "compute_req": -100.0, "input_size": 1.0, "output_size": 1.0}]}]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", {"sim.workload": str(path)})
    rc = run_cli(["simulate", "--config", cfg, "--baseline", "greedy",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "is malformed" in err and "compute_req must be non-negative" in err


@pytest.mark.parametrize("src, dst, why", [
    (0, 0, "self-link"), (9, 1, "unknown endpoint"), (1.7, 0, "must be an integer"),
    (0, 1, "duplicate link (0, 1)")])
def test_simulate_bad_cluster_link_exits_1(tmp_path, capsys, src, dst, why):
    doc = cluster_to_json(cli._default_cluster())
    doc["links"].append({"src": src, "dst": dst, "latency_s": 0.01,
                         "bandwidth_mbps": 100.0})
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", {**FAST_TRAIN, "sim.cluster": str(path)})
    rc = run_cli(["simulate", "--config", cfg, "--baseline", "greedy",
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert why in err and str(path) in err


@pytest.mark.parametrize("key, command", [
    ("sim.cluster", ["simulate", "--baseline", "greedy"]),
    ("sim.workload", ["simulate", "--baseline", "greedy"]),
    ("place.instance", ["place", "--algorithms", "madcp"])])
@pytest.mark.parametrize("content", ['{"nodes": [', "[1, 2]"])
def test_unfit_input_file_exits_1_naming_it(tmp_path, capsys, key, command, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    cfg = write_config(tmp_path / "c.json", {**FAST_PLACE, **FAST_TRAIN, key: str(path)})
    rc = run_cli([command[0], "--config", cfg, *command[1:], "--out", str(tmp_path / "out")])
    assert rc == 1
    assert str(path) in capsys.readouterr().err


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


# sha256 of each CSV body (its `#` lines left out) and of oracle.json, at seed
# 21 on the configuration of acceptance criterion 12: any change to a
# command's output changes a digest.
PINNED_OUTPUTS = {
    ("place", "--reps", "2", "--algorithms", "madcp,ga,random"): {
        "place_ga_rep00.csv": "75b0e46810eb6ea07a8ae039c4f0e527f6c157c12668e8099bf94b1247ac0237",
        "place_ga_rep01.csv": "05598df2702a26cdd8a27762679c05cd9ec01c8bc2ef7080e464731451c60f26",
        "place_madcp_rep00.csv": "7b1dfd6b5978c1edfee4be538ed138805696646b4a2369934154bbf0d334a5ce",
        "place_madcp_rep01.csv": "5bf698e01f78351caa1dd7c40351c5ad171f132fa7d7bdc10aeb815b6cddfa46",
        "place_random_rep00.csv": "794bf80cb35001c5913278247b75459dba1541055bfcb29eb7cb0f611936ad22",
        "place_random_rep01.csv": "32100e08a11d496e17db2e72fde56bbf18dae2059ee47fe25823e45ffc933353",
        "place_summary.csv": "a73c56382e17e55f2a88b0e55ad25f2797f122088c078da30f2ff43b4930c9c2"},
    ("train",): {
        "rewards.csv": "4f7c9f69b51b9424f450ca9d89410b637e3bc88b40dae64563f92837ac2f66db"},
    ("train-dist", "--workers", "2"): {
        "train_dist.csv": "d8329b1b1596fab9ec9cbd896fbe0a65f77694636eb0c5e135a548775bf161e2"},
    ("simulate", "--baseline", "round_robin"): {
        "metrics.csv": "5cf88e3c5513b955c822a3421d314d040a595fa111157dc89539f575021cf19b",
        "schedule.csv": "4798c9cb250015b40d2e95e680b78068d38948bafabb7815936a12c5723965f6"},
    ("simulate", "--baseline", "greedy"): {
        "metrics.csv": "439b91e0da4664fdf3b434905affac7782e739a2f84ea01096e9579172f6de4f",
        "schedule.csv": "16eaf914da61117f0189d24961f819a2556ce7ccd7a8711f634a1407ec2193f9"},
    ("simulate", "--baseline", "random"): {
        "metrics.csv": "773ab0166456ee429f37fba6bab6f449a2d9ce203ff7dc22ebdefc5fe5b3f330",
        "schedule.csv": "689aed015834733e498554d71d1cc3a2672a2401b116cb73f21117b1f05fe8bb"},
    ("oracle",): {
        "oracle.json": "3bf29d6953a89f66019c688e7f8dfea4fc8d72cb6e9d4875881f37ca53a96dbb"},
    ("bench",): {
        "bench.csv": "c1155105cb1d2090bfe64369d500c1f6eacac301e5a8ac536714d034648542c1"},
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=" ".join)
def test_cli_outputs_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.delenv(cli.ENDPOINT_ENV_VAR, raising=False)
    cfg = write_config(tmp_path / "c.json", {
        "madcp.population_size": 16, "madcp.generations": 5,
        "ga.population_size": 16, "ga.generations": 5,
        "place.m": 4, "place.n": 3,
        "train.episodes": 3, "sim.apps": 2, "sim.tasks_per_app": 3,
        "dqn.hidden_sizes": [8], "dqn.batch_size": 8,
        "dqn.buffer_capacity": 128, "dqn.eps_decay_steps": 20,
        "dqn.target_sync_interval": 4,
        "bench.populations": "16,32", "bench.generations": 4,
        "bench.m": 8, "bench.n": 4})
    out = tmp_path / "out"
    assert run_cli([*argv, "--config", cfg, "--seed", "21", "--out", str(out)]) == 0
    got = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            got[name] = hashlib.sha256(body(out / name).encode()).hexdigest()
        elif name == "oracle.json":
            got[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == PINNED_OUTPUTS[argv]
