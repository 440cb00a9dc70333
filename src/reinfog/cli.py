"""Command line front end: placement runs, training, simulation, benchmarks.

Every command honors --seed and writes CSV output whose body is a pure
function of the inputs; wall-clock readings and timestamps live only in
'#'-prefixed metadata header lines so repeated runs stay byte-identical
below them.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import TypeVar

import numpy as np

from .distributed import (
    ENDPOINT_ENV_VAR,
    Learner,
    SyncConfig,
    WorkerReport,
    centralized_mode,
    parse_endpoint,
    worker_loop,
)
from .dqn import DqnConfig
from .model import AppDag, Node, dag_from_json, fold_sum, instance_from_json
from .network import forward, load_policy, save_policy
from .placement import (
    InstanceTooLarge,
    PlacementParams,
    PlacementResult,
    fa_run,
    fitness,
    ga_run,
    madcp_run,
    pso_run,
    random_instance,
    random_placement,
    brute_force_optimal,
)
from .sim import (
    ClusterSpec,
    RewardSpec,
    _release_times,
    baseline_greedy,
    baseline_round_robin,
    cluster_from_json,
    generate_workload,
    make_reward_spec,
    poisson_releases,
    run_episode,
    state_dim,
    uniform_cluster,
)

T = TypeVar("T")


class CliError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for runtime
    # failures, so route them to 1 instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration


_SEARCH_RUNNERS: dict[str, Callable[..., PlacementResult]] = {
    "madcp": madcp_run,
    "ga": ga_run,
    "fa": fa_run,
    "pso": pso_run,
}
# each section's keys are the fields of its dataclass that have a default
_SECTIONS: dict[str, type] = {"dqn": DqnConfig, "sync": SyncConfig, "train": RewardSpec,
                              **dict.fromkeys(_SEARCH_RUNNERS, PlacementParams)}
_PLAIN_KEYS = {
    "int": ("place.m", "place.n", "sim.apps", "sim.tasks_per_app", "sim.layers",
            "train.episodes", "dist.max_updates", "bench.generations", "bench.m", "bench.n"),
    "float": ("place.slack", "sim.density", "sim.arrival_rate"),
    "str": ("place.instance", "place.algorithms", "sim.cluster", "sim.workload",
            "simulate.baseline", "simulate.policy", "bench.populations"),
}


def _settable(cls: type) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]


def _number(key: str, v: object) -> int | float:
    try:
        if not isinstance(v, bool) and math.isfinite(v):
            return v
    except (TypeError, OverflowError):
        pass
    raise CliError(f"config key {key} must be a finite number, got {v!r}")


def _as_int(key: str, v: object) -> int:
    v = _number(key, v)
    if v != int(v):
        raise CliError(f"config key {key} must be an integer, got {v!r}")
    return int(v)


def _as_str(key: str, v: object) -> str:
    if not isinstance(v, str):
        raise CliError(f"config key {key} must be a string, got {v!r}")
    return v


def _as_ints(key: str, v: object) -> tuple[int, ...]:
    if not isinstance(v, list) or any(isinstance(h, bool) or not isinstance(h, int)
                                      for h in v):
        raise CliError(f"config key {key} must be a JSON list of integers, got {v!r}")
    return tuple(v)


# field type, as the dataclasses spell it -> the check that gives a value that type
_CHECKS: dict[str, Callable[[str, object], object]] = {
    "int": _as_int, "int | None": _as_int, "str": _as_str, "tuple[int, ...]": _as_ints,
    "float": lambda key, v: float(_number(key, v)),
}
CONFIG_KEYS: dict[str, Callable[[str, object], object]] = {
    **{key: _CHECKS[kind] for kind, keys in _PLAIN_KEYS.items() for key in keys},
    **{f"{prefix}.{f.name}": _CHECKS[f.type]
       for prefix, cls in _SECTIONS.items() for f in _settable(cls)},
}


Config = dict[str, object]


def load_config(path: str) -> Config:
    """Flat JSON config with dotted module.param keys; CLI flags win.

    Every key must be one of CONFIG_KEYS and its value of that key's type:
    numbers finite and not booleans, integers integral. null leaves the
    default in place.
    """
    doc = _read_input("config", path, lambda doc: doc)
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must hold a JSON object")
    cfg: Config = {}
    for key, v in doc.items():
        if key not in CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        if v is not None:
            cfg[key] = CONFIG_KEYS[key](key, v)
    return cfg


@contextlib.contextmanager
def _from_keys(cfg: Config, *keys: str) -> Iterator[None]:
    """A ValueError inside becomes a CliError naming those of `keys` the config sets."""
    try:
        yield
    except ValueError as exc:
        named = ", ".join(key for key in keys if key in cfg)
        raise CliError(f"{exc} (config keys {named})") from exc


def _section(cfg: Config, prefix: str, cls: type, build: Callable[..., T] | None = None) -> T:
    """`build` (by default `cls`) called with the config's `prefix.<field>` values."""
    given = {f.name: cfg[f"{prefix}.{f.name}"] for f in _settable(cls)
             if f"{prefix}.{f.name}" in cfg}
    with _from_keys(cfg, *(f"{prefix}.{name}" for name in given)):
        return (build or cls)(**given)


# ---------------------------------------------------------------------------
# CSV output


def _fmt_cell(v: object) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]],
              meta: Mapping[str, object]) -> None:
    """Header row is mandatory; metadata rides above it as '# key=value'."""
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _meta(command: str, seed: int, **extra: object) -> dict[str, object]:
    return {"command": command, "seed": seed,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra}


def _write_out(args: argparse.Namespace, name: str, header: Sequence[str],
               rows: Iterable[Sequence[object]], **extra: object) -> None:
    """`name` written under --out with the command's metadata; says so on stdout."""
    path = os.path.join(args.out, name)
    write_csv(path, header, rows, _meta(args.command, args.seed, **extra))
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# cluster / workload resolution


def _default_cluster() -> ClusterSpec:
    """Three heterogeneous nodes: fast-lean, mid, slow-hungry."""
    nodes = (
        Node(0, compute_cap=2000.0, mem_avail=2048.0, power_draw=20.0),
        Node(1, compute_cap=1000.0, mem_avail=1024.0, power_draw=60.0),
        Node(2, compute_cap=400.0, mem_avail=512.0, power_draw=140.0),
    )
    return ClusterSpec(nodes, uniform_cluster(len(nodes)).links)


def _read_input(what: str, path: str, parse: Callable[[object], T]) -> T:
    """`parse` applied to the JSON document in `path`. A file that is missing,
    unreadable, not JSON, or that `parse` refuses is a CliError naming it."""
    if not os.path.exists(path):
        raise CliError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise CliError(f"{what} {path} is not valid JSON: {exc}") from exc
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{what} {path} is malformed: {exc}") from exc


def _resolve_cluster(cfg: Config) -> ClusterSpec:
    path = cfg.get("sim.cluster")
    if path is None:
        return _default_cluster()
    return _read_input("cluster", path, cluster_from_json)


def _workload_from_json(doc) -> tuple[list[AppDag], dict[int, float] | None]:
    apps = [dag_from_json(d) for d in doc["apps"]]
    releases = doc.get("releases")
    if releases is not None:
        releases = {int(k): float(v) for k, v in releases.items()}
    _release_times(apps, releases)
    return apps, releases


def _resolve_workload(cfg: Config, seed: int) -> tuple[list[AppDag], dict[int, float] | None]:
    path = cfg.get("sim.workload")
    if path is not None:
        return _read_input("workload", path, _workload_from_json)
    rate = cfg.get("sim.arrival_rate")
    with _from_keys(cfg, "sim.apps", "sim.tasks_per_app", "sim.layers", "sim.density",
                    "sim.arrival_rate"):
        workload = generate_workload(cfg.get("sim.apps", 4), cfg.get("sim.tasks_per_app", 5),
                                     rng=np.random.default_rng([seed, 101]),
                                     layers=cfg.get("sim.layers"),
                                     density=cfg.get("sim.density", 0.5))
        return workload, None if rate is None else poisson_releases(
            workload, rate, np.random.default_rng([seed, 102]))


def _sim_inputs(cfg: Config, seed: int):
    """Cluster, workload, releases and the `train.` reward spec."""
    cluster = _resolve_cluster(cfg)
    workload, releases = _resolve_workload(cfg, seed)
    # the round-robin baselines do not depend on the reward settings
    base = make_reward_spec(cluster, workload, releases=releases)
    spec = _section(cfg, "train", RewardSpec, functools.partial(dataclasses.replace, base))
    return cluster, workload, releases, spec


def _train_inputs(args: argparse.Namespace, cfg: Config):
    """_sim_inputs, then the episode count and the DQN and sync settings."""
    episodes = cfg.get("train.episodes", 30) if args.episodes is None else args.episodes
    if episodes < 0:
        raise CliError("episodes must be non-negative")
    return (*_sim_inputs(cfg, args.seed), episodes, _section(cfg, "dqn", DqnConfig),
            _section(cfg, "sync", SyncConfig))


# ---------------------------------------------------------------------------
# place


def _resolve_instance(cfg: Config, rng: np.random.Generator):
    path = cfg.get("place.instance")
    if path is not None:
        return _read_input("instance", path, instance_from_json)
    m = cfg.get("place.m", 6)
    n = cfg.get("place.n", 4)
    if m < 1 or n < 1:
        raise CliError("place.m and place.n must be positive")
    with _from_keys(cfg, "place.slack"):
        return random_instance(m, n, rng=rng, slack=cfg.get("place.slack", 2.0))


def cmd_place(args: argparse.Namespace, cfg: Config) -> int:
    raw = args.algorithms or cfg.get("place.algorithms", "madcp,ga,fa,pso")
    algorithms = [a.strip() for a in raw.split(",") if a.strip()]
    known = set(_SEARCH_RUNNERS) | {"random"}
    for alg in algorithms:
        if alg not in known:
            raise CliError(f"unknown algorithm {alg!r}; pick from {sorted(known)}")
    if not algorithms:
        raise CliError("no algorithms selected")

    fixed = None
    if cfg.get("place.instance") is not None:
        fixed = _resolve_instance(cfg, np.random.default_rng(args.seed))

    header = ("generation", "best_fitness", "best_F", "feasible", "elapsed_ms")
    summary_rows: list[tuple] = []
    wall_meta: dict[str, object] = {}
    for alg in algorithms:
        params = None if alg == "random" else _section(
            cfg, alg, PlacementParams, getattr(PlacementParams, alg))
        finals: list[float] = []
        feasible_count = 0
        t0 = time.perf_counter()
        for rep in range(args.reps):
            inst = fixed if fixed is not None else _resolve_instance(
                cfg, np.random.default_rng([args.seed, rep]))
            rng = np.random.default_rng([args.seed, rep, sorted(known).index(alg)])
            result = (random_placement(inst, rng) if alg == "random"
                      else _SEARCH_RUNNERS[alg](inst, params, rng))
            write_csv(os.path.join(args.out, f"place_{alg}_rep{rep:02d}.csv"), header,
                      [(r.generation, r.best_fitness, r.best_F, r.feasible,
                        r.elapsed_ms if args.timing else 0.0) for r in result.trace.rows],
                      _meta("place", args.seed, algorithm=alg, rep=rep))
            finals.append(result.objective_value)
            feasible_count += int(result.feasible)
        wall_meta[f"wall_s_{alg}"] = f"{time.perf_counter() - t0:.3f}"
        mean_f = statistics.fmean(finals)
        stdev_f = statistics.stdev(finals) if len(finals) > 1 else 0.0
        summary_rows.append((alg, args.reps, mean_f, stdev_f,
                             feasible_count / args.reps))
        print(f"place {alg}: mean best F {mean_f:.6f} "
              f"(feasible {feasible_count}/{args.reps})")

    _write_out(args, "place_summary.csv",
               ("algorithm", "reps", "mean_best_F", "stdev_best_F", "feasible_rate"),
               summary_rows, **wall_meta)
    return 0


# ---------------------------------------------------------------------------
# train / train-dist


def cmd_train(args: argparse.Namespace, cfg: Config) -> int:
    cluster, workload, releases, spec, episodes, dqn_cfg, sync = _train_inputs(args, cfg)
    t0 = time.perf_counter()
    result = centralized_mode(cluster, workload, episodes, dqn_cfg=dqn_cfg,
                              sync=sync, reward_spec=spec, releases=releases,
                              seed=args.seed)
    wall = time.perf_counter() - t0

    if result.trace:
        print(f"train: {episodes} episodes, {result.updates} updates, "
              f"final wc {result.trace[-1].total_wc:.4f}")
    else:
        print(f"train: {episodes} episodes, policy left at initialization")
    _write_out(args, "rewards.csv",
               ("episode", "steps", "total_reward", "total_wc", "epsilon", "updates"),
               [(r.episode, r.steps, r.total_reward, r.total_wc, r.epsilon, r.updates)
                for r in result.trace],
               episodes=episodes, wall_s=f"{wall:.3f}")
    policy_path = os.path.join(args.out, "policy.json")
    save_policy(result.policy, policy_path,
                metadata={"episodes": episodes, "updates": result.updates,
                          "state_dim": state_dim(cluster.n), "n_actions": cluster.n})
    print(f"wrote {policy_path}")
    return 0


def _listen_endpoint(args: argparse.Namespace) -> tuple[str, int]:
    text = os.environ.get(ENDPOINT_ENV_VAR) if args.listen is None else args.listen
    return ("127.0.0.1", 0) if text is None else parse_endpoint(text)


def cmd_train_dist(args: argparse.Namespace, cfg: Config) -> int:
    cluster, workload, releases, spec, episodes, dqn_cfg, sync = _train_inputs(args, cfg)
    try:
        host, port = _listen_endpoint(args)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    dims = {"state_dim": state_dim(cluster.n), "n_actions": cluster.n}
    t0 = time.perf_counter()
    learner = Learner(**dims, cfg=dqn_cfg, sync=sync, seed=args.seed, host=host, port=port,
                      max_updates=cfg.get("dist.max_updates"),
                      expected_workers=args.workers).start()
    reports: dict[str, WorkerReport] = {}
    failures: list[tuple[str, Exception]] = []

    def run(worker_id: str, index: int) -> None:
        try:
            reports[worker_id] = worker_loop(
                learner.address, worker_id, cluster, workload, episodes,
                sync=sync, dqn_cfg=dqn_cfg, reward_spec=spec, releases=releases,
                rng=np.random.default_rng([args.seed, 7, index]))
        except Exception as exc:  # the learner would wait for this worker forever
            failures.append((worker_id, exc))
            learner.stop(f"worker {worker_id} failed")

    threads = [threading.Thread(target=run, args=(f"w{i:02d}", i))
               for i in range(args.workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        learner.join(timeout=10.0)
        worker_id, exc = failures[0]
        raise RuntimeError(f"worker {worker_id} failed: {type(exc).__name__}: {exc}") from exc
    if not learner.join(timeout=60.0):
        learner.stop()
        learner.join(timeout=10.0)
        raise RuntimeError("learner did not drain within 60s of worker exit")
    wall = time.perf_counter() - t0

    sent = sum(r.experiences_sent for r in reports.values())
    if learner.received_experiences != sent:
        raise RuntimeError(
            f"experience loss: workers sent {sent}, "
            f"learner received {learner.received_experiences}")

    print(f"train-dist: {args.workers} workers, {sent} experiences, "
          f"{learner.updates} updates, policy version {learner.policy_version}")
    _write_out(args, "train_dist.csv",
               ("worker_id", "episodes", "batches_sent", "experiences_sent"),
               [(wid, r.episodes_run, r.batches_sent, r.experiences_sent)
                for wid, r in sorted(reports.items())],
               workers=args.workers, updates=learner.updates,
               policy_version=learner.policy_version,
               received=learner.received_experiences, wall_s=f"{wall:.3f}")
    policy_path = os.path.join(args.out, "policy.json")
    save_policy(learner.agent.online, policy_path,
                metadata={"workers": args.workers, "updates": learner.updates, **dims})
    print(f"wrote {policy_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _policy_from_file(path: str, cluster: ClusterSpec) -> Callable[[np.ndarray], int]:
    if not os.path.exists(path):
        raise CliError(f"policy file not found: {path}")
    try:
        params, _ = load_policy(path)
    except Exception as exc:
        raise CliError(f"cannot load policy {path}: {exc}") from exc
    inputs = state_dim(cluster.n)
    if params.layer_sizes[0] != inputs or params.layer_sizes[-1] != cluster.n:
        raise CliError(
            f"policy shape {params.layer_sizes} does not fit a {cluster.n}-node "
            f"cluster (needs {inputs} inputs, {cluster.n} outputs)")
    return lambda state: int(np.argmax(forward(params, np.asarray(state, dtype=float))))


def cmd_simulate(args: argparse.Namespace, cfg: Config) -> int:
    cluster, workload, releases, spec = _sim_inputs(cfg, args.seed)
    baseline = args.baseline or cfg.get("simulate.baseline")
    policy_path = args.policy or cfg.get("simulate.policy")
    if policy_path is not None and baseline is not None:
        raise CliError("give either a policy file or a baseline, not both")

    t0 = time.perf_counter()
    if policy_path is not None:
        source = f"policy:{os.path.basename(policy_path)}"
        result = run_episode(cluster, workload, _policy_from_file(policy_path, cluster),
                             reward_spec=spec, releases=releases)
    else:
        name = baseline or "round_robin"
        source = f"baseline:{name}"
        if name == "round_robin":
            result = baseline_round_robin(cluster, workload, spec, releases)
        elif name == "greedy":
            result = baseline_greedy(cluster, workload, spec, releases)
        elif name == "random":
            rng = np.random.default_rng(args.seed)
            result = run_episode(cluster, workload,
                                 lambda s: int(rng.integers(cluster.n)),
                                 reward_spec=spec, releases=releases)
        else:
            raise CliError(f"unknown baseline {name!r}; pick from "
                           "['greedy', 'random', 'round_robin']")
    wall = time.perf_counter() - t0

    schedule_rows = [(dag.id, task_id, run.node, run.start_s, run.finish_s, run.energy_j,
                      run.success) for dag, config in zip(workload, result.configs)
                     for task_id, run in sorted(config.entries.items())]
    failures = sum(not run.success for c in result.configs for run in c.entries.values())
    print(f"simulate {source}: rt {result.total_rt:.4f}s, "
          f"energy {result.total_ec:.2f}J, wc {result.total_wc:.4f}, "
          f"failures {failures}")
    _write_out(args, "schedule.csv",
               ("app_id", "task_id", "node", "start_s", "finish_s", "energy_j", "success"),
               schedule_rows, source=source, wall_s=f"{wall:.3f}")
    _write_out(args, "metrics.csv",
               ("response_time_s", "energy_j", "weighted_cost", "total_reward", "failures"),
               [(result.total_rt, result.total_ec, result.total_wc,
                 fold_sum(result.rewards), failures)],
               source=source, wall_s=f"{wall:.3f}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace, cfg: Config) -> int:
    inst = _resolve_instance(cfg, np.random.default_rng([args.seed, 0]))
    t0 = time.perf_counter()
    try:
        assignment, best_f = brute_force_optimal(inst)
    except InstanceTooLarge as exc:
        raise CliError(str(exc)) from exc
    wall = time.perf_counter() - t0

    doc = {"m": inst.num_components, "n": inst.num_nodes,
           "assignment": list(assignment.node_of), "objective_value": best_f,
           "fitness": fitness(assignment, inst)}
    oracle_path = os.path.join(args.out, "oracle.json")
    with open(oracle_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"oracle: F {best_f:.6f}, assignment {list(assignment.node_of)} "
          f"({wall:.2f}s)")
    print(f"wrote {oracle_path}")
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace, cfg: Config) -> int:
    generations = cfg.get("bench.generations", 20)
    m = cfg.get("bench.m", 30)
    n = cfg.get("bench.n", 10)
    with _from_keys(cfg, "bench.populations", "bench.generations", "bench.m", "bench.n"):
        populations = [int(p) for p in cfg.get("bench.populations", "25,50,100,200").split(",")
                       if p.strip()]
        runs = [PlacementParams.madcp(population_size=pop, generations=generations)
                for pop in populations]
        inst = random_instance(m, n, rng=np.random.default_rng([args.seed, 0]))
    if not populations:
        raise CliError("bench.populations is empty")

    rows = []
    medians: dict[int, float] = {}
    for pop, params in zip(populations, runs):
        result = madcp_run(inst, params, rng=np.random.default_rng([args.seed, 1, pop]))
        med = medians[pop] = statistics.median(result.trace.generation_times_ms())
        rows.append((pop, generations, m, n, result.objective_value,
                     result.feasible))
        print(f"bench P={pop}: median generation {med:.3f} ms, "
              f"best F {result.objective_value:.4f}")

    meta: dict[str, object] = {"m": m, "n": n, "generations": generations,
                               **{f"median_gen_ms_p{p}": f"{v:.4f}" for p, v in medians.items()}}
    for pop in populations:
        if pop * 2 in medians and medians[pop] > 0:
            ratio = medians[pop * 2] / medians[pop]
            meta[f"doubling_ratio_p{pop}_p{pop * 2}"] = f"{ratio:.3f}"
            print(f"bench doubling P={pop}->{pop * 2}: ratio {ratio:.2f}")

    _write_out(args, "bench.csv",
               ("population", "generations", "m", "n", "best_F", "feasible"), rows, **meta)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _int_in(name: str, lo: int, hi: float = math.inf) -> Callable[[str], int]:
    """argparse type: an integer in [lo, hi]."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"{name} must lie in [{lo}, {hi}]")
        return v
    return parse


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="flat JSON config with module.param keys")
    common.add_argument("--seed", type=_int_in("seed", 0, 2 ** 64 - 1), default=0,
                        help="master seed (default 0)")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default ./out)")
    common.add_argument("--reps", type=_int_in("reps", 1), default=10,
                        help="seeded repetitions where applicable (default 10)")

    parser = _Parser(prog="reinfog",
                     description="placement search, scheduler training, and "
                                 "simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", parents=[common],
                       help="run placement searches over seeded repetitions")
    p.add_argument("--algorithms", default=None,
                   help="comma list from madcp,ga,fa,pso,random")
    p.add_argument("--timing", action="store_true",
                   help="record real per-generation wall times in trace CSVs")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("train", parents=[common],
                       help="train a scheduling policy in a single process")
    p.add_argument("--episodes", type=int, default=None,
                   help="override train.episodes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-dist", parents=[common],
                       help="train with local workers streaming to a learner")
    p.add_argument("--episodes", type=int, default=None,
                   help="override train.episodes (per worker)")
    p.add_argument("--workers", type=_int_in("workers", 1, 30), default=2,
                   help="local worker count, 1..30 (default 2)")
    p.add_argument("--listen", default=None,
                   help=f"learner bind address host:port "
                        f"(default {ENDPOINT_ENV_VAR} or 127.0.0.1:0)")
    p.set_defaults(func=cmd_train_dist)

    p = sub.add_parser("simulate", parents=[common],
                       help="run one workload under a policy or baseline")
    p.add_argument("--policy", metavar="PATH", default=None,
                   help="saved policy JSON to drive scheduling")
    p.add_argument("--baseline", default=None,
                   help="round_robin, greedy, or random (default round_robin)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive optimal placement for small instances")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", parents=[common],
                       help="time search generations across population sizes")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else {}
        os.makedirs(args.out, exist_ok=True)
        return args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything past argument/config checks is runtime
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
