"""Benchmark of reinfog: one workload per call, end to end or traced per layer.

    python3 perfbench/run.py --workload sched --seed 1 --seconds 25 --trace 0

Workloads: place (madcp_run), sched (simulator decisions), train
(centralized DQN training) and dist (learner plus worker threads over TCP).
Each runs in fresh child processes against the checkout's own src/ tree,
with one BLAS thread. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of the chosen workload; with --trace 1 the command runs
every workload's traced pass and prints every per-layer metric. Full detail
goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("place", "sched", "train", "dist")
SETUP_SAMPLES = 5  # set-ups timed per run; setup_s is their median
BLAS_THREADS = "1"
CHILD_GRACE_S = 60.0   # a child's allowance beyond its measuring time
RUN_LIMIT_S = 170.0    # the whole command ends within this, children included


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(spec: dict, timeout: float, deadline: float) -> tuple[float, dict]:
    """Start one child, wait for it, and return (start instant, its report)."""
    started = time.monotonic()
    timeout = min(timeout, deadline - started)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['workload']} child ran past {timeout:.0f} s")
    if stderr.strip():
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']} child exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "platform": platform.platform(), "git_sha": git_sha()}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        started, rep = run_child({"mode": "setup", "workload": workload, "seed": seed},
                                 CHILD_GRACE_S, deadline)
        setups.append(rep["setup_end"] - started)
    started, rep = run_child({"mode": "run", "workload": workload, "seed": seed,
                              "seconds": seconds}, seconds + CHILD_GRACE_S, deadline)
    if "ops_per_cpu_s" not in rep:
        raise BenchError(f"no {workload} round passed: {rep['wrong'] + rep['errors']}")
    setups.append(rep["setup_end"] - started)
    metrics = {
        "ops_per_cpu_s": (rep["ops_per_cpu_s"], "ops/cpu-s"),
        "decision_ms_p50": (rep["decision_ms_p50"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    detail = dict(rep["info"], setup_samples_s=setups)
    return {"metrics": metrics, "attempted": rep["attempted"], "failed": rep["failed"],
            "wrong": rep["wrong"], "errors": rep["errors"], "detail": detail}


def traced(seed: int, seconds: int, deadline: float) -> dict:
    """Every workload's traced pass; each per-layer metric comes from its home workload."""
    share = seconds / len(WORKLOADS)
    total = {"metrics": {}, "attempted": 0, "failed": 0, "wrong": [], "errors": [],
             "detail": {}}
    for workload in WORKLOADS:
        _, rep = run_child({"mode": "trace", "workload": workload, "seed": seed,
                            "seconds": share}, share + CHILD_GRACE_S, deadline)
        if "metrics" not in rep:
            raise BenchError(f"no {workload} round passed: {rep['wrong'] + rep['errors']}")
        total["metrics"].update({k: tuple(v) for k, v in rep["metrics"].items()})
        for key in ("attempted", "failed", "wrong", "errors"):
            total[key] += rep[key]
        total["detail"][workload] = {k: rep[k] for k in ("untraced_ops_per_cpu_s",
                                                         "traced_ops_per_cpu_s")}
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must lie in 1..60 and --seed be non-negative")
    if not (ROOT / "src" / "reinfog" / "__init__.py").is_file():
        print(f"error: no reinfog source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    facts = machine_facts()
    print(f"# machine {json.dumps(facts)}")
    try:
        if args.trace:
            result = traced(args.seed, args.seconds, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for problem in result["wrong"] + result["errors"]:
        print(f"# FAILED: {problem}", file=sys.stderr)
    correct = not result["wrong"]
    print(f"# {args.workload} seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"checks {'passed' if correct else 'FAILED'}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name:42s} {value:14.6g} {unit}")
    if not args.trace:
        d = result["detail"]
        print(f"# {d['rounds']} timed rounds, {d['decision_samples']} decision samples; "
              f"not bounded: wall ops/s (median) {d['wall_ops_per_s_median']:.6g}, "
              f"decision_ms p99 (pooled) {d['decision_ms_p99_pooled']:.6g}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, machine=facts, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
