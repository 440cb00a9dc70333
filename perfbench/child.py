"""One workload in a fresh process; run.py starts it and reads its last line.

    python3 perfbench/child.py '{"mode": "run", "workload": "sched", "seed": 1, "seconds": 25}'

Modes: "setup" stops where the first op would start and reports that
instant; "run" adds one untimed warm-up round and then timed rounds; "trace"
alternates plain and traced rounds after the warm-up, and reports
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Import reinfog from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import reinfog

    if not Path(reinfog.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"reinfog came from {reinfog.__file__}, not {SRC}")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def round(self, workload, rounds: list):
        """Run one round; keep it if it passed, count its ops as failed if not."""
        from oracle import CheckFailed

        gc.collect()
        self.attempted += workload.ops_per_round
        try:
            rounds.append(workload.run_round())
        except CheckFailed as exc:
            self.failed += workload.ops_per_round
            self.wrong.append(str(exc))
        except Exception:
            self.failed += workload.ops_per_round
            self.errors.append(traceback.format_exc(limit=4))

    def rounds_for(self, workload, seconds: float) -> list:
        rounds: list = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            self.round(workload, rounds)
        return rounds


def cpu_rates(rounds: list) -> list[float]:
    return [r.ops / r.cpu_seconds for r in rounds]


def summarise(rounds: list) -> dict:
    """The end-to-end figures of a run, taken from its slowest round.

    On the reference host the CPU-time rate of one and the same round moves
    between a slow and a fast level, up to 1.9 times apart, in stretches of
    seconds to minutes. Nearly every run visits the slow level, so the
    slowest round repeats from run to run where medians over all rounds do
    not. A change to the program moves every round, the slowest with them.
    """
    import numpy as np

    medians = [statistics.median(r.decision_ms) for r in rounds]
    decisions = [ms for r in rounds for ms in r.decision_ms]
    return {
        "ops_per_cpu_s": min(cpu_rates(rounds)),
        "decision_ms_p50": max(medians),
        "info": {
            "wall_ops_per_s_median": statistics.median(r.ops / r.seconds for r in rounds),
            "decision_ms_p99_pooled": float(np.percentile(decisions, 99)),
            "decision_samples": len(decisions),
            "rounds": len(rounds),
            "round_cpu_rates": cpu_rates(rounds),
            "round_wall_rates": [r.ops / r.seconds for r in rounds],
            "round_decision_ms_p50": medians,
            "facts": {k: statistics.median(r.facts[k] for r in rounds)
                      for k in rounds[0].facts},
        },
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    import_program()
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    workload.setup()
    setup_end = time.monotonic()
    out: dict = {"setup_end": setup_end}
    tally = Tally()
    try:
        if spec["mode"] == "setup":
            return emit(out)
        try:
            workload.verify_setup()
        except Exception as exc:
            tally.wrong.append(f"set-up: {exc}")
        tally.round(workload, [])  # warm-up, untimed
        if spec["mode"] == "run":
            rounds = tally.rounds_for(workload, spec["seconds"])
            if rounds:
                out.update(summarise(rounds))
        else:
            from tracer import Tracer
            # alternate plain and traced rounds so drift hits both alike
            tracer = Tracer()
            plain: list = []
            traced: list = []
            start = time.perf_counter()
            while not plain or time.perf_counter() - start < spec["seconds"]:
                tally.round(workload, plain)
                tracer.install()
                try:
                    tally.round(workload, traced)
                finally:
                    tracer.uninstall()
            if plain and traced:
                untraced_rate = statistics.median(cpu_rates(plain))
                traced_rate = statistics.median(cpu_rates(traced))
                metrics = workload.layer_metrics(tracer, traced)
                metrics[f"trace_overhead.{workload.name}.pct"] = (
                    (untraced_rate / traced_rate - 1.0) * 100.0, "%")
                out.update(metrics=metrics, untraced_ops_per_cpu_s=untraced_rate,
                           traced_ops_per_cpu_s=traced_rate)
    finally:
        workload.close()
    out.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
               errors=tally.errors,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return emit(out)


def emit(out: dict) -> int:
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
