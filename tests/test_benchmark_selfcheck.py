import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parent.parent / "perfbench" / "selfcheck.py"


def test_benchmark_selfcheck_passes_and_traces_every_layer():
    proc = subprocess.run([sys.executable, str(SELFCHECK)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # a missing tracer target would silently report its layer as zero
    assert "tracer: not found" not in proc.stderr, proc.stderr
