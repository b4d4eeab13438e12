"""One short benchmark run: its output checks must hold on the current code.

The benchmark recomputes each served forecast from fresh cell forwards and
recombines the rolling evaluation's per-cell MAEs, both to 1e-9; this run
guards those checks against a change in the forward arithmetic.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_synth_train_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "synth_train",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result.get("checks")
    assert result["failed"] == 0
