"""Short benchmark runs: their output checks and checkpoint hooks must hold on the current code.

The benchmark recomputes each served forecast from fresh cell forwards and
recombines the rolling evaluation's per-cell MAEs, both to 1e-9; the
untraced runs guard those checks against a change in the forward
arithmetic, on the synthetic trace and on the 50-channel wide series (one
epoch of its 463k-parameter mlp, about 14 s). The traced run guards the
checkpoint and energy-study hooks and figures, so that they cannot go dead
without a failing test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _untraced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result.get("checks")
    assert result["failed"] == 0


def test_benchmark_synth_train_run_is_correct():
    _untraced_run_is_correct("synth_train")


def test_benchmark_wide_train_run_is_correct():
    _untraced_run_is_correct("wide_train")


# Trains and saves the synth_train flagship model as the benchmark prepares
# it; importing the benchmark first pins BLAS to one thread, as in its runs.
_FLAGSHIP_CHECKPOINT = """
import sys
sys.path.insert(0, "benchmarks")
import run
from intervalcast import intervals, training

wl = run.WORKLOADS["synth_train"]
policy = training.PolicyConfig(
    "dstar", partition=intervals.DiscretePartition(run.L_CELLS),
    nu=intervals.DecaySpec(wl.nu), phi=run.PHI,
)
ds = run.setup_data(wl, 3, None)
params, steps = run.train_once(ds, policy, 3, run.FLAGSHIP_EPOCHS, run.Tally(), run.Samples())[:2]
training.save_checkpoint(sys.argv[1], params, steps, policy)
"""


def test_benchmark_traced_run_sees_checkpoint_hooks(tmp_path):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "synth_train",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    # the run lists each hooked name it could not find, module path and all
    absent = [line.split(": ", 1)[1] for line in lines if line.startswith("# absent")]
    for name in ("training.load_checkpoint", "training.save_checkpoint",
                 "energy.sweep_threshold", "energy.compare_decisions"):
        assert not any(a.endswith(name) for a in absent), absent
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("training.load_checkpoint_s", "energy.sweep_threshold_self_s",
                 "energy.compare_decisions_s"):
        assert metrics[name]["value"] > 0, name

    checkpoint = tmp_path / "checkpoint.json"
    made = subprocess.run(
        [sys.executable, "-c", _FLAGSHIP_CHECKPOINT, str(checkpoint)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert made.returncode == 0, made.stderr
    doc = json.loads(checkpoint.read_text())
    assert doc["version"] == 3 and doc["optimizer"].keys() == {"step"}
    assert metrics["training.checkpoint_bytes"]["value"] == checkpoint.stat().st_size
