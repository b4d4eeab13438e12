"""intervalcast benchmark: training throughput, query serving and a per-layer split.

Run from the repository root:

    python3 benchmarks/run.py --workload synth_train --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
same run with every layer's public functions wrapped in timing spans and
reports the per-layer metrics instead.  ``BENCHMARK.json`` at the repository
root lists the workloads, the metrics and their bounds.

Every workload runs the whole user path in one process and from one caller
(closed loop), with BLAS pinned to one thread: data set-up, training,
patched forecasts for random query intervals, rolling evaluation and the
energy threshold study.  The workloads differ in the data, the model size
and where the time budget goes.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the figures for a reader.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS reads its thread count when numpy loads it, so pin before the import.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "intervalcast" / "__init__.py").is_file():
    sys.exit(f"error: no intervalcast package source under {SRC}")
sys.path.insert(0, str(SRC))

from intervalcast import (  # noqa: E402
    data,
    energy,
    evaluation,
    intervals,
    models,
    patching,
    training,
)
from intervalcast.errors import IntervalcastError  # noqa: E402

import inputs  # noqa: E402
import opcount  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

TAU = 24
L_CELLS = 8
PHI = 0.5
HIDDEN = 64
FLAGSHIP_EPOCHS = 50
SPLIT = data.SplitSpec(0.66, 0.17, 0.17)
SYNTH_NOISE = 0.05
WIDE_CHANNELS = 50
WIDE_DOMAIN_MAX = 100.0
EVAL_CELLS = 4
STRATEGIES = (patching.STRATEGY_AVERAGE, patching.STRATEGY_MAXCONF)

QUERY_POOL = 512
MIN_ROUNDS = 3
MIN_ROUND_FORECASTS = 1000  # calls behind each round's median latency
USEFUL_WEIGHT = 0.01  # a drawn sample below this loss weight carries ~no gradient
ENVELOPE_TOL = 1e-9   # recomputed cell outputs may differ from the served ones by rounding


@dataclass(frozen=True)
class Workload:
    data: str               # "synth": generate_synthds; "wide": the 50-channel CSV
    w: int
    nu: float
    epochs: int             # cap per measured train() call
    serve_checkpoint: bool  # serve a checkpoint trained in preparation, not each round's model
    setup_reps: int         # timed set-ups per round
    slices: tuple[float, float, float]  # seconds per round: serve, rolling eval, energy


WORKLOADS = {
    # README flagship, early stopping within 50 epochs; training time goes to
    # per-sample Python work (policy draws, batch assembly), where vectorised
    # draws should show.  The served model is a reloaded checkpoint of it, so
    # serving is forward passes of 1 to 8 rows and Python overhead in
    # patching and intervals.
    "synth_train": Workload("synth", 48, 37.0, FLAGSHIP_EPOCHS, True, 3, (1.0, 0.3, 0.3)),
    # Matrix kernels of a 463k-parameter mlp.  nu=0 because any nu >= 1
    # drives the decay product over 24 x 50 target entries to 0.  One epoch
    # per call keeps several train() calls inside the time budget.
    "wide_train": Workload("wide", 96, 0.0, 1, False, 2, (0.3, 0.3, 0.3)),
}


@dataclass
class Dataset:
    cfg: data.WindowConfig
    train: list
    val: list
    test: list
    test_series: data.TimeSeries
    windows: int
    clipped_entries: int


@dataclass
class Tally:
    """Operations attempted and failed; a failure is counted, not raised."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except IntervalcastError as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def percentile_ms(seconds, q) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if len(seconds) else 0.0


def pooled_rate(work) -> float:
    """Units of work per second over all (units, seconds) samples of a run."""
    seconds = sum(s for _, s in work)
    return sum(n for n, _ in work) / seconds if seconds else 0.0


# ---------------------------------------------------------------------------
# phases (library calls go through module attributes so tracing can see them)


def setup_data(wl: Workload, seed: int, csv_path: Path) -> Dataset:
    if wl.data == "synth":
        raw = data.generate_synthds(seed, SYNTH_NOISE)
    else:
        raw = data.load_csv(str(csv_path), WIDE_CHANNELS, WIDE_DOMAIN_MAX)
    series, record = data.normalize(raw)
    cfg = data.WindowConfig(wl.w, TAU)
    windows = data.make_windows(series, cfg)
    train_s, val_s, test_s = data.chrono_split(windows, SPLIT)
    first, last = test_s[0].t_origin, test_s[-1].t_origin
    test_series = data.TimeSeries(
        series.values[first - cfg.w : last + cfg.tau], series.channel_names, series.domain_max
    )
    return Dataset(cfg, train_s, val_s, test_s, test_series, len(windows), record.clipped_entries)


@dataclass
class Samples:
    """Per-round measurements of one run.

    Rates are (units of work, seconds) pairs, pooled over the run; times are
    averaged, except the 99th percentile latency, which is taken over every
    call of the run: a round's own p99 rests on its 10 slowest calls, so one
    burst of outside load in one round could move the average.  On a
    shared host the single-thread speed can flip between two levels 1.4x
    to 1.7x apart every few seconds.  The median of a run's samples then
    jumps from one level to the other when the run spends about half its
    time in each; the pooled rate and the mean move with that share
    smoothly.
    """

    reports: list = field(default_factory=list)
    train_work: list = field(default_factory=list)
    forecasts: int = 0
    p50_ms: list = field(default_factory=list)
    # Per round, an array of call seconds: 8 bytes a call, so peak_rss_mb
    # barely grows when the program serves more calls in the same time.
    latencies: list = field(default_factory=list)
    forecast_work: list = field(default_factory=list)
    first: dict = field(default_factory=dict)  # pool index -> its first forecast
    eval_work: list = field(default_factory=list)
    eval_results: list = field(default_factory=list)
    energy_times: list = field(default_factory=list)
    bests: list = field(default_factory=list)


def train_once(ds, policy, seed, epochs, tally, samples):
    """One train() call: the model, optimizer state, windows trained and seconds, or None."""
    t0 = time.perf_counter()
    out = tally.call(training.train, policy, "mlp", ds.train, ds.val, seed,
                     epochs=epochs, hidden=HIDDEN)
    elapsed = time.perf_counter() - t0
    if out is None:
        return None
    params, report, opt = out
    samples.reports.append(report)
    return params, opt, len(report.epochs) * len(ds.train), elapsed


def serve_chunk(params, policy, pool, seconds, tally, samples):
    """Back-to-back forecast calls cycling through the query pool."""
    latencies = []
    start, calls = time.perf_counter(), 0
    while calls < MIN_ROUND_FORECASTS or time.perf_counter() - start < seconds:
        i = samples.forecasts % len(pool)
        history, query, strategy = pool[i]
        t0 = time.perf_counter()
        pred = tally.call(patching.forecast, params, policy, history, query, strategy)
        t1 = time.perf_counter()
        samples.forecasts += 1
        calls += 1
        if pred is not None:
            latencies.append(t1 - t0)
            samples.first.setdefault(i, pred)
    elapsed = time.perf_counter() - start
    if not latencies:
        return
    samples.p50_ms.append(float(np.median(latencies)) * 1e3)
    samples.latencies.append(np.array(latencies))
    samples.forecast_work.append((len(latencies), elapsed))


def eval_chunk(params, policy, ds, seconds, tally, samples):
    """Rolling evaluation over the test span, both strategies per repetition."""
    cells = intervals.DiscretePartition(EVAL_CELLS).intervals
    origins = len(range(ds.cfg.w, ds.test_series.T - ds.cfg.tau + 1, ds.cfg.tau))
    forecasts = len(STRATEGIES) * origins * len(cells)
    start, reps = time.perf_counter(), 0
    while reps == 0 or time.perf_counter() - start < seconds:
        reps += 1
        t0 = time.perf_counter()
        out = [tally.call(evaluation.rolling_eval, params, policy, ds.test_series,
                          ds.cfg, cells, s) for s in STRATEGIES]
        elapsed = time.perf_counter() - t0
        if None not in out:
            samples.eval_work.append((forecasts, elapsed))
            samples.eval_results.append(out)


def _heap_release():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


HEAP_RELEASE = _heap_release()


def sweep_best(u, grid, cfg, tally):
    """The sweep's best threshold; its per-threshold outcomes are freed on return."""
    swept = tally.call(energy.sweep_threshold, u, grid, cfg)
    return None if swept is None else swept[1]


def energy_chunk(u, u_forecast, seconds, tally, samples):
    """Threshold sweep plus forecast-vs-truth decision comparison at its best threshold."""
    cfg = energy.EnergySimConfig()
    grid = energy.default_threshold_grid()
    start, reps = time.perf_counter(), 0
    while reps == 0 or time.perf_counter() - start < seconds:
        reps += 1
        # Freed heap is reused or page-faulted afresh depending on earlier
        # allocations, which made this timing bimodal.  Returning it to the
        # OS first makes every sweep fault its ~80 MB of temporaries, as a
        # fresh process running the study once does.
        if HEAP_RELEASE is not None:
            HEAP_RELEASE(0)
        t0 = time.perf_counter()
        best = sweep_best(u, grid, cfg, tally)
        if best is None:
            continue
        decisions = tally.call(energy.compare_decisions, u, u_forecast, best, cfg)
        elapsed = time.perf_counter() - t0
        if decisions is not None:
            samples.energy_times.append(elapsed)
            samples.bests.append(best)


# ---------------------------------------------------------------------------
# output checks (run after the measured phases, with tracing removed)


def check_losses(reports) -> bool:
    return bool(reports) and all(
        math.isfinite(e.train_loss) and math.isfinite(e.val_loss)
        for r in reports for e in r.epochs
    )


def check_served(params, partition, pool, first) -> bool:
    """Each served forecast equals one recomputed from its cells' outputs.

    avg is the confidence-weighted mean of the cells' regression outputs
    (a cell's confidence is the mean of its probability head) and lies in
    their per-entry envelope; max is the output of the most confident cell.
    """
    if not first:
        return False
    for i, pred in first.items():
        history, query, strategy = pool[i]
        cells = intervals.intersecting(partition, query)
        reg, prob = models.forward_batch(params, np.repeat(history[None], len(cells), axis=0), cells)
        if pred.shape != reg.shape[1:] or not np.all(np.isfinite(pred)):
            return False
        conf = prob.mean(axis=(1, 2))
        if strategy == patching.STRATEGY_AVERAGE:
            inside = (pred >= reg.min(axis=0) - ENVELOPE_TOL) & (pred <= reg.max(axis=0) + ENVELOPE_TOL)
            expected = np.tensordot(conf / conf.sum(), reg, axes=1)
            if not inside.all():
                return False
        else:
            expected = reg[int(np.argmax(conf))]
        if not np.allclose(pred, expected, rtol=0.0, atol=ENVELOPE_TOL):
            return False
    return True


def check_rolling(params, ds, results) -> bool:
    """Timed results tile the entries and repeat exactly; per-cell MAEs recombine.

    The recombination invariant needs one prediction per entry shared by all
    cells, so it is checked on the query-independent forecast (the baseline
    dispatch conditions every query on the full domain).
    """
    if not results:
        return False
    for rep in results:
        for strategy_metrics, reference in zip(rep, results[0]):
            if [m.mae for m in strategy_metrics] != [m.mae for m in reference]:
                return False
            if sum(m.covered_entries for m in strategy_metrics) != strategy_metrics[0].total_entries:
                return False
    cells = intervals.DiscretePartition(EVAL_CELLS).intervals
    blind = training.PolicyConfig("b")
    per_cell = evaluation.rolling_eval(params, blind, ds.test_series, ds.cfg, cells)
    (full,) = evaluation.rolling_eval(params, blind, ds.test_series, ds.cfg, [intervals.FULL_DOMAIN])
    covered = sum(m.covered_entries for m in per_cell)
    recombined = sum(m.mae * m.covered_entries for m in per_cell if m.mae is not None) / covered
    return covered == full.covered_entries and math.isclose(recombined, full.mae, rel_tol=1e-9)


def check_sweep(u, bests) -> bool:
    """The sweep's best threshold is the argmax of an independently computed objective."""
    if not bests:
        return False
    cfg = energy.EnergySimConfig()
    grid = energy.default_threshold_grid()
    load = u * cfg.c_cap
    objective = []
    for th in grid:
        on = u >= th
        served = np.where(on, np.minimum(load, cfg.c_cap), cfg.alpha * np.minimum(load, cfg.c_cov))
        spent = np.where(on, cfg.e_on, cfg.e_off)
        objective.append((1.0 - cfg.lam) * served.mean() - cfg.lam * spent.mean())
    expected = float(grid[int(np.argmax(objective))])
    return all(b == expected for b in bests)


# ---------------------------------------------------------------------------
# tracing


def _add(key, measure):
    def count(counts, args, result):
        counts[key] = counts.get(key, 0) + measure(args, result)
    return count


def _loss_weights(counts, args, result):
    weights = [spec.weight for spec in result]
    counts["weight_sum"] = counts.get("weight_sum", 0.0) + sum(weights)
    counts["samples"] = counts.get("samples", 0) + len(weights)
    counts["useful"] = counts.get("useful", 0) + sum(w >= USEFUL_WEIGHT for w in weights)


# (module, name its caller looks up, span name, counter)
SPANS = (
    (data, "load_csv", "data.load_csv", None),
    (data, "normalize", "data.normalize", None),
    (data, "make_windows", "data.make_windows", None),
    (data, "chrono_split", "data.chrono_split", None),
    (data, "generate_synthds", "data.generate_synthds", None),
    (training, "train", "training.train", None),
    (training, "make_batch_losses", "training.make_batch_losses", _loss_weights),
    (training, "backward", "models.backward", _add("backward_rows", lambda a, r: len(a[1]))),
    (training, "adamw_update", "training.adamw_update", None),
    (training, "validation_loss", "training.validation_loss", None),
    (training, "forward_batch", "models.forward_batch_validation",
     _add("validation_rows", lambda a, r: len(a[1]))),
    (training, "save_checkpoint", "training.save_checkpoint", None),
    (training, "load_checkpoint", "training.load_checkpoint", None),
    (patching, "forecast", "patching.forecast", None),
    (evaluation, "forecast", "patching.forecast", None),
    (patching, "patch_average", "patching.patch_average", None),
    (patching, "patch_maxconf", "patching.patch_maxconf", None),
    (patching, "intersecting", "intervals.intersecting", _add("cells", lambda a, r: len(r))),
    (patching, "forward_batch", "models.forward_batch_patching",
     _add("patching_rows", lambda a, r: len(a[1]))),
    (evaluation, "rolling_eval", "evaluation.rolling_eval", None),
    (evaluation, "interval_membership", "evaluation.interval_membership", None),
    (energy, "sweep_threshold", "energy.sweep_threshold", None),
    (energy, "simulate", "energy.simulate", None),
    (energy, "compare_decisions", "energy.compare_decisions", None),
)


def layer_metrics(tracer: Tracer, wall_s: float, ctx: dict) -> dict[str, tuple[float, str]]:
    stats, top_s = tracer.summary()
    counts = tracer.counts

    def calls(span):
        return stats[span].calls if span in stats else 0

    def total(span):
        return stats[span].total_s if span in stats else 0.0

    def per_call(span):
        return stats[span].self_s / stats[span].calls if calls(span) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    arch = ctx["arch"]
    report = ctx["report"]
    backward_gflop = counts.get("backward_rows", 0) * opcount.backward_flop_per_row(arch) / 1e9
    adamw_bytes = opcount.adamw_bytes_per_update(arch)
    return {
        "data.load_csv_s": (per_call("data.load_csv"), "s/call"),
        "data.normalize_s": (per_call("data.normalize"), "s/call"),
        "data.make_windows_s": (per_call("data.make_windows"), "s/call"),
        "data.chrono_split_s": (per_call("data.chrono_split"), "s/call"),
        "data.generate_synthds_s": (per_call("data.generate_synthds"), "s/call"),
        "data.windows": (ctx["windows"], "count"),
        "data.clipped_entries": (ctx["clipped_entries"], "count"),
        "training.train_self_s": (per_call("training.train"), "s/call"),
        "training.train_calls": (calls("training.train"), "count"),
        "training.epochs_run": (len(report.epochs), "count"),
        "training.best_val_loss": (report.epochs[report.best_epoch].val_loss, "loss"),
        "training.make_batch_losses_s": (per_call("training.make_batch_losses"), "s/call"),
        "training.make_batch_losses_calls": (calls("training.make_batch_losses"), "count"),
        "training.weight_mean": (ratio(counts.get("weight_sum", 0.0), counts.get("samples", 0)), "weight"),
        "training.useful_sample_frac": (ratio(counts.get("useful", 0), counts.get("samples", 0)), "ratio"),
        "training.adamw_update_s": (per_call("training.adamw_update"), "s/call"),
        "training.adamw_update_calls": (calls("training.adamw_update"), "count"),
        "training.adamw_bytes_per_update": (adamw_bytes, "B"),
        "training.adamw_gbytes_per_s": (
            ratio(adamw_bytes * calls("training.adamw_update") / 1e9, total("training.adamw_update")),
            "GB/s",
        ),
        "training.validation_loss_s": (per_call("training.validation_loss"), "s/call"),
        "training.load_checkpoint_s": (per_call("training.load_checkpoint"), "s/call"),
        "training.checkpoint_bytes": (ctx["checkpoint_bytes"], "B"),
        "models.backward_s": (per_call("models.backward"), "s/call"),
        "models.backward_calls": (calls("models.backward"), "count"),
        "models.backward_flop_per_row": (opcount.backward_flop_per_row(arch), "FLOP"),
        "models.backward_gflop": (backward_gflop, "GFLOP"),
        "models.backward_gflops": (ratio(backward_gflop, total("models.backward")), "GFLOP/s"),
        "models.forward_flop_per_row": (opcount.forward_flop_per_row(arch), "FLOP"),
        "models.forward_batch_validation_s": (per_call("models.forward_batch_validation"), "s/call"),
        "models.forward_batch_validation_calls": (calls("models.forward_batch_validation"), "count"),
        "models.forward_batch_validation_rows": (counts.get("validation_rows", 0), "count"),
        "models.forward_batch_patching_s": (per_call("models.forward_batch_patching"), "s/call"),
        "models.forward_batch_patching_calls": (calls("models.forward_batch_patching"), "count"),
        "models.forward_batch_patching_rows": (counts.get("patching_rows", 0), "count"),
        "patching.forecast_self_s": (per_call("patching.forecast"), "s/call"),
        "patching.forecast_calls": (calls("patching.forecast"), "count"),
        "patching.patch_average_s": (per_call("patching.patch_average"), "s/call"),
        "patching.patch_maxconf_s": (per_call("patching.patch_maxconf"), "s/call"),
        "patching.cells_per_query": (
            ratio(counts.get("cells", 0), calls("intervals.intersecting")), "cells"
        ),
        "intervals.intersecting_s": (per_call("intervals.intersecting"), "s/call"),
        "intervals.intersecting_calls": (calls("intervals.intersecting"), "count"),
        "evaluation.rolling_eval_self_s": (per_call("evaluation.rolling_eval"), "s/call"),
        "evaluation.rolling_eval_calls": (calls("evaluation.rolling_eval"), "count"),
        "evaluation.interval_membership_s": (per_call("evaluation.interval_membership"), "s/call"),
        "evaluation.mae_avg": (ctx["mae_avg"], "mae"),
        "energy.sweep_threshold_self_s": (per_call("energy.sweep_threshold"), "s/call"),
        "energy.simulate_s": (per_call("energy.simulate"), "s/call"),
        "energy.simulate_calls": (calls("energy.simulate"), "count"),
        "energy.steps_per_s": (
            ratio(calls("energy.simulate") * ctx["utilization_steps"], total("energy.simulate")),
            "steps/s",
        ),
        "energy.compare_decisions_s": (per_call("energy.compare_decisions"), "s/call"),
        "trace.wall_s": (wall_s, "s"),
        "trace.top_level_s": (top_s, "s"),
        "trace.coverage": (ratio(top_s, wall_s), "ratio"),
        "trace.spans": (tracer.span_count, "count"),
        "trace.overhead_est_s": (tracer.span_count * span_cost(), "s"),
    }


# ---------------------------------------------------------------------------
# one run


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    # Scratch files stay inside the checkout the benchmark runs from.
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        return _run_in(Path(work), wl, seed, seconds, trace)


def _run_in(work: Path, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    csv_path = work / "wide.csv"
    checkpoint = work / "checkpoint.json"
    if wl.data == "wide":
        values = inputs.wide_series(seed, channels=WIDE_CHANNELS, domain_max=WIDE_DOMAIN_MAX)
        names = tuple(f"cell{c:02d}" for c in range(WIDE_CHANNELS))
        data.write_csv(data.TimeSeries(values, names, WIDE_DOMAIN_MAX), str(csv_path))
    u, u_forecast = inputs.utilization_traces(seed)
    policy = training.PolicyConfig(
        "dstar", partition=intervals.DiscretePartition(L_CELLS),
        nu=intervals.DecaySpec(wl.nu), phi=PHI,
    )
    tally, samples, tracer = Tally(), Samples(), Tracer()
    if trace:
        for module, name, span, count in SPANS:
            tracer.wrap(module, name, span, count)
    try:
        began = time.perf_counter()
        params = None
        if wl.serve_checkpoint:
            ds = setup_data(wl, seed, csv_path)
            trained = train_once(ds, policy, seed, FLAGSHIP_EPOCHS, tally, samples)
            if trained is None:
                raise RuntimeError(f"cannot prepare the checkpoint: {tally.errors}")
            params, opt = trained[:2]
            training.save_checkpoint(checkpoint, params, opt, policy)
        setup_times = []

        def set_up():
            nonlocal params, policy
            t0 = time.perf_counter()
            if wl.serve_checkpoint:
                params, _, policy = training.load_checkpoint(checkpoint)
            ds = setup_data(wl, seed, csv_path)
            setup_times.append(time.perf_counter() - t0)
            return ds

        ds = set_up()
        index, lo, hi = inputs.query_pool(seed, len(ds.test), QUERY_POOL)
        pool = [
            (ds.test[k].history, intervals.Interval(a, b), STRATEGIES[j % len(STRATEGIES)])
            for j, (k, a, b) in enumerate(zip(index, lo, hi))
        ]
        # Each round samples every activity once, so a burst of outside load
        # costs one sample of each metric instead of all samples of one.
        serve_s, eval_s, energy_s = wl.slices
        start, last, rounds = time.perf_counter(), 0.0, 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
            round_start = time.perf_counter()
            rounds += 1
            for _ in range(wl.setup_reps):
                ds = set_up()
            trained = train_once(ds, policy, seed, wl.epochs, tally, samples)
            if trained is not None:
                samples.train_work.append(trained[2:])
                if not wl.serve_checkpoint:
                    params = trained[0]
            if params is None:
                last = time.perf_counter() - round_start
                continue
            serve_chunk(params, policy, pool, serve_s, tally, samples)
            eval_chunk(params, policy, ds, eval_s, tally, samples)
            energy_chunk(u, u_forecast, energy_s, tally, samples)
            last = time.perf_counter() - round_start
        wall = time.perf_counter() - began
    finally:
        tracer.restore()

    trained = params is not None
    latencies = np.concatenate(samples.latencies) if samples.latencies else np.empty(0)
    checks = {
        "epoch_losses_finite": check_losses(samples.reports),
        "served_forecasts_match_cells": trained and check_served(params, policy.partition, pool, samples.first),
        "rolling_eval_recombines": trained and check_rolling(params, ds, samples.eval_results),
        "sweep_best_is_argmax": check_sweep(u, samples.bests),
    }
    end_to_end = {
        "setup_s": (mean(setup_times), "s"),
        "train_samples_per_s": (pooled_rate(samples.train_work), "windows/s"),
        "forecast_p50_ms": (mean(samples.p50_ms), "ms"),
        "forecast_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "forecasts_per_s": (pooled_rate(samples.forecast_work), "calls/s"),
        "rolling_eval_forecasts_per_s": (pooled_rate(samples.eval_work), "forecasts/s"),
        "energy_study_s": (mean(samples.energy_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_round = f"mean of {rounds} rounds, {samples.forecasts} forecast calls in all"
    notes = {
        "setup_s": f"mean of {len(setup_times)} set-ups, {wl.setup_reps} per round",
        "train_samples_per_s": f"all windows / all time of {len(samples.train_work)} train() calls",
        "forecast_p50_ms": per_round,
        "forecast_p99_ms": f"all {latencies.size} successful calls of the run",
        "forecasts_per_s": f"one caller, all calls / all serving time of {rounds} rounds",
        "rolling_eval_forecasts_per_s": f"all forecasts / all time of {len(samples.eval_work)} avg+max evaluations",
        "energy_study_s": f"mean of {len(samples.energy_times)} sweep+compare",
        "peak_rss_mb": "whole run",
    }
    out = {"end_to_end": end_to_end, "notes": notes, "checks": checks, "tally": tally}
    if trace and trained:
        report = samples.reports[0]  # with a checkpoint, the training run behind it
        first_avg = samples.eval_results[0][0] if samples.eval_results else []
        avg_maes = [m.mae for m in first_avg if m.mae is not None]
        out["per_layer"] = layer_metrics(tracer, wall, {
            "arch": params.arch,
            "report": report,
            "windows": ds.windows,
            "clipped_entries": ds.clipped_entries,
            "checkpoint_bytes": checkpoint.stat().st_size if checkpoint.exists() else 0,
            "mae_avg": float(np.mean(avg_maes)) if avg_maes else 0.0,
            "utilization_steps": u.size,
        })
        out["absent"] = tracer.absent
    return out


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    pins = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (
        f"python={platform.python_version()} numpy={np.__version__} blas={blas_text} "
        f"{pins} heap_release={'malloc_trim' if HEAP_RELEASE else 'none'} nproc={os.cpu_count()} machine={platform.machine()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Exit through the interpreter on SIGTERM so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    out = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1)
    tally = out["tally"]
    label = "traced " if args.trace else ""
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# {environment()}")
    for name, (value, unit) in out["end_to_end"].items():
        print(f"{label}{name} {value:.6g} {unit} ({out['notes'][name]})")
    error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{label}error_rate {error_rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    for error in tally.errors:
        print(f"# error: {error}")
    for name, ok in out["checks"].items():
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    metrics = out["per_layer"] if args.trace else out["end_to_end"]
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for name in out["absent"]:
            print(f"# absent (not traced): {name}")
    result = {
        "correct": all(out["checks"].values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
