"""Per-interval masked MAE, rolling evaluation, the cross-policy comparison table.

Masking is on the target value: an entry contributes to an interval's MAE
only when the true value lies in that interval, by the one membership rule
of :func:`intervals.entries_inside`. Within a partition each entry belongs
to exactly one cell, so entry-weighted recombination of per-cell MAEs
reproduces the full-domain MAE exactly. :func:`write_table_csv` is the one
place where per-run MAEs reduce to the table: a cell averages a policy's
runs on one interval, and the averaged row averages its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from .data import TimeSeries, WindowConfig, make_windows
from .errors import ConfigError, DimensionError, RatioUndefinedError
from .intervals import Interval, entries_inside
from .models import ModelParams
from .patching import STRATEGY_AVERAGE, forecast_each
from .training import PolicyConfig

# The label of the policy that the comparison table's improvement is measured against.
BASELINE = "B"


@dataclass(frozen=True, slots=True)
class IntervalMetric:
    """Masked MAE over one interval; ``mae`` is None when nothing is covered."""

    interval: Interval
    mae: float | None
    covered_entries: int
    total_entries: int


def interval_mae(
    preds: np.ndarray,
    targets: np.ndarray,
    interval: Interval,
    scale: float = 1.0,
) -> IntervalMetric:
    """MAE over exactly the entries whose target value lies in the interval.

    ``scale`` converts normalized errors to native units (pass the domain
    maximum); the default reports normalized units. It must be positive and
    finite.
    """
    # written so that NaN, which fails every comparison, is rejected too
    if not (0.0 < scale < math.inf):
        raise ConfigError(f"scale (the domain maximum) must be positive and finite, got {scale}")
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionError(f"shape mismatch {p.shape} vs {t.shape}")
    mask = entries_inside(t, interval.lo, interval.hi)
    covered = int(mask.sum())
    if covered == 0:
        return IntervalMetric(interval, None, 0, t.size)
    mae = float(np.where(mask, np.abs(p - t), 0.0).sum() / covered) * scale
    return IntervalMetric(interval, mae, covered, t.size)


def strategy_ratio(mae_inf: float, mae_one: float) -> float:
    """MAE of the max-confidence strategy over MAE of the averaging strategy.

    Values below 1 favor the max-confidence strategy.
    """
    if mae_one <= 0:
        raise RatioUndefinedError(
            f"averaging-strategy MAE must be positive, got {mae_one}"
        )
    return mae_inf / mae_one


def rolled_forecasts(
    params: ModelParams,
    policy: PolicyConfig,
    series: TimeSeries,
    cfg: WindowConfig,
    queries: Sequence[Interval],
    strategy: str = STRATEGY_AVERAGE,
) -> tuple[list[np.ndarray], np.ndarray]:
    """One (origins, tau, n) forecast per query over ``series``, and the (origins, tau, n) targets.

    Origins start at w and advance by the horizon tau (``cfg.stride`` is not
    read), so every target timestep in the rolled span is forecast exactly
    once. One :func:`patching.forecast_each` call serves every query from
    the stack of all origins' histories, in time order, so the stack is
    projected once per call and an error about history i names origin i.
    """
    rolls = make_windows(series, WindowConfig(cfg.w, cfg.tau, cfg.tau))
    return forecast_each(params, policy, rolls.history, queries, strategy), rolls.target


def rolling_eval(
    params: ModelParams,
    policy: PolicyConfig,
    series: TimeSeries,
    cfg: WindowConfig,
    intervals: Sequence[Interval],
    strategy: str = STRATEGY_AVERAGE,
    scale: float = 1.0,
) -> list[IntervalMetric]:
    """Non-overlapping rolling-origin evaluation over a normalized test series.

    Each interval's absolute errors over :func:`rolled_forecasts` are pooled
    across rolls and averaged by :func:`interval_mae`.
    """
    preds, targets = rolled_forecasts(params, policy, series, cfg, intervals, strategy)
    return [interval_mae(p, targets, iv, scale) for p, iv in zip(preds, intervals)]


def write_table_csv(
    path: str | Path,
    intervals: Sequence[Interval],
    runs_by_policy: dict[str, list[list[float | None]]],
) -> None:
    """Comma-separated comparison table: one row per interval plus an averaged row.

    ``runs_by_policy`` maps each policy label to its runs (checkpoints or
    seeds), each a list of per-interval MAEs with None where the interval
    covered nothing. A cell is the mean of the label's present MAEs on that
    interval, and the averaged row is the mean of each label's present cells.
    ``best_policy`` has the lowest cell; ``improvement_pct`` compares the best
    non-baseline label to the baseline and is clamped at 0 when the baseline
    wins.
    """
    require_baseline(runs_by_policy)
    columns = {}
    for label, runs in runs_by_policy.items():
        if not runs:
            raise ConfigError(f"policy {label!r} has no runs")
        if any(len(run) != len(intervals) for run in runs):
            raise ConfigError(f"a run of policy {label!r} does not have one MAE per interval")
        cells = [_mean_or_none(maes) for maes in zip(*runs)]
        columns[label] = cells + [_mean_or_none(cells)]
    names = [f"{iv.lo:g}:{iv.hi:g}" for iv in intervals] + ["average"]
    lines = ["interval," + ",".join(columns) + ",best_policy,improvement_pct"]
    for i, name in enumerate(names):
        maes = {label: column[i] for label, column in columns.items()}
        present = {k: v for k, v in maes.items() if v is not None}
        best = min(present, key=present.get) if present else ""
        improvement = None
        base = maes[BASELINE]
        rivals = [v for k, v in present.items() if k != BASELINE]
        if base is not None and base > 0 and rivals:
            improvement = max(0.0, (base - min(rivals)) / base) * 100.0
        row = [name, *(_csv_cell(v) for v in maes.values()), best, _csv_cell(improvement)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def require_baseline(labels: Collection[str]) -> None:
    """Raise :class:`ConfigError` unless the comparison table's baseline is among ``labels``."""
    if BASELINE not in labels:
        raise ConfigError(f"the comparison table needs runs of the baseline policy {BASELINE!r}")


def _mean_or_none(values: Sequence[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)
