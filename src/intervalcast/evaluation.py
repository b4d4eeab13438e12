"""Per-interval masked MAE, cross-policy comparison tables, rolling evaluation.

Masking is on the target value: an entry contributes to an interval's MAE
only when the true value lies in that interval, by the one membership rule
of :func:`intervals.entries_inside`. Within a partition each entry belongs
to exactly one cell, so entry-weighted recombination of per-cell MAEs
reproduces the full-domain MAE exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import TimeSeries, WindowConfig, make_windows
from .errors import ConfigError, DimensionError, RatioUndefinedError
from .intervals import Interval, entries_inside
from .models import ModelParams
from .patching import STRATEGY_AVERAGE, forecast
from .training import PolicyConfig


@dataclass(frozen=True, slots=True)
class IntervalMetric:
    """Masked MAE over one interval; ``mae`` is None when nothing is covered."""

    interval: Interval
    mae: float | None
    covered_entries: int
    total_entries: int


@dataclass(frozen=True)
class ComparisonRow:
    """One table row: per-policy MAE for an interval (None = averaged row)."""

    interval: Interval | None
    maes: dict[str, float | None]
    best_policy: str | None
    improvement_pct: float | None


def interval_mae(
    preds: np.ndarray,
    targets: np.ndarray,
    interval: Interval,
    scale: float = 1.0,
) -> IntervalMetric:
    """MAE over exactly the entries whose target value lies in the interval.

    ``scale`` converts normalized errors to native units (pass the domain
    maximum); the default reports normalized units.
    """
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionError(f"shape mismatch {p.shape} vs {t.shape}")
    mask = entries_inside(t, interval.lo, interval.hi)
    covered = int(mask.sum())
    if covered == 0:
        return IntervalMetric(interval, None, 0, t.size)
    mae = float(np.abs(p - t)[mask].mean()) * scale
    return IntervalMetric(interval, mae, covered, t.size)


def improvement_table(
    metrics_by_policy: dict[str, Sequence[IntervalMetric]],
    baseline: str = "B",
) -> list[ComparisonRow]:
    """Per-interval rows plus an averaged row, with improvement vs the baseline.

    Improvement compares the best non-baseline policy to the baseline and is
    clamped at 0 when the baseline wins.
    """
    if baseline not in metrics_by_policy:
        raise ConfigError(f"baseline policy {baseline!r} missing from the metrics")
    labels = list(metrics_by_policy)
    reference = [m.interval for m in metrics_by_policy[baseline]]
    for label, metrics in metrics_by_policy.items():
        if [m.interval for m in metrics] != reference:
            raise ConfigError(
                f"policy {label!r} was evaluated on different intervals than {baseline!r}"
            )

    rows = []
    for i, iv in enumerate(reference):
        maes = {label: metrics_by_policy[label][i].mae for label in labels}
        rows.append(_comparison_row(iv, maes, baseline))
    averages = {
        label: _mean_or_none([m.mae for m in metrics_by_policy[label]])
        for label in labels
    }
    rows.append(_comparison_row(None, averages, baseline))
    return rows


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _comparison_row(interval, maes, baseline) -> ComparisonRow:
    present = {k: v for k, v in maes.items() if v is not None}
    best = min(present, key=present.get) if present else None
    improvement = None
    base = maes.get(baseline)
    rivals = [v for k, v in present.items() if k != baseline]
    if base is not None and base > 0 and rivals:
        improvement = max(0.0, (base - min(rivals)) / base) * 100.0
    return ComparisonRow(interval, maes, best, improvement)


def strategy_ratio(mae_inf: float, mae_one: float) -> float:
    """MAE of the max-confidence strategy over MAE of the averaging strategy.

    Values below 1 favor the max-confidence strategy.
    """
    if mae_one <= 0:
        raise RatioUndefinedError(
            f"averaging-strategy MAE must be positive, got {mae_one}"
        )
    return mae_inf / mae_one


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

    Origins advance by the horizon tau so every target timestep in the
    rolled span is forecast exactly once; per-interval absolute errors are
    pooled across rolls before averaging. Each interval is forecast for
    every origin in one :func:`patching.forecast` call on the stack of
    their histories, in time order, so an error about history i of the
    stack names the i-th origin.
    """
    rolls = make_windows(series, WindowConfig(cfg.w, cfg.tau, cfg.tau))
    targets = rolls.target
    bounds = np.array([(iv.lo, iv.hi) for iv in intervals]).reshape(-1, 2, 1, 1, 1)
    inside = entries_inside(targets, bounds[:, 0], bounds[:, 1])  # (intervals, origins, tau, n)
    errors = np.empty(inside.shape)
    for j, iv in enumerate(intervals):
        errors[j] = np.abs(forecast(params, policy, rolls.history, iv, strategy) - targets)
    err_sums = np.where(inside, errors, 0.0).sum(axis=(1, 2, 3))
    covered = inside.sum(axis=(1, 2, 3))
    total = targets.size
    return [
        IntervalMetric(
            iv,
            float(err_sums[j] / covered[j]) * scale if covered[j] else None,
            int(covered[j]),
            total,
        )
        for j, iv in enumerate(intervals)
    ]


def write_table_csv(path: str | Path, rows: list[ComparisonRow]) -> None:
    """Comma-separated table: one row per interval plus the averaged row."""
    if not rows:
        raise ConfigError("no rows to write")
    labels = list(rows[0].maes)
    lines = ["interval," + ",".join(labels) + ",best_policy,improvement_pct"]
    for row in rows:
        name = "average" if row.interval is None else (
            f"{row.interval.lo:g}:{row.interval.hi:g}"
        )
        cells = [name]
        for label in labels:
            v = row.maes[label]
            cells.append("" if v is None else repr(v))
        cells.append(row.best_policy or "")
        cells.append("" if row.improvement_pct is None else repr(row.improvement_pct))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
