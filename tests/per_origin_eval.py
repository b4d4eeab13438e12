"""Reference rolling evaluation, one forecast call per (origin, query).

This is the loop :func:`intervalcast.evaluation.rolling_eval` ran before it
served every origin of a query from one stack of histories: each origin's
history is forecast alone, and the absolute errors inside each interval are
summed origin by origin. The tests compare the two.
"""

from __future__ import annotations

import numpy as np

from intervalcast.data import WindowConfig, make_windows
from intervalcast.evaluation import IntervalMetric
from intervalcast.intervals import entries_inside
from intervalcast.patching import forecast


def per_origin_rolling_eval(params, policy, series, cfg, intervals, strategy="avg"):
    rolls = make_windows(series, WindowConfig(cfg.w, cfg.tau, cfg.tau))
    targets = rolls.target
    bounds = np.array([(iv.lo, iv.hi) for iv in intervals]).reshape(-1, 2, 1, 1, 1)
    inside = entries_inside(targets, bounds[:, 0], bounds[:, 1])  # (intervals, origins, tau, n)
    err_sums = np.zeros(len(intervals))
    for k, history in enumerate(rolls.history):
        for j, iv in enumerate(intervals):
            preds = forecast(params, policy, history, iv, strategy)
            err_sums[j] += float(np.abs(preds - targets[k])[inside[j, k]].sum())
    covered = inside.sum(axis=(1, 2, 3))
    return [
        IntervalMetric(
            iv,
            float(err_sums[j] / covered[j]) if covered[j] else None,
            int(covered[j]),
            targets.size,
        )
        for j, iv in enumerate(intervals)
    ]
