"""Reference rolling evaluation with every interval's errors in one stacked array.

This is the body :func:`intervalcast.evaluation.rolling_eval` ran before it
scored each interval through :func:`intervalcast.evaluation.interval_mae`:
the memberships and absolute errors of all intervals are stacked into one
(intervals, origins, tau, n) array each, and the masked sums and counts
are reduced over the last three axes at once. The tests require the
library to equal it field for field, bit for bit.
"""

from __future__ import annotations

import numpy as np

from intervalcast.data import WindowConfig, make_windows
from intervalcast.evaluation import IntervalMetric
from intervalcast.intervals import entries_inside
from intervalcast.patching import forecast


def stacked_rolling_eval(params, policy, series, cfg, intervals, strategy="avg"):
    rolls = make_windows(series, WindowConfig(cfg.w, cfg.tau, cfg.tau))
    targets = rolls.target
    bounds = np.array([(iv.lo, iv.hi) for iv in intervals]).reshape(-1, 2, 1, 1, 1)
    inside = entries_inside(targets, bounds[:, 0], bounds[:, 1])  # (intervals, origins, tau, n)
    errors = np.empty(inside.shape)
    for j, iv in enumerate(intervals):
        errors[j] = np.abs(forecast(params, policy, rolls.history, iv, strategy) - targets)
    err_sums = np.where(inside, errors, 0.0).sum(axis=(1, 2, 3))
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
