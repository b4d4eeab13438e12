"""Reference policy draw, one sample at a time.

One scalar RNG draw, one weight and one label array per sample, in batch
order. :func:`intervalcast.training.draw_batch` must reproduce it bit for
bit, including where it leaves the RNG stream; the tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from intervalcast.intervals import FULL_DOMAIN, INDICATOR, Interval


def sample_uniform(delta: float, rng: np.random.Generator) -> Interval:
    lo = rng.uniform(0.0, 1.0 - delta)
    hi = rng.uniform(lo + delta, 1.0)
    return Interval(min(lo, 1.0), min(hi, 1.0))


def sample_discrete(partition, rng: np.random.Generator) -> Interval:
    return partition.intervals[int(rng.integers(0, partition.L))]


def _inside(t: np.ndarray, interval: Interval) -> np.ndarray:
    """Half-open membership, lo <= y < hi, with the cell ending at 1 closed."""
    upper = t <= interval.hi if interval.hi >= 1.0 else t < interval.hi
    return (t >= interval.lo) & upper


def target_weight(target: np.ndarray, interval: Interval, spec) -> float:
    t = np.asarray(target, dtype=np.float64)[None, ...]
    if math.isinf(spec.nu):
        inside = _inside(t, interval)
        return float(inside.all(axis=(1, 2)).astype(np.float64)[0])
    excess = np.maximum(0.0, np.abs(t - interval.midpoint) - interval.half_width)
    return float(np.exp(-spec.nu * excess).prod(axis=(1, 2))[0])


def entry_labels(target: np.ndarray, interval: Interval) -> np.ndarray:
    return _inside(np.asarray(target, dtype=np.float64), interval).astype(np.float64)


def per_sample_draw(policy, targets, rng: np.random.Generator):
    """(bounds (B, 2), weights (B,), labels (B, tau, n) or None), one sample at a time."""
    intervals, weights, labels = [], [], []
    for target in targets:
        if policy.kind == "b":
            iv, w = FULL_DOMAIN, 1.0
        elif policy.kind == "e2e":
            iv = policy.task_interval
            w = target_weight(target, iv, INDICATOR)
        elif policy.kind == "c":
            iv = sample_uniform(policy.delta, rng)
            w = target_weight(target, iv, INDICATOR)
        elif policy.kind == "d":
            iv = sample_discrete(policy.partition, rng)
            w = target_weight(target, iv, INDICATOR)
        else:
            iv = sample_discrete(policy.partition, rng)
            w = target_weight(target, iv, policy.nu)
            labels.append(entry_labels(target, iv))
        intervals.append((iv.lo, iv.hi))
        weights.append(w)
    return (
        np.array(intervals, dtype=np.float64),
        np.array(weights, dtype=np.float64),
        np.stack(labels) if labels else None,
    )
