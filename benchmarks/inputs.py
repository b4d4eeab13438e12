"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and a stream number, so each input
is reproducible on its own and independent of the others.  The program
under test only ever sees the arrays produced here.
"""

from __future__ import annotations

import numpy as np

WIDE_STREAM, UTILIZATION_STREAM, QUERY_STREAM = 1, 2, 3

STEPS_PER_DAY = 96  # 15-minute steps


def wide_series(seed: int, steps: int = 8000, channels: int = 50,
                domain_max: float = 100.0) -> np.ndarray:
    """A traffic-like steps x channels series in native units.

    Each channel has its own base load, daily amplitude and phase, a weekly
    modulation and Gaussian noise.  Some entries fall outside
    [0, domain_max], so :func:`intervalcast.data.normalize` has entries to clip.
    """
    rng = np.random.default_rng((seed, WIDE_STREAM))
    t = np.arange(steps)[:, None]
    base = rng.uniform(0.25, 0.45, channels) * domain_max
    amplitude = rng.uniform(0.15, 0.35, channels) * domain_max
    phase = rng.uniform(0.0, 2.0 * np.pi, channels)
    daily = np.sin(2.0 * np.pi * t / STEPS_PER_DAY + phase)
    weekly = 1.0 - 0.2 * (np.sin(2.0 * np.pi * t / (7 * STEPS_PER_DAY)) > 0.6)
    noise = rng.normal(0.0, 0.04 * domain_max, (steps, channels))
    return (base + amplitude * daily) * weekly + noise


def utilization_traces(seed: int, steps: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """A capacity-cell utilization trace in [0, 1] and a noisy forecast of it.

    Night-time utilization sits around the 0 to 0.025 threshold grid of the
    energy study, so thresholds in the grid change the decisions.
    """
    rng = np.random.default_rng((seed, UTILIZATION_STREAM))
    t = np.arange(steps)
    shape = (0.5 - 0.5 * np.cos(2.0 * np.pi * t / STEPS_PER_DAY)) ** 2
    u = (0.01 + 0.45 * shape) * rng.lognormal(0.0, 0.3, steps)
    truth = np.clip(u, 0.0, 1.0)
    forecast = np.clip(truth + rng.normal(0.0, 0.004, steps), 0.0, 1.0)
    return truth, forecast


def query_pool(seed: int, histories: int, size: int = 512,
               min_length: float = 0.05) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """History indices and query bounds: lo ~ U[0, 1 - m], hi ~ U[lo + m, 1]."""
    rng = np.random.default_rng((seed, QUERY_STREAM))
    index = rng.integers(0, histories, size)
    lo = rng.uniform(0.0, 1.0 - min_length, size)
    hi = rng.uniform(lo + min_length, 1.0)
    return index, lo, hi
