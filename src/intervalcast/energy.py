"""Two-tier base-station energy-saving simulator driven by a utilization trace.

A capacity cell is deactivated whenever utilization falls below a threshold;
offloaded traffic is served by the coverage cell at degraded rate. A
threshold scores (1 - lambda) * r_bar - lambda * e_bar, where r_bar is the
mean realized throughput and, with s of T steps asleep, the mean energy is
e_bar = ((T - s) * e_on + s * e_off) / T. A sweep runs its ascending grid over
one running per-step throughput, rewriting each step below the grid's top
once, at the first threshold where it sleeps. Every figure equals a
whole-trace simulation at its threshold bit for bit when e_on and e_off are
multiples of one 2^-k with T * e_on * 2^k < 2^53, as the defaults are: the
closed form's numerator and each partial sum of a per-step energy array are
then exact. Other energies differ in the last bits, within 2 ulp of exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

THRESHOLD_GRID_MAX = 0.025
THRESHOLD_GRID_POINTS = 26


@dataclass(frozen=True)
class EnergySimConfig:
    """The operating point used throughout the experiments, and the trade-off weight."""

    c_cap: float = 100.0   # Mbps, capacity-cell peak service rate
    c_cov: float = 30.0    # Mbps, coverage-cell peak service rate
    alpha: float = 0.5     # offloading degradation factor
    e_on: float = 1266.0   # Wh per time unit, capacity cell active
    e_off: float = 320.0   # Wh per time unit, capacity cell sleeping
    lam: float = 0.5       # trade-off weight on energy vs throughput

    def __post_init__(self):
        for name in ("c_cap", "c_cov"):
            value = getattr(self, name)
            # written so that NaN, which fails every comparison, is rejected too
            if not (0.0 < value < math.inf):
                raise ConfigError(f"{name} must be a positive finite capacity, got {value}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.e_on >= self.e_off >= 0.0):
            raise ConfigError(
                f"need e_on >= e_off >= 0, got e_on={self.e_on}, e_off={self.e_off}"
            )
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")


@dataclass
class SimOutcome:
    """The averaged figures for one threshold; no per-step array is kept."""

    threshold: float
    r_bar: float        # mean realized throughput, Mbps
    e_bar: float        # mean energy, Wh per step
    objective: float
    sleep_steps: int    # steps with the capacity cell asleep


def _check_utilization(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size == 0:
        raise DataError("utilization trace is empty")
    # written so that NaN, which fails every comparison, is rejected too
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise DataError(
            f"utilization must lie in [0, 1], got range [{u.min()}, {u.max()}]"
        )
    return u


def _check_thresholds(thresholds) -> np.ndarray:
    """The grid as a float array: non-empty, every value in [0, 1], ascending."""
    th = np.asarray(thresholds, dtype=np.float64).ravel()
    if th.size == 0:
        raise ConfigError("threshold grid is empty")
    # written so that NaN, which fails every comparison, is rejected too
    bad = th[~((th >= 0.0) & (th <= 1.0))]
    if bad.size:
        raise ConfigError(f"threshold must be in [0, 1], got {float(bad[0])}")
    if np.any(np.diff(th) < 0):
        raise ConfigError("thresholds must be sorted ascending")
    return th


def _mean_energy(asleep: int, steps: int, cfg: EnergySimConfig) -> float:
    return ((steps - asleep) * cfg.e_on + asleep * cfg.e_off) / steps


def default_threshold_grid() -> np.ndarray:
    """26 evenly spaced thresholds over [0, 0.025]."""
    return np.linspace(0.0, THRESHOLD_GRID_MAX, THRESHOLD_GRID_POINTS)


def sweep_threshold(
    u: np.ndarray, thresholds: np.ndarray, cfg: EnergySimConfig
) -> tuple[list[SimOutcome], float]:
    """Every threshold's outcome from one pass, plus the objective-maximizing threshold.

    The trace and the ascending grid are checked once. A step with
    utilization u first sleeps at the threshold whose index is the count of
    grid values <= u; the steps below the grid's top are stably sorted by
    that index, so each threshold writes the sleeping throughput of only its
    own contiguous run of them into the all-on throughput, as its
    ``np.where`` over the whole trace would. ``e_bar`` is the closed form of
    the sleep count, exact under the module docstring's condition. Ties on
    the objective resolve to the lowest threshold.
    """
    u = _check_utilization(u)
    th = _check_thresholds(thresholds)
    throughput = u * cfg.c_cap
    np.minimum(throughput, cfg.c_cap, out=throughput)
    steps = np.flatnonzero(u < th[-1])  # the steps that sleep at some threshold
    u_below = u[steps]
    # the smallest unsigned dtype that holds the grid size, so the stable
    # sort below is numpy's radix sort
    first_asleep = np.zeros(steps.size, dtype=np.min_scalar_type(th.size))
    for t in th[:-1]:  # every step here lies below the top, which adds nothing
        first_asleep += u_below >= t
    order = np.argsort(first_asleep, kind="stable")
    steps = steps[order]
    asleep_throughput = u_below[order]
    np.multiply(asleep_throughput, cfg.c_cap, out=asleep_throughput)
    np.minimum(asleep_throughput, cfg.c_cov, out=asleep_throughput)
    np.multiply(cfg.alpha, asleep_throughput, out=asleep_throughput)
    # ends[k]: how many steps sleep at threshold k
    ends = np.cumsum(np.bincount(first_asleep, minlength=th.size)).tolist()
    outcomes = []
    for t, start, end in zip(th.tolist(), [0] + ends, ends):
        throughput[steps[start:end]] = asleep_throughput[start:end]
        r_bar = float(np.add.reduce(throughput)) / u.size
        e_bar = _mean_energy(end, u.size, cfg)
        objective = (1.0 - cfg.lam) * r_bar - cfg.lam * e_bar
        outcomes.append(SimOutcome(t, r_bar, e_bar, objective, end))
    best = int(np.argmax([o.objective for o in outcomes]))
    return outcomes, outcomes[best].threshold


@dataclass(frozen=True)
class DecisionErrors:
    """Forecast-vs-oracle decision quality under one threshold."""

    sleep_duration_error: int   # | #sleeps(forecast) - #sleeps(truth) |
    mismatch_steps: int         # steps where the decisions differ
    energy_error_wh: float      # | mean energy under forecast decisions - oracle |


def compare_decisions(
    u_true: np.ndarray, u_forecast: np.ndarray, u_th: float, cfg: EnergySimConfig
) -> DecisionErrors:
    """Compare forecast-driven decisions against perfect-foresight decisions.

    Energies apply each decision sequence to the true trace. Each mean energy
    is the closed form of its sleep count (see the module docstring), so the
    error reduces to the sleep count difference times (e_on - e_off) / T, in Wh.
    """
    u_true = _check_utilization(u_true)
    u_forecast = _check_utilization(u_forecast)
    if u_true.size != u_forecast.size:
        raise DataError(
            f"trace lengths differ: truth {u_true.size}, forecast {u_forecast.size}"
        )
    th = _check_thresholds(u_th)[0]
    on_true = u_true >= th
    on_fc = u_forecast >= th
    mismatch = int(np.count_nonzero(on_fc != on_true))
    s_true, s_fc = (u_true.size - int(np.count_nonzero(on)) for on in (on_true, on_fc))
    e_true, e_fc = (_mean_energy(s, u_true.size, cfg) for s in (s_true, s_fc))
    return DecisionErrors(abs(s_fc - s_true), mismatch, abs(e_fc - e_true))
