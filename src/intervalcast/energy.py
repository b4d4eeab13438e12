"""Two-tier base-station energy-saving simulator driven by a utilization trace.

A capacity cell is deactivated whenever utilization falls below a threshold;
offloaded traffic is served by the coverage cell at degraded rate. The
simulator books realized throughput and energy per step, keeps only their
means and the sleep count, and scores a threshold by the trade-off
objective (1 - lambda) * mean_throughput - lambda * mean_energy.

A threshold sweep runs every threshold of its ascending grid over one
running per-step state. Each step below the grid's top is placed once, at the
first threshold where it sleeps, so each threshold rewrites only the steps
that fall asleep there; each figure still equals, bit for bit, a separate
whole-trace simulation at that threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Operating point used throughout the experiments.
DEFAULT_C_CAP = 100.0   # Mbps, capacity-cell peak service rate
DEFAULT_C_COV = 30.0    # Mbps, coverage-cell peak service rate
DEFAULT_ALPHA = 0.5     # offloading degradation factor
DEFAULT_E_ON = 1266.0   # Wh per time unit, capacity cell active
DEFAULT_E_OFF = 320.0   # Wh per time unit, capacity cell sleeping

THRESHOLD_GRID_MAX = 0.025
THRESHOLD_GRID_POINTS = 26


@dataclass(frozen=True)
class EnergySimConfig:
    c_cap: float = DEFAULT_C_CAP
    c_cov: float = DEFAULT_C_COV
    alpha: float = DEFAULT_ALPHA
    e_on: float = DEFAULT_E_ON
    e_off: float = DEFAULT_E_OFF
    lam: float = 0.5  # trade-off weight on energy vs throughput

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


def default_threshold_grid() -> np.ndarray:
    """26 evenly spaced thresholds over [0, 0.025]."""
    return np.linspace(0.0, THRESHOLD_GRID_MAX, THRESHOLD_GRID_POINTS)


def sweep_threshold(
    u: np.ndarray, thresholds: np.ndarray, cfg: EnergySimConfig
) -> tuple[list[SimOutcome], float]:
    """Every threshold's outcome from one pass, plus the objective-maximizing threshold.

    The trace and the ascending grid are checked once. The per-step
    throughput and energy start all-on. A step with utilization u first
    sleeps at the threshold whose index is the count of grid values <= u;
    the steps below the grid's top are stably sorted by that index, so each
    threshold overwrites only its own contiguous run of them with their
    sleeping values. Every element then equals what that threshold's
    ``np.where`` over the whole trace would give, so each outcome equals a
    separate whole-trace simulation bit for bit. Ties on the objective
    resolve to the lowest threshold.
    """
    u = _check_utilization(u)
    th = _check_thresholds(thresholds)
    throughput = u * cfg.c_cap
    np.minimum(throughput, cfg.c_cap, out=throughput)
    energy = np.full(u.size, cfg.e_on, dtype=np.float64)
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
    outcomes, start = [], 0
    for t, end in zip(th.tolist(), ends):
        falling_asleep = steps[start:end]
        throughput[falling_asleep] = asleep_throughput[start:end]
        energy[falling_asleep] = cfg.e_off
        r_bar = float(throughput.mean())
        e_bar = float(energy.mean())
        objective = (1.0 - cfg.lam) * r_bar - cfg.lam * e_bar
        outcomes.append(SimOutcome(t, r_bar, e_bar, objective, end))
        start = end
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

    Energies apply each decision sequence to the true trace; since energy
    depends only on the on/off state, the error reduces to the activation
    count difference times (e_on - e_off) / T, reported in Wh.
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
    sleep_err = abs(int(np.count_nonzero(on_true)) - int(np.count_nonzero(on_fc)))
    mismatch = int(np.count_nonzero(on_fc != on_true))
    energy_true = np.where(on_true, cfg.e_on, cfg.e_off).mean()
    energy_fc = np.where(on_fc, cfg.e_on, cfg.e_off).mean()
    return DecisionErrors(sleep_err, mismatch, float(abs(energy_fc - energy_true)))
