"""Two-tier base-station energy-saving simulator driven by a utilization trace.

A capacity cell is deactivated whenever utilization falls below a threshold;
offloaded traffic is served by the coverage cell at degraded rate. The
simulator books realized throughput and energy per step, keeps only their
means and the sleep count, and scores a threshold by the trade-off
objective (1 - lambda) * mean_throughput - lambda * mean_energy.
"""

from __future__ import annotations

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
        if self.c_cap <= 0 or self.c_cov <= 0:
            raise ConfigError("cell capacities must be positive")
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


def decide(u: np.ndarray, u_th: float) -> np.ndarray:
    """Threshold policy: active (1) whenever u(t) >= u_th, ties activate."""
    u = _check_utilization(u)
    if not (0.0 <= u_th <= 1.0):
        raise ConfigError(f"threshold must be in [0, 1], got {u_th}")
    return (u >= u_th).astype(np.int64)


def simulate(u: np.ndarray, u_th: float, cfg: EnergySimConfig) -> SimOutcome:
    """Run the threshold policy over the trace and average throughput and energy.

    The per-step states, load, throughput and energy are temporaries of
    this call; only their means and the sleep count are returned.
    """
    u = _check_utilization(u)
    states = decide(u, u_th)
    load = u * cfg.c_cap
    throughput = np.where(
        states == 1,
        np.minimum(load, cfg.c_cap),
        cfg.alpha * np.minimum(load, cfg.c_cov),
    )
    energy = np.where(states == 1, cfg.e_on, cfg.e_off).astype(np.float64)
    r_bar = float(throughput.mean())
    e_bar = float(energy.mean())
    objective = (1.0 - cfg.lam) * r_bar - cfg.lam * e_bar
    sleep_steps = int((states == 0).sum())
    return SimOutcome(u_th, r_bar, e_bar, objective, sleep_steps)


def default_threshold_grid() -> np.ndarray:
    """26 evenly spaced thresholds over [0, 0.025]."""
    return np.linspace(0.0, THRESHOLD_GRID_MAX, THRESHOLD_GRID_POINTS)


def sweep_threshold(
    u: np.ndarray, thresholds: np.ndarray, cfg: EnergySimConfig
) -> tuple[list[SimOutcome], float]:
    """One simulation per threshold plus the objective-maximizing threshold.

    Ties on the objective resolve to the lowest threshold.
    """
    th = np.asarray(thresholds, dtype=np.float64).ravel()
    if th.size == 0:
        raise ConfigError("threshold grid is empty")
    if np.any(np.diff(th) < 0):
        raise ConfigError("thresholds must be sorted ascending")
    outcomes = [simulate(u, float(t), cfg) for t in th]
    best = int(np.argmax([o.objective for o in outcomes]))
    return outcomes, float(th[best])


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
    s_true = decide(u_true, u_th)
    s_fc = decide(u_forecast, u_th)
    sleep_err = abs(int((s_fc == 0).sum()) - int((s_true == 0).sum()))
    mismatch = int((s_fc != s_true).sum())
    energy_true = np.where(s_true == 1, cfg.e_on, cfg.e_off).mean()
    energy_fc = np.where(s_fc == 1, cfg.e_on, cfg.e_off).mean()
    return DecisionErrors(sleep_err, mismatch, float(abs(energy_fc - energy_true)))
