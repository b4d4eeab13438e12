"""Reference energy simulation and decision comparison, one whole-trace pass per threshold.

This is how one threshold was simulated before a threshold sweep served
every threshold from one running state: each threshold builds its own
per-step states, throughput and energy over the whole trace and averages
them. :func:`per_threshold_compare` is
:func:`intervalcast.energy.compare_decisions` as it was before it derived its
decisions as booleans. The tests require the library to equal both field for
field.
"""

from __future__ import annotations

import numpy as np

from intervalcast.energy import DecisionErrors, SimOutcome


def per_threshold_simulate(u, u_th, cfg) -> SimOutcome:
    u = np.asarray(u, dtype=np.float64).ravel()
    states = (u >= u_th).astype(np.int64)
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


def per_threshold_sweep(u, thresholds, cfg) -> tuple[list[SimOutcome], float]:
    outcomes = [per_threshold_simulate(u, float(t), cfg) for t in thresholds]
    best = int(np.argmax([o.objective for o in outcomes]))
    return outcomes, float(thresholds[best])


def per_threshold_compare(u_true, u_forecast, u_th, cfg) -> DecisionErrors:
    s_true = (np.asarray(u_true, dtype=np.float64) >= u_th).astype(np.int64)
    s_fc = (np.asarray(u_forecast, dtype=np.float64) >= u_th).astype(np.int64)
    sleep_err = abs(int((s_fc == 0).sum()) - int((s_true == 0).sum()))
    mismatch = int((s_fc != s_true).sum())
    energy_true = np.where(s_true == 1, cfg.e_on, cfg.e_off).mean()
    energy_fc = np.where(s_fc == 1, cfg.e_on, cfg.e_off).mean()
    return DecisionErrors(sleep_err, mismatch, float(abs(energy_fc - energy_true)))
