import tracemalloc

import numpy as np
import pytest

from intervalcast import (
    EnergySimConfig,
    compare_decisions,
    decide,
    default_threshold_grid,
    simulate,
    sweep_threshold,
)
from intervalcast.errors import ConfigError, DataError

CFG = EnergySimConfig()  # c_cap=100, c_cov=30, alpha=0.5, e_on=1266, e_off=320


def test_decide_threshold_zero_all_active():
    assert decide(np.array([0.0, 0.4, 1.0]), 0.0).tolist() == [1, 1, 1]


def test_decide_tie_activates():
    assert decide(np.array([1.0]), 1.0).tolist() == [1]
    assert decide(np.array([0.02]), 0.02).tolist() == [1]


def test_decide_basic():
    assert decide(np.array([0.01, 0.03]), 0.02).tolist() == [0, 1]


def test_decide_validates_ranges():
    with pytest.raises(DataError):
        decide(np.array([1.2]), 0.5)
    with pytest.raises(ConfigError):
        decide(np.array([0.5]), 1.5)


def test_simulate_load_formula():
    # one active step below capacity serves its whole load, L = u * c_cap
    out = simulate(np.array([0.5]), 0.0, CFG)
    assert out.sleep_steps == 0
    assert out.r_bar == pytest.approx(50.0)


def test_simulate_offload_degradation():
    # sleeping state: R = alpha * min(L, c_cov) = 0.5 * min(50, 30) = 15
    out = simulate(np.array([0.5]), 0.6, CFG)
    assert out.sleep_steps == 1
    assert out.r_bar == pytest.approx(15.0)


def test_simulate_always_on_energy():
    out = simulate(np.random.default_rng(0).uniform(0, 1, 50), 0.0, CFG)
    assert out.e_bar == pytest.approx(1266.0)


def test_simulate_energy_bounds_and_throughput_cap():
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, 200)
    for th in (0.0, 0.3, 0.9):
        out = simulate(u, th, CFG)
        assert CFG.e_off <= out.e_bar <= CFG.e_on
        # per step, on one-step traces
        steps = [simulate(u[i : i + 1], th, CFG) for i in range(u.size)]
        assert max(step.r_bar for step in steps) <= max(CFG.c_cap, CFG.alpha * CFG.c_cov)
        assert {step.e_bar for step in steps} <= {CFG.e_on, CFG.e_off}


def test_simulate_objective_formula():
    cfg = EnergySimConfig(lam=0.25)
    u = np.array([0.1, 0.9])
    out = simulate(u, 0.5, cfg)
    assert out.objective == pytest.approx(0.75 * out.r_bar - 0.25 * out.e_bar)


def test_active_steps_monotone_in_threshold():
    rng = np.random.default_rng(2)
    u = rng.uniform(0, 1, 300)
    actives = [u.size - simulate(u, th, CFG).sleep_steps for th in np.linspace(0, 1, 21)]
    assert all(a >= b for a, b in zip(actives, actives[1:]))


def test_sweep_default_grid():
    grid = default_threshold_grid()
    assert grid.size == 26
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(0.025)


def test_sweep_threshold_argmax_matches_bruteforce():
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 0.05, 200)
    grid = default_threshold_grid()
    cfg_e = EnergySimConfig(lam=1.0)  # pure energy: most sleep wins
    outcomes, best = sweep_threshold(u, grid, cfg_e)
    sleeps = [o.sleep_steps for o in outcomes]
    assert best == grid[int(np.argmax([o.objective for o in outcomes]))]
    assert sleeps[int(np.argmax([o.objective for o in outcomes]))] == max(sleeps)

    cfg_r = EnergySimConfig(lam=0.0)  # pure throughput: all-on wins
    _, best_r = sweep_threshold(u, grid, cfg_r)
    assert best_r == 0.0


def test_sweep_threshold_keeps_no_per_step_arrays():
    # four per-step arrays kept for each of 26 thresholds of a 100k-step trace
    # would take 83 MB; with aggregates only, the sweep peaks at one
    # simulation's temporaries
    u = np.random.default_rng(6).uniform(0, 0.05, 100_000)
    tracemalloc.start()
    try:
        outcomes, _ = sweep_threshold(u, default_threshold_grid(), CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 26
    assert peak < 16e6


def test_sweep_requires_sorted_thresholds():
    with pytest.raises(ConfigError):
        sweep_threshold(np.array([0.5]), np.array([0.02, 0.01]), CFG)


def test_simulate_deterministic():
    u = np.random.default_rng(4).uniform(0, 1, 100)
    a = simulate(u, 0.3, CFG)
    b = simulate(u, 0.3, CFG)
    # the per-step states, on one-step traces
    def states():
        return [simulate(u[i : i + 1], 0.3, CFG).sleep_steps for i in range(u.size)]

    assert states() == states()
    assert a.objective == b.objective


# ---------------------------------------------------------------- comparison


def test_perfect_foresight_zero_errors():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(0, 1, 50)
        th = rng.uniform(0, 1)
        errs = compare_decisions(u, u, th, CFG)
        assert errs.sleep_duration_error == 0
        assert errs.mismatch_steps == 0
        assert errs.energy_error_wh == 0.0


def test_maximal_mismatch():
    truth = np.full(24, 0.1)
    forecast = np.full(24, 0.9)
    errs = compare_decisions(truth, forecast, 0.5, CFG)
    assert errs.sleep_duration_error == 24
    assert errs.mismatch_steps == 24
    assert errs.energy_error_wh == pytest.approx(1266.0 - 320.0)


def test_energy_error_scales_with_count_difference():
    truth = np.array([0.1, 0.1, 0.9, 0.9])
    forecast = np.array([0.9, 0.1, 0.9, 0.9])  # one extra active step
    errs = compare_decisions(truth, forecast, 0.5, CFG)
    assert errs.sleep_duration_error == 1
    assert errs.energy_error_wh == pytest.approx((1266.0 - 320.0) / 4)


def test_simulate_rejects_nan_utilization():
    u = np.array([0.2, np.nan, 0.6])
    with pytest.raises(DataError):
        simulate(u, 0.01, CFG)
    with pytest.raises(DataError):
        compare_decisions(u, np.full(3, 0.5), 0.5, CFG)


def test_compare_rejects_length_mismatch():
    with pytest.raises(DataError):
        compare_decisions(np.zeros(3), np.zeros(4), 0.5, CFG)


def test_config_validation():
    with pytest.raises(ConfigError):
        EnergySimConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        EnergySimConfig(e_on=100.0, e_off=200.0)
    with pytest.raises(ConfigError):
        EnergySimConfig(lam=1.5)
