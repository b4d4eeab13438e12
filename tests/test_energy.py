import tracemalloc

import numpy as np
import pytest

from intervalcast import (
    EnergySimConfig,
    compare_decisions,
    default_threshold_grid,
    sweep_threshold,
)
from intervalcast.errors import ConfigError, DataError
from per_threshold_sim import per_threshold_compare, per_threshold_sweep

CFG = EnergySimConfig()  # c_cap=100, c_cov=30, alpha=0.5, e_on=1266, e_off=320


def _asleep(u, u_th):
    """Per step, 1 when the threshold rule puts the capacity cell to sleep."""
    return [sweep_threshold(np.array([x]), [u_th], CFG)[0][0].sleep_steps for x in u]


def test_decide_threshold_zero_all_active():
    assert _asleep([0.0, 0.4, 1.0], 0.0) == [0, 0, 0]


def test_decide_tie_activates():
    assert _asleep([1.0], 1.0) == [0]
    assert _asleep([0.02], 0.02) == [0]


def test_decide_basic():
    assert _asleep([0.01, 0.03], 0.02) == [1, 0]


def test_decide_validates_ranges():
    with pytest.raises(DataError):
        sweep_threshold(np.array([1.2]), [0.5], CFG)[0][0]
    with pytest.raises(ConfigError):
        sweep_threshold(np.array([0.5]), [1.5], CFG)[0][0]


def test_simulate_load_formula():
    # one active step below capacity serves its whole load, L = u * c_cap
    out = sweep_threshold(np.array([0.5]), [0.0], CFG)[0][0]
    assert out.sleep_steps == 0
    assert out.r_bar == pytest.approx(50.0)


def test_simulate_offload_degradation():
    # sleeping state: R = alpha * min(L, c_cov) = 0.5 * min(50, 30) = 15
    out = sweep_threshold(np.array([0.5]), [0.6], CFG)[0][0]
    assert out.sleep_steps == 1
    assert out.r_bar == pytest.approx(15.0)


def test_simulate_always_on_energy():
    out = sweep_threshold(np.random.default_rng(0).uniform(0, 1, 50), [0.0], CFG)[0][0]
    assert out.e_bar == pytest.approx(1266.0)


def test_simulate_energy_bounds_and_throughput_cap():
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, 200)
    for th in (0.0, 0.3, 0.9):
        out = sweep_threshold(u, [th], CFG)[0][0]
        assert CFG.e_off <= out.e_bar <= CFG.e_on
        # per step, on one-step traces
        steps = [sweep_threshold(u[i : i + 1], [th], CFG)[0][0] for i in range(u.size)]
        assert max(step.r_bar for step in steps) <= max(CFG.c_cap, CFG.alpha * CFG.c_cov)
        assert {step.e_bar for step in steps} <= {CFG.e_on, CFG.e_off}


def test_simulate_objective_formula():
    cfg = EnergySimConfig(lam=0.25)
    u = np.array([0.1, 0.9])
    out = sweep_threshold(u, [0.5], cfg)[0][0]
    assert out.objective == pytest.approx(0.75 * out.r_bar - 0.25 * out.e_bar)


def test_active_steps_monotone_in_threshold():
    rng = np.random.default_rng(2)
    u = rng.uniform(0, 1, 300)
    grid = np.linspace(0, 1, 21)
    actives = [u.size - sweep_threshold(u, [th], CFG)[0][0].sleep_steps for th in grid]
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
    # would take 83 MB; with aggregates only, the sweep peaks at its fixed set
    # of per-step arrays: the running throughput and energy, plus the index,
    # utilization, first sleeping threshold, sort order and sleeping
    # throughput of the steps below the top threshold
    u = np.random.default_rng(6).uniform(0, 0.05, 100_000)
    tracemalloc.start()
    try:
        outcomes, _ = sweep_threshold(u, default_threshold_grid(), CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 26
    assert peak < 16e6


def _reference_trace(seed: int, grid: np.ndarray) -> np.ndarray:
    """A seeded trace around the grid that also holds every grid value, 0.0 and 1.0."""
    rng = np.random.default_rng(seed)
    top = max(float(grid[-1]), 0.05)
    u = np.concatenate([rng.uniform(0.0, 1.25 * top, 4000), grid, [0.0, 1.0]])
    return np.clip(rng.permutation(u), 0.0, 1.0)


@pytest.mark.parametrize(
    "grid",
    [
        default_threshold_grid(),
        np.array([0.0, 0.01, 0.01, 0.015, 0.015, 0.015, 0.02]),
        np.linspace(0.0, 1.0, 11),
        np.array([0.0125]),
        np.linspace(0.0, 1.0, 301),  # a first-sleep index needs more than 8 bits
    ],
    ids=["default", "duplicates", "ends_at_one", "one_threshold", "301_thresholds"],
)
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_sweep_and_simulate_equal_per_threshold_reference(grid, lam):
    cfg = EnergySimConfig(lam=lam)
    for seed in range(3):
        u = _reference_trace(seed, grid)
        want, want_best = per_threshold_sweep(u, grid, cfg)
        got, got_best = sweep_threshold(u, grid, cfg)
        assert got == want  # every field, bit for bit
        assert got_best == want_best
        assert [sweep_threshold(u, [t], cfg)[0][0] for t in grid] == want


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_sweep_with_no_step_below_the_top_equals_reference(lam):
    cfg, grid = EnergySimConfig(lam=lam), default_threshold_grid()
    u = np.concatenate([[grid[-1], 1.0], np.random.default_rng(8).uniform(grid[-1], 1.0, 500)])
    got = sweep_threshold(u, grid, cfg)
    assert got == per_threshold_sweep(u, grid, cfg)
    assert {o.sleep_steps for o in got[0]} == {0}


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_sweep_with_every_step_asleep_at_first_positive_threshold_equals_reference(lam):
    cfg, grid = EnergySimConfig(lam=lam), default_threshold_grid()
    u = np.concatenate([[0.0], np.random.default_rng(9).uniform(0.0, grid[1], 500)])
    got = sweep_threshold(u, grid, cfg)
    assert got == per_threshold_sweep(u, grid, cfg)
    assert [o.sleep_steps for o in got[0]] == [0] + [u.size] * (grid.size - 1)


@pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.5])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_sweep_rejects_out_of_range_thresholds_anywhere(bad, position):
    grid = [0.0, 0.01, 0.02, 0.03]
    grid.insert(position, bad)
    with pytest.raises(ConfigError, match=f"got {bad}$"):
        sweep_threshold(np.full(5, 0.5), np.array(grid), CFG)


def test_sweep_requires_sorted_thresholds():
    with pytest.raises(ConfigError):
        sweep_threshold(np.array([0.5]), np.array([0.02, 0.01]), CFG)


def test_simulate_deterministic():
    u = np.random.default_rng(4).uniform(0, 1, 100)
    a = sweep_threshold(u, [0.3], CFG)[0][0]
    b = sweep_threshold(u, [0.3], CFG)[0][0]
    # the per-step states, on one-step traces
    def states():
        return [sweep_threshold(u[i : i + 1], [0.3], CFG)[0][0].sleep_steps for i in range(u.size)]

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


def test_compare_equals_per_threshold_reference():
    rng = np.random.default_rng(7)
    u_true = rng.uniform(0.0, 0.05, 3000)
    u_fc = np.clip(u_true + rng.normal(0.0, 0.005, u_true.size), 0.0, 1.0)
    for th in default_threshold_grid():
        assert compare_decisions(u_true, u_fc, float(th), CFG) == per_threshold_compare(
            u_true, u_fc, float(th), CFG
        )


def test_simulate_rejects_nan_utilization():
    u = np.array([0.2, np.nan, 0.6])
    with pytest.raises(DataError):
        sweep_threshold(u, [0.01], CFG)[0][0]
    with pytest.raises(DataError):
        compare_decisions(u, np.full(3, 0.5), 0.5, CFG)


def test_compare_rejects_length_mismatch():
    with pytest.raises(DataError):
        compare_decisions(np.zeros(3), np.zeros(4), 0.5, CFG)


@pytest.mark.parametrize("field", ["c_cap", "c_cov"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_bad_capacity(field, value):
    # a NaN capacity used to pass and make the sweep report 0.0 as best
    with pytest.raises(ConfigError) as err:
        EnergySimConfig(**{field: value})
    assert f"{field} must be a positive finite capacity, got {value}" in str(err.value)


def test_config_validation():
    with pytest.raises(ConfigError):
        EnergySimConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        EnergySimConfig(e_on=100.0, e_off=200.0)
    with pytest.raises(ConfigError):
        EnergySimConfig(lam=1.5)
