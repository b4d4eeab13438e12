import numpy as np
import pytest

import intervalcast.patching as patching
from intervalcast import (
    DecaySpec,
    DiscretePartition,
    Interval,
    PolicyConfig,
    TimeSeries,
    WindowConfig,
    improvement_table,
    interval_mae,
    rolling_eval,
    strategy_ratio,
    write_table_csv,
)
from intervalcast.errors import (
    ConfigError,
    DataError,
    DegenerateConfidenceError,
    RatioUndefinedError,
    UnsupportedQueryError,
)
from intervalcast.evaluation import IntervalMetric
from intervalcast.intervals import entries_inside
from intervalcast.models import init
from per_origin_eval import per_origin_rolling_eval
from stacked_eval import stacked_rolling_eval


def test_interval_mae_perfect():
    t = np.array([[0.1, 0.2], [0.3, 0.4]])
    m = interval_mae(t, t, Interval(0.0, 1.0))
    assert m.mae == 0.0
    assert m.covered_entries == 4


def test_interval_mae_hand_masked():
    targets = np.array([[0.1], [0.9]])
    preds = np.array([[0.2], [0.0]])
    m = interval_mae(preds, targets, Interval(0.0, 0.5))
    assert m.covered_entries == 1
    assert m.mae == pytest.approx(0.1)


def test_interval_mae_full_domain_is_plain_mae():
    rng = np.random.default_rng(0)
    targets = rng.uniform(0, 1, (10, 3))
    preds = rng.uniform(0, 1, (10, 3))
    m = interval_mae(preds, targets, Interval(0.0, 1.0))
    assert m.mae == pytest.approx(np.abs(preds - targets).mean(), rel=1e-12)
    assert m.covered_entries == 30


def test_interval_mae_empty_signal():
    targets = np.full((2, 2), 0.9)
    m = interval_mae(targets, targets, Interval(0.0, 0.25))
    assert m.mae is None
    assert m.covered_entries == 0


def test_interval_mae_scale():
    targets = np.array([[0.2]])
    preds = np.array([[0.4]])
    m = interval_mae(preds, targets, Interval(0.0, 1.0), scale=500.0)
    assert m.mae == pytest.approx(100.0)


def test_membership_upper_exclusive_except_last():
    cells = DiscretePartition(4).intervals
    t = np.array([[0.25], [1.0]])
    assert not entries_inside(t, cells[0].lo, cells[0].hi)[0, 0]  # 0.25 belongs to cell 2
    assert entries_inside(t, cells[1].lo, cells[1].hi)[0, 0]
    assert entries_inside(t, cells[3].lo, cells[3].hi)[1, 0]  # 1.0 belongs to the last cell


def test_mask_partition_identity():
    rng = np.random.default_rng(1)
    preds = rng.uniform(0, 1, (50, 4))
    targets = rng.uniform(0, 1, (50, 4))
    cells = DiscretePartition(8).intervals
    metrics = [interval_mae(preds, targets, c) for c in cells]
    assert sum(m.covered_entries for m in metrics) == targets.size
    recombined = (
        sum(m.mae * m.covered_entries for m in metrics if m.mae is not None)
        / targets.size
    )
    assert recombined == pytest.approx(np.abs(preds - targets).mean(), abs=1e-12)


# ---------------------------------------------------------------- tables


def _metric(iv, mae):
    return IntervalMetric(iv, mae, 10, 20)


def test_improvement_basic():
    cells = DiscretePartition(2).intervals
    rows = improvement_table(
        {
            "B": [_metric(cells[0], 10.0), _metric(cells[1], 1.0)],
            "D2": [_metric(cells[0], 5.0), _metric(cells[1], 3.0)],
        }
    )
    assert rows[0].improvement_pct == pytest.approx(50.0)
    assert rows[0].best_policy == "D2"
    assert rows[1].improvement_pct == 0.0  # baseline wins, clamped
    assert rows[1].best_policy == "B"


def test_improvement_averaged_row():
    cells = DiscretePartition(2).intervals
    rows = improvement_table(
        {
            "B": [_metric(cells[0], 1.0), _metric(cells[1], 3.0)],
            "D2": [_metric(cells[0], 1.0), _metric(cells[1], 1.0)],
        }
    )
    avg = rows[-1]
    assert avg.interval is None
    assert avg.maes["B"] == pytest.approx(2.0)
    assert avg.maes["D2"] == pytest.approx(1.0)
    assert avg.improvement_pct == pytest.approx(50.0)


def test_improvement_invariant_to_common_rescale():
    cells = DiscretePartition(2).intervals
    base = {
        "B": [_metric(cells[0], 10.0), _metric(cells[1], 4.0)],
        "C": [_metric(cells[0], 6.0), _metric(cells[1], 5.0)],
    }
    scaled = {
        k: [_metric(m.interval, 7.3 * m.mae) for m in v] for k, v in base.items()
    }
    r1 = improvement_table(base)
    r2 = improvement_table(scaled)
    for a, b in zip(r1, r2):
        assert a.improvement_pct == pytest.approx(b.improvement_pct)


def test_improvement_requires_matching_intervals():
    c2 = DiscretePartition(2).intervals
    c4 = DiscretePartition(4).intervals
    with pytest.raises(ConfigError):
        improvement_table(
            {
                "B": [_metric(c2[0], 1.0), _metric(c2[1], 1.0)],
                "D": [_metric(c4[0], 1.0), _metric(c4[1], 1.0)],
            }
        )


def test_improvement_requires_baseline():
    cells = DiscretePartition(2).intervals
    with pytest.raises(ConfigError):
        improvement_table({"D2": [_metric(cells[0], 1.0), _metric(cells[1], 1.0)]})


def test_table_csv_layout(tmp_path):
    cells = DiscretePartition(2).intervals
    rows = improvement_table(
        {
            "B": [_metric(cells[0], 2.0), _metric(cells[1], 4.0)],
            "D2": [_metric(cells[0], 1.0), _metric(cells[1], 2.0)],
        }
    )
    path = tmp_path / "table.csv"
    write_table_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "interval,B,D2,best_policy,improvement_pct"
    assert len(lines) == 4  # header + 2 intervals + average
    assert lines[-1].startswith("average,")


def test_strategy_ratio():
    assert strategy_ratio(1.0, 1.0) == 1.0
    assert strategy_ratio(0.5, 1.0) == 0.5
    assert strategy_ratio(2.0, 1.0) == 2.0
    with pytest.raises(RatioUndefinedError):
        strategy_ratio(1.0, 0.0)


# ---------------------------------------------------------------- rolling


def _flat_series(T):
    rng = np.random.default_rng(2)
    return TimeSeries(rng.uniform(0, 1, (T, 1)), ("u",), 1.0)


def _blind_params(w=8, tau=4):
    params = init("mlp", (w, tau, 1), 0, hidden=3, use_covariate=False)
    return params


def test_rolling_roll_counts():
    cfg = WindowConfig(8, 4)
    policy = PolicyConfig("b")
    params = _blind_params()
    m1 = rolling_eval(params, policy, _flat_series(12), cfg, [Interval(0, 1)])
    assert m1[0].total_entries == 4
    m4 = rolling_eval(params, policy, _flat_series(8 + 16), cfg, [Interval(0, 1)])
    assert m4[0].total_entries == 16


def test_rolling_requires_minimum_span():
    cfg = WindowConfig(8, 4)
    with pytest.raises(DataError):
        rolling_eval(_blind_params(), PolicyConfig("b"), _flat_series(11), cfg, [Interval(0, 1)])


def test_rolling_covers_each_entry_once():
    cfg = WindowConfig(8, 4)
    series = _flat_series(8 + 4 * 7 + 3)  # trailing 3 steps cannot fit a roll
    metrics = rolling_eval(_blind_params(), PolicyConfig("b"), series, cfg, [Interval(0, 1)])
    assert metrics[0].total_entries == 4 * 7
    assert metrics[0].covered_entries == 4 * 7


def test_rolling_partition_masks_partition_entries():
    cfg = WindowConfig(8, 4)
    series = _flat_series(8 + 4 * 5)
    cells = DiscretePartition(4).intervals
    metrics = rolling_eval(_blind_params(), PolicyConfig("b"), series, cfg, cells)
    assert sum(m.covered_entries for m in metrics) == 4 * 5


def test_rolling_eval_dstar_strategies():
    import math
    from intervalcast import DecaySpec
    from intervalcast.models import init as model_init

    cfg = WindowConfig(8, 4)
    series = _flat_series(8 + 4 * 4)
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(8), nu=DecaySpec(math.inf), phi=0.5
    )
    params = model_init("mlp", (8, 4, 1), 3, hidden=4, use_covariate=True)
    cells = DiscretePartition(4).intervals  # coarser than training: real patching
    for strategy in ("avg", "max"):
        metrics = rolling_eval(params, policy, series, cfg, cells, strategy=strategy)
        assert len(metrics) == 4
        assert sum(m.covered_entries for m in metrics) == 16


# ------------------------------------------- batched against per-origin reference

_QUERIES = DiscretePartition(4).intervals + (Interval(0.1, 0.7), Interval(0.0, 1.0))
_POLICIES = {
    "b": (PolicyConfig("b"), _QUERIES),
    "e2e": (PolicyConfig("e2e", task_interval=Interval(0.5, 1.0)), (Interval(0.5, 1.0),)),
    "c": (PolicyConfig("c", delta=0.2), _QUERIES),
    "d": (PolicyConfig("d", partition=DiscretePartition(4)), DiscretePartition(4).intervals),
    "dstar": (
        PolicyConfig("dstar", partition=DiscretePartition(8), nu=DecaySpec(2.0), phi=0.5),
        _QUERIES,
    ),
}


def _two_channel_series(T):
    rng = np.random.default_rng(5)
    return TimeSeries(rng.uniform(0, 1, (T, 2)), ("u", "v"), 1.0)


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("name", list(_POLICIES))
@pytest.mark.parametrize("strategy", ["avg", "max"])
def test_rolling_eval_matches_per_origin_reference(kind, name, strategy):
    policy, queries = _POLICIES[name]
    params = init(kind, (8, 4, 2), 1, hidden=5, kernel=3, use_covariate=policy.uses_covariate)
    series = _two_channel_series(8 + 4 * 9)
    cfg = WindowConfig(8, 4)
    got = rolling_eval(params, policy, series, cfg, queries, strategy=strategy, scale=2.0)
    ref = per_origin_rolling_eval(params, policy, series, cfg, queries, strategy=strategy, scale=2.0)
    assert [m.covered_entries for m in got] == [m.covered_entries for m in ref]
    assert [m.total_entries for m in got] == [m.total_entries for m in ref]
    for g, r in zip(got, ref):
        assert (g.mae is None) == (r.mae is None)
        if r.mae is not None:
            assert g.mae == pytest.approx(r.mae, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("name", ["b", "dstar"])
@pytest.mark.parametrize("strategy", ["avg", "max"])
def test_rolling_eval_equals_stacked_kernel_bitwise(kind, name, strategy):
    # values stay below 0.6, so the top cell [0.75, 1] covers no entry
    policy, queries = _POLICIES[name]
    params = init(kind, (8, 4, 2), 1, hidden=5, kernel=3, use_covariate=policy.uses_covariate)
    rng = np.random.default_rng(6)
    series = TimeSeries(rng.uniform(0, 0.6, (8 + 4 * 60, 2)), ("u", "v"), 1.0)
    cfg = WindowConfig(8, 4)
    got = rolling_eval(params, policy, series, cfg, queries, strategy=strategy, scale=2.5)
    ref = stacked_rolling_eval(params, policy, series, cfg, queries, strategy=strategy, scale=2.5)
    assert got == ref  # every field of every IntervalMetric, floats by ==
    assert got[3].interval == Interval(0.75, 1.0) and got[3].mae is None


def test_rolling_eval_names_a_degenerate_origin(monkeypatch):
    # zero the confidences of the fourth origin only: one forecast call
    # serves all origins, and its error must say which one no cell claims
    real = patching._cell_outputs

    def fourth_unclaimed(params, history, cells):
        reg, conf = real(params, history, cells)
        conf = conf.copy()
        conf[3] = 0.0
        return reg, conf

    monkeypatch.setattr(patching, "_cell_outputs", fourth_unclaimed)
    policy, queries = _POLICIES["dstar"]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=True)
    with pytest.raises(DegenerateConfidenceError) as err:
        rolling_eval(params, policy, _two_channel_series(8 + 4 * 9), WindowConfig(8, 4), queries)
    assert "history 3 " in str(err.value)


def test_rolling_eval_rejects_an_unknown_strategy():
    # the baseline ignores the strategy, but an unknown one is still an error
    policy, queries = _POLICIES["b"]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=False)
    with pytest.raises(UnsupportedQueryError, match="unknown strategy 'median'"):
        rolling_eval(params, policy, _two_channel_series(8 + 4 * 9), WindowConfig(8, 4),
                     queries, strategy="median")
