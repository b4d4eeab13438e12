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
    interval_mae,
    make_windows,
    rolled_forecasts,
    rolling_eval,
    write_table_csv,
)
from intervalcast.errors import (
    ConfigError,
    DataError,
    DegenerateConfidenceError,
    DimensionError,
    UnsupportedQueryError,
)
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


def test_interval_mae_rejects_shape_mismatch():
    with pytest.raises(DimensionError) as err:
        interval_mae(np.zeros((2, 2)), np.zeros((2, 3)), Interval(0.0, 1.0))
    assert str(err.value) == "shape mismatch (2, 2) vs (2, 3)"


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


def _table(tmp_path, runs_by_policy):
    """Write the comparison table over two cells; return its header and rows by name."""
    path = tmp_path / "table.csv"
    write_table_csv(path, DiscretePartition(2).intervals, runs_by_policy)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return header, {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def test_improvement_basic(tmp_path):
    _, rows = _table(tmp_path, {"B": [[10.0, 1.0]], "D2": [[5.0, 3.0]]})
    assert float(rows["0:0.5"]["improvement_pct"]) == pytest.approx(50.0)
    assert rows["0:0.5"]["best_policy"] == "D2"
    assert rows["0.5:1"]["improvement_pct"] == "0.0"  # baseline wins, clamped
    assert rows["0.5:1"]["best_policy"] == "B"


def test_improvement_averaged_row(tmp_path):
    _, rows = _table(tmp_path, {"B": [[1.0, 3.0]], "D2": [[1.0, 1.0]]})
    avg = rows["average"]
    assert float(avg["B"]) == pytest.approx(2.0)
    assert float(avg["D2"]) == pytest.approx(1.0)
    assert float(avg["improvement_pct"]) == pytest.approx(50.0)


def test_improvement_invariant_to_common_rescale(tmp_path):
    base = {"B": [[10.0, 4.0]], "C": [[6.0, 5.0]]}
    scaled = {k: [[7.3 * mae for mae in run] for run in v] for k, v in base.items()}
    _, r1 = _table(tmp_path, base)
    _, r2 = _table(tmp_path, scaled)
    assert r1.keys() == r2.keys()
    for name in r1:
        assert float(r1[name]["improvement_pct"]) == pytest.approx(
            float(r2[name]["improvement_pct"])
        )


def test_improvement_requires_matching_intervals(tmp_path):
    # every run carries one MAE per interval of the table
    with pytest.raises(ConfigError, match="'D'"):
        _table(tmp_path, {"B": [[1.0, 1.0]], "D": [[1.0, 1.0, 1.0, 1.0]]})
    with pytest.raises(ConfigError, match="'D'"):
        _table(tmp_path, {"B": [[1.0, 1.0]], "D": [[1.0, 1.0], [1.0]]})


def test_improvement_requires_baseline(tmp_path):
    with pytest.raises(ConfigError, match="baseline"):
        _table(tmp_path, {"D2": [[1.0, 1.0]]})
    assert not (tmp_path / "table.csv").exists()


def test_table_rejects_label_without_runs(tmp_path):
    with pytest.raises(ConfigError, match="'D2' has no runs"):
        _table(tmp_path, {"B": [[1.0, 1.0]], "D2": []})


def test_table_csv_layout(tmp_path):
    _table(tmp_path, {"B": [[2.0, 4.0]], "D2": [[1.0, 2.0]]})
    assert (tmp_path / "table.csv").read_text().splitlines() == [
        "interval,B,D2,best_policy,improvement_pct",
        "0:0.5,2.0,1.0,D2,50.0",
        "0.5:1,4.0,2.0,D2,50.0",
        "average,3.0,1.5,D2,50.0",
    ]


def test_table_cell_is_mean_of_present_runs(tmp_path):
    # the run that covered nothing on 0.5:1 does not pull that cell toward 0
    _, rows = _table(tmp_path, {"B": [[1.0, 2.0]], "D2": [[0.5, None], [1.5, 0.25]]})
    assert rows["0:0.5"]["D2"] == repr(1.0)
    assert rows["0.5:1"]["D2"] == repr(0.25)
    assert rows["average"]["D2"] == repr(0.625)


def test_table_interval_no_policy_covers(tmp_path):
    _, rows = _table(tmp_path, {"B": [[1.0, None]], "D2": [[0.5, None], [0.25, None]]})
    assert rows["0.5:1"] == {"B": "", "D2": "", "best_policy": "", "improvement_pct": ""}
    assert rows["average"] == {
        "B": "1.0", "D2": "0.375", "best_policy": "D2", "improvement_pct": "62.5",
    }


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
    got = rolling_eval(params, policy, series, cfg, queries, strategy=strategy)
    ref = per_origin_rolling_eval(params, policy, series, cfg, queries, strategy=strategy)
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
    got = rolling_eval(params, policy, series, cfg, queries, strategy=strategy)
    ref = stacked_rolling_eval(params, policy, series, cfg, queries, strategy=strategy)
    assert got == ref  # every field of every IntervalMetric, floats by ==
    assert got[3].interval == Interval(0.75, 1.0) and got[3].mae is None


@pytest.mark.parametrize("name", list(_POLICIES))
@pytest.mark.parametrize("strategy", ["avg", "max"])
def test_rolled_forecasts_serve_the_rolled_stack(name, strategy):
    # forecast_each of the windows tau apart, bit for bit, whatever the
    # stride; the 3 trailing steps cannot fit a roll
    policy, queries = _POLICIES[name]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=policy.uses_covariate)
    series = _two_channel_series(8 + 4 * 9 + 3)
    preds, targets = rolled_forecasts(
        params, policy, series, WindowConfig(8, 4, stride=3), queries, strategy
    )
    rolls = make_windows(series, WindowConfig(8, 4, 4))
    want = patching.forecast_each(params, policy, rolls.history, queries, strategy)
    assert len(preds) == len(want) == len(queries)
    for got, ref in zip(preds, want):
        assert got.shape == (9, 4, 2)
        assert got.tobytes() == ref.tobytes()
    assert targets.tobytes() == rolls.target.tobytes()
    assert targets.reshape(-1, 2).tobytes() == series.values[8 : 8 + 36].tobytes()


def test_rolling_eval_names_a_degenerate_origin(monkeypatch):
    # zero the confidences of the fourth origin only: one forecast call
    # serves all origins, and its error must say which one no cell claims
    real = patching.forward_cells

    def fourth_unclaimed(projection, cells):
        reg, prob = real(projection, cells)
        prob = prob.copy()
        prob[3] = 0.0
        return reg, prob

    monkeypatch.setattr(patching, "forward_cells", fourth_unclaimed)
    policy, queries = _POLICIES["dstar"]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=True)
    with pytest.raises(DegenerateConfidenceError) as err:
        rolling_eval(params, policy, _two_channel_series(8 + 4 * 9), WindowConfig(8, 4), queries)
    assert "history 3 " in str(err.value)


@pytest.mark.parametrize("name", list(_POLICIES))
def test_rolling_eval_projects_the_rolled_stack_once(name, monkeypatch):
    # every interval is served from one projection of all origins' histories
    policy, queries = _POLICIES[name]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=policy.uses_covariate)
    projected = []
    real = patching.project_histories

    def recording(params, histories):
        projected.append(len(histories))
        return real(params, histories)

    monkeypatch.setattr(patching, "project_histories", recording)
    rolling_eval(params, policy, _two_channel_series(8 + 4 * 9), WindowConfig(8, 4), queries)
    assert projected == [9]


def test_rolling_eval_rejects_an_unknown_strategy():
    # the baseline ignores the strategy, but an unknown one is still an error
    policy, queries = _POLICIES["b"]
    params = init("mlp", (8, 4, 2), 1, hidden=5, use_covariate=False)
    with pytest.raises(UnsupportedQueryError, match="unknown strategy 'median'"):
        rolling_eval(params, policy, _two_channel_series(8 + 4 * 9), WindowConfig(8, 4),
                     queries, strategy="median")
