import math

import numpy as np
import pytest

import intervalcast.patching as patching
from intervalcast import (
    DecaySpec,
    DiscretePartition,
    FULL_DOMAIN,
    Interval,
    PolicyConfig,
    SplitSpec,
    WindowConfig,
    chrono_split,
    generate_synthds,
    make_windows,
    train,
)
from intervalcast.errors import DegenerateConfidenceError, DimensionError, UnsupportedQueryError
from intervalcast.models import forward_batch, forward_cells, init, project_histories
from intervalcast.patching import forecast, forecast_each

DIMS = (6, 3, 1)


def _params(seed=0):
    return init("mlp", DIMS, seed, hidden=5, use_covariate=True)


def _dstar(L):
    return PolicyConfig("dstar", partition=DiscretePartition(L), nu=DecaySpec(math.inf), phi=0.5)


def _request(query, L=4, strategy="avg", seed=1):
    """The arguments of one dstar forecast call after ``params``, by name."""
    rng = np.random.default_rng(seed)
    return dict(
        policy=_dstar(L), history=rng.uniform(0, 1, (6, 1)), query=query, strategy=strategy,
    )


def _max(request):
    return {**request, "strategy": "max"}


def _cells(request):
    return patching.intersecting(request["policy"].partition, request["query"])


def _cell_predictions(params, request):
    projection = project_histories(params, request["history"][None])
    return patching._cell_outputs(projection, _cells(request), ())[0]


def _fake_outputs(regs, confs):
    regs = np.asarray(regs, dtype=float)
    confs = np.asarray(confs, dtype=float)

    def fake(projection, cells, lead):
        return regs[: len(cells)], confs[: len(cells)]

    return fake


def test_single_cell_returns_exact_output():
    params = _params()
    request = _request(Interval(0.25, 0.5))
    pred = forecast(params, **request)
    assert _cells(request) == [Interval(0.25, 0.5)]
    direct = forward_batch(params, request["history"][None], [Interval(0.25, 0.5)])[0][0]
    assert np.array_equal(pred, direct)


def test_average_equal_confidences(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.2), np.full((3, 1), 0.6)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.4, 0.4]))
    pred = forecast(_params(), **_request(Interval(0.3, 0.6), L=4))
    assert np.allclose(pred, 0.4)


def test_average_weighted_by_confidence(monkeypatch):
    regs = np.stack([np.full((3, 1), 1.0), np.full((3, 1), 0.0)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.9, 0.1]))
    pred = forecast(_params(), **_request(Interval(0.3, 0.6), L=4))
    assert np.allclose(pred, 0.9)


def test_maxconf_takes_argmax(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.11), np.full((3, 1), 0.77)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.2, 0.8]))
    pred = forecast(_params(), **_max(_request(Interval(0.3, 0.6), L=4)))
    assert np.array_equal(pred, regs[1])


def test_maxconf_tie_breaks_low(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.11), np.full((3, 1), 0.77)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.5, 0.5]))
    request = _max(_request(Interval(0.3, 0.6), L=4))
    pred = forecast(_params(), **request)
    assert np.array_equal(pred, regs[0])
    low, high = _cells(request)
    assert low.lo < high.lo


def test_degenerate_confidences_raise(monkeypatch):
    regs = np.zeros((2, 3, 1))
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.0, 1e-13]))
    with pytest.raises(DegenerateConfidenceError):
        forecast(_params(), **_request(Interval(0.3, 0.6), L=4))
    with pytest.raises(DegenerateConfidenceError):
        forecast(_params(), **_max(_request(Interval(0.3, 0.6), L=4)))


def test_average_inside_envelope_random_models():
    rng = np.random.default_rng(3)
    for seed in range(5):
        params = _params(seed)
        request = _request(Interval(0.1, 0.9), L=8, seed=seed)
        pred = forecast(params, **request)
        regs = _cell_predictions(params, request)
        assert np.all(pred >= regs.min(axis=0))
        assert np.all(pred <= regs.max(axis=0))


def test_maxconf_bit_identical_to_one_cell():
    params = _params(4)
    request = _request(Interval(0.0, 1.0), L=8, strategy="max")
    pred = forecast(params, **request)
    assert any(np.array_equal(pred, r) for r in _cell_predictions(params, request))


def test_strategies_invariant_to_cell_order(monkeypatch):
    regs = np.stack([np.full((3, 1), v) for v in (0.1, 0.5, 0.9)])
    confs = np.array([0.2, 0.7, 0.4])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, confs))
    avg1 = forecast(_params(), **_request(Interval(0.1, 0.7), L=4))
    max1 = forecast(_params(), **_max(_request(Interval(0.1, 0.7), L=4)))
    perm = [2, 0, 1]
    monkeypatch.setattr(
        patching, "_cell_outputs", _fake_outputs(regs[perm], confs[perm])
    )
    avg2 = forecast(_params(), **_request(Interval(0.1, 0.7), L=4))
    max2 = forecast(_params(), **_max(_request(Interval(0.1, 0.7), L=4)))
    assert np.abs(avg1 - avg2).max() < 1e-12
    assert np.array_equal(max1, max2)


def test_confidence_reduction_invariant_to_entry_permutation():
    # the scalar confidence is the mean over the probability head, so any
    # entry permutation leaves both strategies unchanged
    params = _params(5)
    request = _request(Interval(0.3, 0.6), L=4)
    rng = np.random.default_rng(0)
    def permuted(projection, cells_, lead):
        reg_, prob = forward_cells(projection, cells_)
        flat = prob.reshape(len(cells_), -1)
        perm = rng.permutation(flat.shape[1])
        return reg_[0], flat[:, perm].mean(axis=1)

    base_avg = forecast(params, **request)
    base_max = forecast(params, **_max(request))
    import intervalcast.patching as mod
    original = mod._cell_outputs
    try:
        mod._cell_outputs = permuted
        perm_avg = forecast(params, **request)
        perm_max = forecast(params, **_max(request))
    finally:
        mod._cell_outputs = original
    assert np.abs(base_avg - perm_avg).max() < 1e-12
    assert np.array_equal(base_max, perm_max)


# ---------------------------------------------------------------- dispatch


def test_forecast_baseline_ignores_query():
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=False)
    rng = np.random.default_rng(1)
    hist = rng.uniform(0, 1, (6, 1))
    policy = PolicyConfig("b")
    a = forecast(params, policy, hist, Interval(0.0, 0.25))
    b = forecast(params, policy, hist, Interval(0.75, 1.0))
    assert np.array_equal(a, b)


def test_forecast_e2e_rejects_other_queries():
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=False)
    policy = PolicyConfig("e2e", task_interval=Interval(0.75, 1.0))
    hist = np.zeros((6, 1))
    out = forecast(params, policy, hist, Interval(0.75, 1.0))
    assert out.shape == (3, 1)
    with pytest.raises(UnsupportedQueryError, match="train the dstar policy"):
        forecast(params, policy, hist, Interval(0.5, 1.0))


def test_forecast_d_requires_exact_cell():
    params = _params(2)
    policy = PolicyConfig("d", partition=DiscretePartition(4))
    hist = np.zeros((6, 1))
    out = forecast(params, policy, hist, Interval(0.25, 0.5))
    assert out.shape == (3, 1)
    with pytest.raises(UnsupportedQueryError) as err:
        forecast(params, policy, hist, Interval(0.3, 0.6))
    assert "dstar" in str(err.value)


def test_forecast_dstar_patches_expected_cells():
    params = init("mlp", (6, 3, 1), 3, hidden=5, use_covariate=True)
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(8), nu=DecaySpec(math.inf), phi=0.5
    )
    request = dict(policy=policy, history=np.zeros((6, 1)), query=Interval(0.75, 1.0))
    forecast(params, **request)
    assert len(_cells(request)) == 2
    full = {**request, "query": Interval(0.0, 1.0)}
    forecast(params, **full)
    assert len(_cells(full)) == 8
    out = forecast(params, policy, np.zeros((6, 1)), Interval(0.75, 1.0), "max")
    assert out.shape == (3, 1)


def test_trained_patching_contract_end_to_end():
    # a short real training run: the patched output must sit inside the
    # contributing envelope and the max strategy must copy one cell
    series = generate_synthds(15, 0.0)
    samples = make_windows(series, WindowConfig(12, 6))
    tr, va, te = chrono_split(samples, SplitSpec(0.66, 0.17, 0.17))
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(8), nu=DecaySpec(37.0), phi=0.5
    )
    params, _, _ = train(policy, "mlp", tr[:400], va[:100], 0, epochs=4, hidden=16)
    for s in te[:20]:
        request = dict(policy=policy, history=s.history, query=Interval(0.75, 1.0))
        pred = forecast(params, **request)
        regs = _cell_predictions(params, request)
        assert len(_cells(request)) == 2
        assert np.all(pred >= regs.min(axis=0)) and np.all(pred <= regs.max(axis=0))
        pred_max = forecast(params, **_max(request))
        assert any(np.array_equal(pred_max, r) for r in regs)


def test_forecast_continuous_conditions_on_query():
    params = init("mlp", DIMS, 6, hidden=5, use_covariate=True)
    policy = PolicyConfig("c", delta=0.2)
    rng = np.random.default_rng(2)
    hist = rng.uniform(0, 1, (6, 1))
    a = forecast(params, policy, hist, Interval(0.0, 0.25))
    b = forecast(params, policy, hist, Interval(0.75, 1.0))
    assert not np.array_equal(a, b)


_STACK_CASES = [
    (PolicyConfig("b"), Interval(0.1, 0.7)),
    (PolicyConfig("e2e", task_interval=Interval(0.5, 1.0)), Interval(0.5, 1.0)),
    (PolicyConfig("c", delta=0.2), Interval(0.1, 0.7)),
    (PolicyConfig("d", partition=DiscretePartition(4)), Interval(0.25, 0.5)),
    (PolicyConfig("dstar", partition=DiscretePartition(8), nu=DecaySpec(2.0), phi=0.5),
     Interval(0.1, 0.7)),
]


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("policy,query", _STACK_CASES, ids=lambda c: getattr(c, "kind", None))
@pytest.mark.parametrize("strategy", ["avg", "max"])
def test_forecast_of_a_stack_equals_single_calls(kind, policy, query, strategy):
    params = init(kind, (6, 3, 2), 7, hidden=5, kernel=3, use_covariate=policy.uses_covariate)
    stack = np.random.default_rng(4).uniform(0, 1, (9, 6, 2))
    got = forecast(params, policy, stack, query, strategy)
    singles = np.stack([forecast(params, policy, h, query, strategy) for h in stack])
    assert got.shape == (9, 3, 2)
    assert np.allclose(got, singles, rtol=0.0, atol=1e-12)


def _servable(policy):
    """Several queries that ``policy`` serves, in no particular order."""
    if policy.kind == "e2e":
        return [policy.task_interval] * 2
    if policy.kind == "d":
        return list(reversed(policy.partition.intervals))
    return [Interval(0.1, 0.7), Interval(0.0, 0.25), Interval(0.0, 1.0), Interval(0.75, 1.0)]


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("policy", [c[0] for c in _STACK_CASES], ids=lambda p: p.kind)
@pytest.mark.parametrize("strategy", ["avg", "max"])
@pytest.mark.parametrize("shape", [(6, 2), (9, 6, 2)], ids=["one", "stack"])
def test_forecast_each_equals_one_forecast_per_query_bitwise(kind, policy, strategy, shape):
    params = init(kind, (6, 3, 2), 7, hidden=5, kernel=3, use_covariate=policy.uses_covariate)
    history = np.random.default_rng(8).uniform(0, 1, shape)
    queries = _servable(policy)
    got = forecast_each(params, policy, history, queries, strategy)
    assert len(got) == len(queries)
    for pred, query in zip(got, queries):
        assert pred.shape == shape[:-2] + (3, 2)
        assert pred.tobytes() == forecast(params, policy, history, query, strategy).tobytes()


def test_forecast_each_checks_every_query_before_serving_any(monkeypatch):
    projected = []
    monkeypatch.setattr(patching, "project_histories", lambda *args: projected.append(args))
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=False)
    policy = PolicyConfig("e2e", task_interval=Interval(0.75, 1.0))
    with pytest.raises(UnsupportedQueryError):
        forecast_each(params, policy, np.zeros((6, 1)), [Interval(0.75, 1.0), Interval(0.5, 1.0)])
    assert projected == []


@pytest.mark.parametrize("policy,query", _STACK_CASES, ids=lambda c: getattr(c, "kind", None))
def test_forecast_rejects_an_unknown_strategy_for_every_policy(policy, query):
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=policy.uses_covariate)
    with pytest.raises(UnsupportedQueryError, match="unknown strategy 'median'"):
        forecast(params, policy, np.zeros((6, 1)), query, "median")


def test_patch_rejects_an_unknown_strategy():
    with pytest.raises(UnsupportedQueryError, match="unknown strategy 'median'"):
        forecast(_params(), **_request(Interval(0.3, 0.6), strategy="median"))


def test_patch_of_a_stack_keeps_one_trace_row_per_history():
    params = _params(3)
    stack = np.random.default_rng(6).uniform(0, 1, (5, 6, 1))
    pred = forecast(params, _dstar(4), stack, Interval(0.3, 0.6))
    assert pred.shape == (5, 3, 1)
    for b in range(5):
        alone = forecast(params, _dstar(4), stack[b], Interval(0.3, 0.6))
        assert np.allclose(pred[b], alone, rtol=0.0, atol=1e-12)


def test_patch_rejects_a_history_of_the_wrong_rank():
    with pytest.raises(DimensionError):
        forecast(_params(), _dstar(4), np.zeros(6), Interval(0.3, 0.6))
