import math
from dataclasses import replace

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
from intervalcast.errors import DegenerateConfidenceError, UnsupportedQueryError
from intervalcast.models import forward_batch, init
from intervalcast.patching import (
    PatchRequest,
    forecast,
    patch,
)

DIMS = (6, 3, 1)


def _params(seed=0):
    return init("mlp", DIMS, seed, hidden=5, use_covariate=True)


def _request(query, L=4, strategy="avg", seed=1):
    rng = np.random.default_rng(seed)
    return PatchRequest(rng.uniform(0, 1, (6, 1)), query, DiscretePartition(L), strategy)


def _max(request):
    return replace(request, strategy="max")


def _fake_outputs(regs, confs):
    regs = np.asarray(regs, dtype=float)
    confs = np.asarray(confs, dtype=float)

    def fake(params, history, cells):
        return regs[: len(cells)], confs[: len(cells)]

    return fake


def test_single_cell_returns_exact_output():
    params = _params()
    request = _request(Interval(0.25, 0.5))
    pred, trace = patch(params, request)
    assert trace.cells == [Interval(0.25, 0.5)]
    direct = forward_batch(params, request.history[None], [Interval(0.25, 0.5)])[0][0]
    assert np.array_equal(pred, direct)


def test_average_equal_confidences(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.2), np.full((3, 1), 0.6)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.4, 0.4]))
    pred, _ = patch(_params(), _request(Interval(0.3, 0.6), L=4))
    assert np.allclose(pred, 0.4)


def test_average_weighted_by_confidence(monkeypatch):
    regs = np.stack([np.full((3, 1), 1.0), np.full((3, 1), 0.0)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.9, 0.1]))
    pred, _ = patch(_params(), _request(Interval(0.3, 0.6), L=4))
    assert np.allclose(pred, 0.9)


def test_maxconf_takes_argmax(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.11), np.full((3, 1), 0.77)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.2, 0.8]))
    pred, _ = patch(_params(), _max(_request(Interval(0.3, 0.6), L=4)))
    assert np.array_equal(pred, regs[1])


def test_maxconf_tie_breaks_low(monkeypatch):
    regs = np.stack([np.full((3, 1), 0.11), np.full((3, 1), 0.77)])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.5, 0.5]))
    pred, trace = patch(_params(), _max(_request(Interval(0.3, 0.6), L=4)))
    assert np.array_equal(pred, regs[0])
    assert trace.cells[0].lo < trace.cells[1].lo


def test_degenerate_confidences_raise(monkeypatch):
    regs = np.zeros((2, 3, 1))
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, [0.0, 1e-13]))
    with pytest.raises(DegenerateConfidenceError):
        patch(_params(), _request(Interval(0.3, 0.6), L=4))
    with pytest.raises(DegenerateConfidenceError):
        patch(_params(), _max(_request(Interval(0.3, 0.6), L=4)))


def test_average_inside_envelope_random_models():
    rng = np.random.default_rng(3)
    for seed in range(5):
        params = _params(seed)
        request = _request(Interval(0.1, 0.9), L=8, seed=seed)
        pred, trace = patch(params, request)
        regs = np.stack(trace.predictions)
        assert np.all(pred >= regs.min(axis=0))
        assert np.all(pred <= regs.max(axis=0))


def test_maxconf_bit_identical_to_one_cell():
    params = _params(4)
    request = _request(Interval(0.0, 1.0), L=8, strategy="max")
    pred, trace = patch(params, request)
    assert any(np.array_equal(pred, r) for r in trace.predictions)


def test_strategies_invariant_to_cell_order(monkeypatch):
    regs = np.stack([np.full((3, 1), v) for v in (0.1, 0.5, 0.9)])
    confs = np.array([0.2, 0.7, 0.4])
    monkeypatch.setattr(patching, "_cell_outputs", _fake_outputs(regs, confs))
    avg1, _ = patch(_params(), _request(Interval(0.1, 0.7), L=4))
    max1, _ = patch(_params(), _max(_request(Interval(0.1, 0.7), L=4)))
    perm = [2, 0, 1]
    monkeypatch.setattr(
        patching, "_cell_outputs", _fake_outputs(regs[perm], confs[perm])
    )
    avg2, _ = patch(_params(), _request(Interval(0.1, 0.7), L=4))
    max2, _ = patch(_params(), _max(_request(Interval(0.1, 0.7), L=4)))
    assert np.abs(avg1 - avg2).max() < 1e-12
    assert np.array_equal(max1, max2)


def test_confidence_reduction_invariant_to_entry_permutation():
    # the scalar confidence is the mean over the probability head, so any
    # entry permutation leaves both strategies unchanged
    params = _params(5)
    request = _request(Interval(0.3, 0.6), L=4)
    cells = patching.intersecting(request.partition, request.query)
    reg, conf = patching._cell_outputs(params, request.history, cells)
    rng = np.random.default_rng(0)
    def permuted(params_, history, cells_):
        reg_, prob = forward_batch(
            params_, np.repeat(np.asarray(history)[None], len(cells_), 0), cells_
        )
        flat = prob.reshape(len(cells_), -1)
        perm = rng.permutation(flat.shape[1])
        return reg_, flat[:, perm].mean(axis=1)

    base_avg, _ = patch(params, request)
    base_max, _ = patch(params, _max(request))
    import intervalcast.patching as mod
    original = mod._cell_outputs
    try:
        mod._cell_outputs = permuted
        perm_avg, _ = patch(params, request)
        perm_max, _ = patch(params, _max(request))
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
    with pytest.raises(UnsupportedQueryError):
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
    request = PatchRequest(np.zeros((6, 1)), Interval(0.75, 1.0), policy.partition)
    _, trace = patch(params, request)
    assert len(trace.cells) == 2
    full = PatchRequest(np.zeros((6, 1)), Interval(0.0, 1.0), policy.partition)
    _, trace_full = patch(params, full)
    assert len(trace_full.cells) == 8
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
        request = PatchRequest(s.history, Interval(0.75, 1.0), policy.partition)
        pred, trace = patch(params, request)
        regs = np.stack(trace.predictions)
        assert len(trace.cells) == 2
        assert np.all(pred >= regs.min(axis=0)) and np.all(pred <= regs.max(axis=0))
        pred_max, trace_max = patch(params, _max(request))
        assert any(np.array_equal(pred_max, r) for r in trace_max.predictions)


def test_forecast_continuous_conditions_on_query():
    params = init("mlp", DIMS, 6, hidden=5, use_covariate=True)
    policy = PolicyConfig("c", delta=0.2)
    rng = np.random.default_rng(2)
    hist = rng.uniform(0, 1, (6, 1))
    a = forecast(params, policy, hist, Interval(0.0, 0.25))
    b = forecast(params, policy, hist, Interval(0.75, 1.0))
    assert not np.array_equal(a, b)
