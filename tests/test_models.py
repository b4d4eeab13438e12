import math

import numpy as np
import pytest

from intervalcast import (
    DecaySpec,
    DiscretePartition,
    FULL_DOMAIN,
    Interval,
    PolicyConfig,
    Windows,
    draw_batch,
    init,
)
from intervalcast.errors import ConfigError, DataError, DimensionError, NumericError
from intervalcast.models import (
    BatchDraw,
    ModelArch,
    ModelParams,
    _layout,
    _sigmoid,
    _unpack,
    backward,
    moving_average,
    forward_batch,
    forward_cells,
    project_histories,
)
from assembled_gradient import assembled_backward
from concat_forward import concat_forward
from fd_check import check_gradient
from per_kind_init import per_kind_init, per_kind_param_count, per_kind_unpack

DIMS = (6, 3, 2)  # w, tau, n


def _sample(rng, level=None):
    hist = rng.uniform(0, 1, (DIMS[0], DIMS[2]))
    if level is None:
        target = rng.uniform(0, 1, (DIMS[1], DIMS[2]))
    else:
        target = np.full((DIMS[1], DIMS[2]), level)
    return hist, target


def _windows(pairs):
    """Windows of (history, target) pairs, at origins 0, 1, ..."""
    histories, targets = zip(*pairs)
    return Windows(np.stack(histories), np.stack(targets), np.arange(len(targets)))


def _forward(params, history, interval):
    """Regression and probability of one history conditioned on one interval."""
    reg, prob = forward_batch(params, history[None], [interval])
    return reg[0], prob[0]


def _full_domain_draw(weights):
    weights = np.asarray(weights, dtype=np.float64)
    return BatchDraw(np.tile([FULL_DOMAIN.lo, FULL_DOMAIN.hi], (len(weights), 1)), weights, None)


def test_init_deterministic():
    a = init("mlp", DIMS, 5, hidden=4)
    b = init("mlp", DIMS, 5, hidden=4)
    assert np.array_equal(a.theta, b.theta)


def test_init_scale_matches_fan_in():
    # mlp first layer fan_in = w*n + 2 = 100 for w=49, n=2 -> bound 0.1
    params = init("mlp", (49, 2, 2), 0, hidden=32)
    w1 = params.theta[: 32 * 100]
    assert np.abs(w1).max() <= 0.1
    assert np.abs(w1).max() > 0.09  # the bound is actually approached


def test_init_rejects_zero_hidden():
    with pytest.raises(ConfigError):
        init("mlp", DIMS, 0, hidden=0)


def test_init_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        init("transformer", DIMS, 0)


def test_zero_mlp_outputs_bias_and_half_probability():
    params = init("mlp", DIMS, 0, hidden=4)
    params.theta[:] = 0.0
    rng = np.random.default_rng(0)
    reg, prob = _forward(params, rng.uniform(0, 1, (6, 2)), FULL_DOMAIN)
    assert np.array_equal(reg, np.zeros((3, 2)))
    assert np.array_equal(prob, np.full((3, 2), 0.5))


def test_linear_identity_weights_track_constant_history():
    # trend weights set to a mean over the history reproduce a constant input
    params = init("linear", DIMS, 0, kernel=3)
    params.theta[:] = 0.0
    views_wt = params.theta[: 6 * 8].reshape(6, 8)
    views_wt[:3, :6] = 1.0 / 6.0  # regression rows read the trend evenly
    reg, _ = _forward(params, np.full((6, 2), 0.37), FULL_DOMAIN)
    assert np.abs(reg - 0.37).max() < 1e-12


def test_forward_is_pure():
    params = init("mlp", DIMS, 1, hidden=5)
    rng = np.random.default_rng(2)
    hist = rng.uniform(0, 1, (6, 2))
    a = _forward(params, hist, Interval(0.2, 0.6))
    b = _forward(params, hist, Interval(0.2, 0.6))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_covariate_changes_output():
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=True)
    rng = np.random.default_rng(3)
    hist = rng.uniform(0, 1, (6, 2))
    a = _forward(params, hist, Interval(0.0, 0.25))
    b = _forward(params, hist, Interval(0.75, 1.0))
    assert not np.array_equal(a[0], b[0])


def test_covariate_pinned_for_interval_blind_models():
    params = init("mlp", DIMS, 1, hidden=5, use_covariate=False)
    rng = np.random.default_rng(3)
    hist = rng.uniform(0, 1, (6, 2))
    a = _forward(params, hist, Interval(0.0, 0.25))
    b = _forward(params, hist, Interval(0.75, 1.0))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_forward_shape_error():
    params = init("mlp", DIMS, 1, hidden=5)
    with pytest.raises(DimensionError):
        _forward(params, np.zeros((5, 2)), FULL_DOMAIN)


def test_probability_is_sigmoid_open_interval():
    params = init("mlp", DIMS, 4, hidden=5)
    rng = np.random.default_rng(6)
    reg, prob = forward_batch(
        params, rng.uniform(0, 1, (8, 6, 2)), [FULL_DOMAIN] * 8
    )
    assert prob.min() > 0.0 and prob.max() < 1.0


def test_forward_batch_accepts_interval_bounds_array():
    params = init("mlp", DIMS, 4, hidden=5)
    H = np.random.default_rng(5).uniform(0, 1, (3, 6, 2))
    cells = [Interval(0.0, 0.25), Interval(0.25, 1.0), Interval(0.5, 0.5)]
    bounds = np.array([(c.lo, c.hi) for c in cells])
    for a, b in zip(forward_batch(params, H, cells), forward_batch(params, H, bounds)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("use_covariate", [True, False])
def test_forward_batch_matches_concatenated_input_reference(kind, use_covariate):
    params = init(kind, DIMS, 8, hidden=5, kernel=3, use_covariate=use_covariate)
    rng = np.random.default_rng(9)
    H = rng.uniform(0, 1, (7, 6, 2))
    lo = rng.uniform(0, 0.5, 7)
    bounds = np.column_stack((lo, lo + rng.uniform(0.1, 0.5, 7)))
    for got, ref in zip(forward_batch(params, H, bounds), concat_forward(params, H, bounds)):
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["mlp", "linear"])
def test_forward_cells_rows_equal_forward_batch(kind):
    # row [b, k] is history b conditioned on interval k, from one projection
    params = init(kind, DIMS, 3, hidden=5, kernel=3)
    H = np.random.default_rng(10).uniform(0, 1, (4, 6, 2))
    cells = DiscretePartition(4).intervals + (Interval(0.1, 0.7),)
    reg, prob = forward_cells(project_histories(params, H), cells)
    assert reg.shape == prob.shape == (4, 5, 3, 2)
    for k, cell in enumerate(cells):
        ref_reg, ref_prob = forward_batch(params, H, [cell] * 4)
        assert np.allclose(reg[:, k], ref_reg, rtol=0.0, atol=1e-12)
        assert np.allclose(prob[:, k], ref_prob, rtol=0.0, atol=1e-12)


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_form_bitwise():
    rng = np.random.default_rng(17)
    outputs = rng.normal(scale=8.0, size=(112, 2400))
    cases = [
        np.array([750.0, -750.0, 0.0, -0.0, 709.0, -709.0, 37.0, -37.0, 1e-300, -1e-300,
                  np.inf, -np.inf]),
        rng.normal(size=(32, 2400)),
        rng.normal(scale=40.0, size=(7, 5, 3)),
        rng.uniform(-800.0, 800.0, size=10_000),
        outputs[:, 1200:],  # the strided half-row view of logits that the mlp passes
    ]
    for z in cases:
        got = _sigmoid(z)
        assert got.shape == z.shape
        assert got.tobytes() == _two_branch_sigmoid(z).tobytes()
    # NaN sign bits may differ from the reference's, so NaN is compared by position
    z = np.array([np.nan, 0.5, -np.nan, -3.0, 0.0])
    got, ref = _sigmoid(z), _two_branch_sigmoid(z)
    assert np.array_equal(np.isnan(got), np.isnan(z))
    assert got[~np.isnan(z)].tobytes() == ref[~np.isnan(z)].tobytes()


def test_moving_average_constant_and_length():
    x = np.full((2, 10, 3), 1.7)
    out = moving_average(x, 5)
    assert out.shape == x.shape
    assert np.abs(out - 1.7).max() < 1e-12
    # a kernel of 1 returns the history itself: the mean over one entry is exact
    rng = np.random.default_rng(5)
    for history in (rng.normal(size=(10, 3)), rng.normal(size=(2, 10, 3))):
        assert np.array_equal(moving_average(history, 1), history)


def test_moving_average_repeat_padding():
    x = np.arange(5.0).reshape(1, 5, 1)
    out = moving_average(x, 3)
    # first row averages [0, 0, 1] thanks to edge padding
    assert out[0, 0, 0] == pytest.approx(1.0 / 3.0)
    assert out[0, -1, 0] == pytest.approx((3.0 + 4.0 + 4.0) / 3.0)


# ---------------------------------------------------------------- backward


def test_zero_weights_zero_gradient():
    rng = np.random.default_rng(7)
    batch = _windows(_sample(rng) for _ in range(3))
    draw = _full_domain_draw([0.0] * len(batch))
    params = init("mlp", DIMS, 2, hidden=5)
    loss, grad = backward(params, batch.history, batch.target, draw, 0.0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_exact_fit_has_zero_subgradient():
    # pred == target everywhere: the MAE subgradient at zero residual is 0
    params = init("mlp", DIMS, 2, hidden=5)
    params.theta[:] = 0.0
    rng = np.random.default_rng(8)
    batch = _windows([(rng.uniform(0, 1, (6, 2)), np.zeros((3, 2)))])
    loss, grad = backward(params, batch.history, batch.target, _full_domain_draw([1.0]), 0.0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_output_bias_gradient_matches_sign_rule():
    # single sample, prediction above target: d loss / d bias entry is
    # weight * sign(residual) / (tau * n)
    params = init("mlp", DIMS, 2, hidden=5)
    params.theta[:] = 0.0
    d_out = 2 * 3 * 2
    b2 = params.theta[-d_out:]
    b2[: 3 * 2] = 0.9  # regression bias above every target
    rng = np.random.default_rng(9)
    batch = _windows([(rng.uniform(0, 1, (6, 2)), np.full((3, 2), 0.2))])
    loss, grad = backward(params, batch.history, batch.target, _full_domain_draw([0.5]), 0.0)
    assert loss == pytest.approx(0.5 * 0.7)
    expected = 0.5 * 1.0 / 6.0
    assert np.allclose(grad[-d_out : -d_out + 6], expected)


def test_backward_raises_on_nonfinite_sample():
    params = init("mlp", DIMS, 2, hidden=5)
    rng = np.random.default_rng(10)
    bad = (rng.uniform(0, 1, (6, 2)), np.full((3, 2), np.nan))
    good = _sample(rng)
    batch = _windows([good, bad])
    with pytest.raises(NumericError) as err:
        backward(params, batch.history, batch.target, _full_domain_draw([1.0, 1.0]), 0.0)
    assert "sample 1" in str(err.value)


def test_backward_rejects_empty_batch():
    params = init("mlp", DIMS, 2, hidden=5)
    with pytest.raises(DataError) as err:
        backward(params, np.empty((0, 6, 2)), np.empty((0, 3, 2)), _full_domain_draw([]), 0.0)
    assert str(err.value) == "batch must be non-empty"


@pytest.mark.parametrize("kind", ["mlp", "linear"])
def test_unpack_views_tile_parameter_vector(kind):
    # contiguous, disjoint and covering: backward relies on this when it
    # leaves its gradient uninitialised and writes every view
    params = init(kind, DIMS, 0, hidden=5, kernel=3)
    theta = params.theta
    base = theta.__array_interface__["data"][0]
    spans = []
    for view in _unpack(params.arch, theta).values():
        assert view.flags.c_contiguous and np.shares_memory(view, theta)
        start = (view.__array_interface__["data"][0] - base) // theta.itemsize
        spans.append((start, start + view.size))
    spans.sort()
    assert spans[0][0] == 0 and spans[-1][1] == theta.size
    assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("kind", ["mlp", "linear"])
def test_backward_writes_every_gradient_entry(kind, monkeypatch):
    # the gradient buffer is allocated uninitialised; fill it with NaN to
    # show that no entry keeps what the allocation left in it
    rng = np.random.default_rng(11)
    batch = _windows(_sample(rng) for _ in range(4))
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5
    )
    draw = draw_batch(policy, batch.target, rng)
    params = init(kind, DIMS, 12, hidden=5, kernel=3, use_covariate=True)
    _, expected = backward(params, batch.history, batch.target, draw, 0.5)
    nan_filled = lambda a, *args, **kw: np.full_like(a, np.nan, *args, **kw)
    monkeypatch.setattr(np, "empty_like", nan_filled)
    _, grad = backward(params, batch.history, batch.target, draw, 0.5)
    assert np.all(np.isfinite(grad))
    assert grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("dims, hidden, B", [(DIMS, 5, 4), ((24, 4, 10), 16, 32)])
@pytest.mark.parametrize("labels, phi", [(True, 0.5), (True, 0.0), (False, 0.5)],
                         ids=["labels", "labels_phi0", "no_labels"])
def test_backward_equals_assembled_gradient_bitwise(kind, dims, hidden, B, labels, phi):
    # the output gradient and the weight-gradient products written in place
    # give the bytes of the gradient assembled from temporaries and copies
    w, tau, n = dims
    rng = np.random.default_rng(21)
    H = rng.uniform(0, 1, (B, w, n))
    Y = np.clip(rng.uniform(0, 1, (B, 1, 1)) + rng.normal(0, 0.05, (B, tau, n)), 0, 1)
    policy = PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5)
    draw = draw_batch(policy, Y, rng)
    if not labels:
        draw = draw._replace(labels=None)
    params = init(kind, dims, 22, hidden=hidden, kernel=3, use_covariate=True)
    loss, grad = backward(params, H, Y, draw, phi)
    ref_loss, ref_grad = assembled_backward(params, H, Y, draw, phi)
    assert np.any(draw.weight > 0.0)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "linear"])
def test_gradient_check_representative(kind):
    rng = np.random.default_rng(11)
    batch = _windows(_sample(rng, level=rng.uniform(0.1, 0.9)) for _ in range(4))
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5
    )
    H, Y = batch.history, batch.target
    draw = draw_batch(policy, Y, rng)
    params = init(kind, DIMS, 12, hidden=5, kernel=3, use_covariate=True)
    loss, grad = backward(params, H, Y, draw, 0.5)
    assert loss > 0
    f = lambda th: backward(ModelParams(params.arch, th), H, Y, draw, 0.5)[0]
    report = check_gradient(f, params.theta, grad, step=1e-5, tol=1e-5)
    assert report.passed


def _view_spans(views: dict, theta: np.ndarray) -> list:
    """Each view's name, shape and offset (in entries) into ``theta``."""
    base = theta.__array_interface__["data"][0]
    return [(name, v.shape, (v.__array_interface__["data"][0] - base) // theta.itemsize)
            for name, v in views.items()]


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("dims,hidden,kernel", [
    ((48, 24, 1), 64, 25), ((96, 24, 50), 64, 25), ((5, 3, 2), 64, 25), ((1, 1, 1), 64, 25),
    ((5, 3, 2), 7, 3), ((12, 6, 3), 1, 1), ((1, 1, 1), 130, 49),
])
@pytest.mark.parametrize("use_covariate", [True, False])
def test_layout_equals_per_kind_reference(kind, dims, hidden, kernel, use_covariate):
    # one table gives every kind's layout: the count, the views and the
    # initial weights equal those of the per-kind code it replaced, bit for bit
    for seed in range(5):
        params = init(kind, dims, seed, hidden=hidden, kernel=kernel,
                      use_covariate=use_covariate)
        ref = per_kind_init(kind, dims, seed, hidden=hidden, kernel=kernel,
                            use_covariate=use_covariate)
        assert params.theta.tobytes() == ref.tobytes()
    arch = params.arch
    assert arch.param_count() == per_kind_param_count(arch) == params.theta.size
    views = _unpack(arch, params.theta)
    assert _view_spans(views, params.theta) == _view_spans(
        per_kind_unpack(arch, params.theta), params.theta)
    assert {name: v.shape for name, v in views.items()} == _layout(arch)


@pytest.mark.parametrize("fields,message", [
    ({"kind": "rnn"}, "unknown model kind 'rnn', expected one of ('mlp', 'linear')"),
    ({"w": 0}, "dims must be positive, got w=0, tau=3, n=2"),
    ({"tau": -1}, "dims must be positive, got w=6, tau=-1, n=2"),
    ({"n": 0}, "dims must be positive, got w=6, tau=3, n=0"),
    ({"hidden": 0}, "hidden width must be >= 1, got 0"),
    ({"kind": "linear", "kernel": 0}, "moving-average kernel must be >= 1, got 0"),
])
def test_model_arch_rejects_bad_fields(fields, message):
    with pytest.raises(ConfigError) as err:
        ModelArch(**{"kind": "mlp", "w": 6, "tau": 3, "n": 2, **fields})
    assert str(err.value) == message


def test_forward_batch_rejects_interval_count_mismatch():
    params = init("mlp", DIMS, 0, hidden=5)
    with pytest.raises(DimensionError) as err:
        forward_batch(params, np.zeros((3, 6, 2)), [FULL_DOMAIN] * 2)
    assert str(err.value) == "2 intervals for a batch of 3 histories"


@pytest.mark.parametrize("histories,targets,rows,message", [
    ((3, 6, 2), (4, 3, 2), 4, "3 histories, 4 intervals and 4 loss weights for 4 targets"),
    ((4, 6, 2), (4, 3, 2), 3, "4 histories, 3 intervals and 3 loss weights for 4 targets"),
    ((4, 6, 2), (4, 2, 2), 4, "target shape (2, 2) does not match (tau, n) = (3, 2)"),
])
def test_backward_rejects_mismatched_batch(histories, targets, rows, message):
    params = init("linear", DIMS, 0, kernel=3)
    draw = BatchDraw(np.tile([0.0, 1.0], (rows, 1)), np.ones(rows), None)
    with pytest.raises(DimensionError) as err:
        backward(params, np.zeros(histories), np.zeros(targets), draw, 0.0)
    assert str(err.value) == message


def test_param_count_mismatch_rejected():
    arch_params = init("mlp", DIMS, 0, hidden=5)
    with pytest.raises(DimensionError):
        ModelParams(arch_params.arch, np.zeros(3))
