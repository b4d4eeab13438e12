import base64
import json
import math
import tracemalloc

import numpy as np
import pytest

from intervalcast import (
    DecaySpec,
    DiscretePartition,
    FULL_DOMAIN,
    Interval,
    PolicyConfig,
    SplitSpec,
    WindowConfig,
    Windows,
    chrono_split,
    cosine_lr,
    generate_synthds,
    draw_batch,
    load_checkpoint,
    make_windows,
    save_checkpoint,
    train,
)
from intervalcast.errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
    TrainingError,
)
from intervalcast.intervals import INDICATOR, entries_inside, target_weights
from intervalcast.models import BatchDraw, backward, init, sample_losses
from concat_forward import concat_forward
import intervalcast.training as training
from intervalcast.training import AdamwState, adamw_update
from per_batch_train import per_batch_train
from per_sample_draw import per_sample_draw


def _synth_splits(w=12, tau=6, seed=0, noise=0.0):
    series = generate_synthds(seed, noise)
    samples = make_windows(series, WindowConfig(w, tau))
    return chrono_split(samples, SplitSpec(0.66, 0.17, 0.17))


def _windows(pairs):
    """Windows of (history, target) pairs, at origins 0, 1, ..."""
    histories, targets = zip(*pairs)
    return Windows(np.stack(histories), np.stack(targets), np.arange(len(targets)))


# ---------------------------------------------------------------- losses


def masked_mae(pred, target, weight):
    """One sample's regression loss from the shared loss kernel."""
    draw = BatchDraw(np.array([[0.0, 1.0]]), np.array([weight]), None)
    return float(sample_losses(pred[None], None, target[None], draw, 0.0)[0])


def weighted_bce(prob, label, weight):
    """One sample's classification loss (phi = 1, exact regression) from the kernel."""
    draw = BatchDraw(np.array([[0.0, 1.0]]), np.array([weight]), label[None])
    return float(sample_losses(label[None], prob[None], label[None], draw, 1.0)[0])


def test_masked_mae_values():
    pred = np.array([[0.3], [0.1]])
    target = np.array([[0.2], [0.4]])
    assert masked_mae(pred, target, 0.0) == 0.0
    assert masked_mae(target, target, 1.0) == 0.0
    assert masked_mae(pred, target, 0.5) == pytest.approx(0.5 * 0.2)


def test_weighted_bce_values():
    half = np.full((2, 2), 0.5)
    labels = np.ones((2, 2))
    assert weighted_bce(half, labels, 1.0) == pytest.approx(math.log(2))
    assert weighted_bce(half, labels, 0.25) == pytest.approx(0.25 * math.log(2))
    assert weighted_bce(np.full((1, 1), 1.0 - 1e-15), np.ones((1, 1)), 1.0) < 1e-9
    assert weighted_bce(np.full((1, 1), 0.25), np.ones((1, 1)), 1.0) == pytest.approx(
        1.3863, abs=1e-4
    )


def test_sample_losses_equal_mean_form_bitwise():
    # the per-sample means are np.add.reduce over (tau, n) divided by
    # tau * n, which is what ndarray.mean computes
    rng = np.random.default_rng(18)
    reg, prob, Y = rng.uniform(0, 1, (3, 40, 7, 5))
    labels = (rng.uniform(0, 1, Y.shape) < 0.5).astype(float)
    draw = BatchDraw(np.tile([0.0, 1.0], (40, 1)), rng.uniform(0, 1, 40), labels)
    p = np.clip(prob, 1e-12, 1.0 - 1e-12)
    bce = -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    mae = draw.weight * np.abs(reg - Y).mean(axis=(1, 2))
    expected = mae + 0.5 * (draw.weight * bce.mean(axis=(1, 2)))
    assert sample_losses(reg, prob, Y, draw, 0.5).tobytes() == expected.tobytes()
    assert sample_losses(reg, prob, Y, draw, 0.0).tobytes() == mae.tobytes()


# ---------------------------------------------------------------- policy config


def test_policy_requires_kind_fields():
    with pytest.raises(ConfigError):
        PolicyConfig("e2e")  # missing task interval
    with pytest.raises(ConfigError):
        PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(1.0))
    with pytest.raises(ConfigError):
        PolicyConfig("b", delta=0.2)  # extraneous field
    with pytest.raises(ConfigError):
        PolicyConfig("unknown")


@pytest.mark.parametrize("weight_decay", [-0.1, math.nan, math.inf])
def test_policy_rejects_bad_weight_decay(weight_decay):
    with pytest.raises(ConfigError) as err:
        PolicyConfig("b", weight_decay=weight_decay)
    assert f"weight_decay must be finite and >= 0, got {weight_decay}" in str(err.value)


def test_policy_phi_range():
    with pytest.raises(ConfigError):
        PolicyConfig(
            "dstar", partition=DiscretePartition(4), nu=DecaySpec(1.0), phi=1.5
        )


def test_policy_labels():
    assert PolicyConfig("b").label() == "B"
    assert PolicyConfig("d", partition=DiscretePartition(8)).label() == "D8"
    assert (
        PolicyConfig("c", delta=0.2).label() == "C0.2"
    )


# ---------------------------------------------------------------- batch losses


def test_batch_losses_baseline_all_ones():
    rng = np.random.default_rng(0)
    batch = _windows(
        (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (2, 1))) for i in range(5)
    )
    draw = draw_batch(PolicyConfig("b"), batch.target, rng)
    assert np.all(draw.weight == 1.0)
    assert np.all(draw.bounds == [FULL_DOMAIN.lo, FULL_DOMAIN.hi])
    assert draw.labels is None


def test_batch_losses_e2e_matches_hypothesis_membership():
    # segment-aligned windows of the noise-free trace: weight 1 exactly when
    # the block's hypothesis is the top one
    series = generate_synthds(15, 0.0)
    samples = make_windows(series, WindowConfig(48, 24))
    aligned = samples[samples.t_origin % 48 == 24]
    policy = PolicyConfig("e2e", task_interval=Interval(0.75, 1.0))
    rng = np.random.default_rng(1)
    draw = draw_batch(policy, aligned.target, rng)
    for sample, weight in zip(aligned, draw.weight):
        is_top = sample.target.min() >= 0.75
        assert weight == (1.0 if is_top else 0.0)


def test_batch_losses_e2e_weight_shares_indicator_path():
    rng = np.random.default_rng(2)
    batch = _windows([(rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (2, 1)))])
    policy = PolicyConfig("e2e", task_interval=Interval(0.2, 0.8))
    Y = batch.target
    draw = draw_batch(policy, Y, rng)
    iv = policy.task_interval
    assert draw.weight[0] == target_weights(Y, iv.lo, iv.hi, INDICATOR)[0]


def test_batch_losses_dstar_inf_equals_d_weights():
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    batch = _windows(
        (np.random.default_rng(i).uniform(0, 1, (4, 1)), np.full((2, 1), 0.1 + 0.2 * i))
        for i in range(4)
    )
    partition = DiscretePartition(4)
    Y = batch.target
    d_draw = draw_batch(PolicyConfig("d", partition=partition), Y, rng_a)
    ds_draw = draw_batch(
        PolicyConfig("dstar", partition=partition, nu=DecaySpec(math.inf), phi=0.5),
        Y,
        rng_b,
    )
    assert np.array_equal(d_draw.bounds, ds_draw.bounds)
    assert np.array_equal(d_draw.weight, ds_draw.weight)
    assert ds_draw.labels is not None and d_draw.labels is None


def test_batch_losses_dstar_labels_are_entry_indicators():
    rng = np.random.default_rng(4)
    batch = _windows([(rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (3, 1)))])
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(2), nu=DecaySpec(5.0), phi=0.5
    )
    draw = draw_batch(policy, batch.target, rng)
    t = batch[0].target
    lo, hi = draw.bounds[0]
    expected = ((t >= lo) & (t <= hi)).astype(float)
    assert np.array_equal(draw.labels[0], expected)


def _reference_targets():
    # real windows: noisy synthetic targets with w=48, tau=24, plus a
    # two-channel uniform batch so labels and products span channels
    series = generate_synthds(0, 0.05)
    windows = make_windows(series, WindowConfig(48, 24))
    synth = windows.target[:200]
    wide = np.random.default_rng(21).uniform(0, 1, (64, 5, 2))
    return synth, wide


@pytest.mark.parametrize(
    "policy",
    [
        PolicyConfig("b"),
        PolicyConfig("e2e", task_interval=Interval(0.75, 1.0)),
        PolicyConfig("c", delta=0.2),
        PolicyConfig("c", delta=0.0),
        PolicyConfig("d", partition=DiscretePartition(4)),
        PolicyConfig("d", partition=DiscretePartition(1)),
        PolicyConfig("dstar", partition=DiscretePartition(8), nu=DecaySpec(37.0), phi=0.5),
        PolicyConfig("dstar", partition=DiscretePartition(8), nu=DecaySpec(0.0), phi=0.5),
        PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(math.inf), phi=0.5),
    ],
    ids=lambda p: p.label() + ("" if p.nu is None else f"-nu{p.nu.nu:g}"),
)
def test_draw_batch_matches_per_sample_reference(policy):
    # the batched draw equals the one-sample-at-a-time reference bit for bit,
    # batch after batch from one stream, and leaves the stream in the same place
    rng_batched = np.random.default_rng(99)
    rng_scalar = np.random.default_rng(99)
    for targets in _reference_targets():
        for start in range(0, len(targets), 32):
            Y = targets[start : start + 32]
            draw = draw_batch(policy, Y, rng_batched)
            bounds, weights, labels = per_sample_draw(policy, Y, rng_scalar)
            assert np.array_equal(draw.bounds, bounds)
            assert np.array_equal(draw.weight, weights)
            assert draw.weight.tobytes() == weights.tobytes()
            if labels is None:
                assert draw.labels is None
            else:
                assert draw.labels.tobytes() == labels.tobytes()
            assert rng_batched.bit_generator.state == rng_scalar.bit_generator.state


def test_draw_batch_rejects_empty_batch():
    rng = np.random.default_rng(0)
    with pytest.raises(DataError) as err:
        draw_batch(PolicyConfig("b"), np.empty((0, 2, 1)), rng)
    assert str(err.value) == "batch must be non-empty"


# ---------------------------------------------------------------- optimizer


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 50) == pytest.approx(1e-3)
    assert cosine_lr(50, 50) == pytest.approx(1e-5)
    lrs = [cosine_lr(t, 50) for t in range(51)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_adamw_decoupled_decay_moves_toward_zero():
    state = AdamwState.zeros(2)
    theta = np.array([1.0, -1.0])
    adamw_update(state, theta, np.zeros(2), lr=0.1, weight_decay=0.5)
    assert np.allclose(theta, [0.95, -0.95])


def test_adamw_update_matches_reference_formula_bitwise():
    # the in-place, blocked update reproduces the textbook expression
    # exactly (decoupled decay, Loshchilov & Hutter) over several steps,
    # for sizes below, at and around the block size. With weight_decay 0
    # the update skips the decay term; theta then also holds +0.0, -0.0 and
    # negative entries, half of the zeros with a zero gradient throughout,
    # whose bits the skipped 0 * theta term must not change either
    block = training._ADAMW_BLOCK
    sizes = (1000, 1, block - 1, block, block + 1, 3 * block + 7)
    for size, decay in [(s, True) for s in sizes] + [(s, False) for s in (1000, 3, block + 1)]:
        rng = np.random.default_rng(13)
        theta = rng.normal(size=size)
        still = np.zeros(size, dtype=bool)
        if not decay:
            theta[0::4], theta[1::4] = 0.0, -0.0
            theta[2::4] = -np.abs(theta[2::4])
            still[0::8] = still[1::8] = True
        ref_theta, ref_m, ref_v = theta.copy(), np.zeros(size), np.zeros(size)
        state = AdamwState.zeros(size)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for step in range(1, 8):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=size)
            grad[still] = 0.0
            lr, wd = 1e-3 / step, (0.01 * step if decay else 0.0)
            adamw_update(state, theta, grad, lr, wd)
            ref_m = b1 * ref_m + (1.0 - b1) * grad
            ref_v = b2 * ref_v + (1.0 - b2) * grad * grad
            m_hat = ref_m / (1.0 - b1 ** step)
            v_hat = ref_v / (1.0 - b2 ** step)
            ref_theta -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref_theta)
            assert state.step == step
            assert theta.tobytes() == ref_theta.tobytes(), (size, decay)
            assert state.m.tobytes() == ref_m.tobytes(), (size, decay)
            assert state.v.tobytes() == ref_v.tobytes(), (size, decay)
        if not decay:
            assert theta[1::8].tobytes() == np.full(len(theta[1::8]), -0.0).tobytes()


@pytest.mark.parametrize("short", ["grad", "m", "v"])
def test_adamw_update_rejects_mismatched_sizes(short):
    state = AdamwState.zeros(10)
    theta, grad = np.ones(10), np.ones(10)
    if short == "grad":
        grad = np.ones(9)
    else:
        setattr(state, short, np.zeros(9))
    with pytest.raises(DimensionError, match="sizes differ"):
        adamw_update(state, theta, grad, 1e-3, 0.0)
    assert state.step == 0 and np.all(theta == 1.0)


def test_adamw_update_allocates_less_than_one_vector():
    # two block-sized buffers, not full-size temporaries
    size = 1_000_000
    state = AdamwState.zeros(size)
    theta, grad = np.ones(size), np.full(size, 0.5)
    tracemalloc.start()
    try:
        adamw_update(state, theta, grad, 1e-3, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < theta.nbytes


def test_loss_scale_property():
    # scaling every sample weight by c scales loss and gradient by c exactly
    rng = np.random.default_rng(5)
    batch = _windows(
        (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (2, 1))) for i in range(3)
    )
    policy = PolicyConfig("b")
    H, Y = batch.history, batch.target
    draw = draw_batch(policy, Y, rng)
    params = init("mlp", (4, 2, 1), 0, hidden=3, use_covariate=False)
    loss1, grad1 = backward(params, H, Y, draw, 0.0)
    scaled = draw._replace(weight=2.5 * draw.weight)
    loss2, grad2 = backward(params, H, Y, scaled, 0.0)
    assert loss2 == pytest.approx(2.5 * loss1, rel=1e-12)
    assert np.allclose(grad2, 2.5 * grad1, rtol=1e-12, atol=0)


def test_singleton_batch_loss_nonincreasing_first_steps():
    # convex weight-1 objective on the linear model: repeated updates on one
    # sample cannot increase its loss at lr <= 1e-3
    rng = np.random.default_rng(6)
    batch = _windows([(rng.uniform(0, 1, (8, 1)), rng.uniform(0.3, 0.7, (4, 1)))])
    policy = PolicyConfig("b")
    H, Y = batch.history, batch.target
    draw = draw_batch(policy, Y, rng)
    params = init("linear", (8, 4, 1), 1, kernel=3, use_covariate=False)
    opt = AdamwState.zeros(params.theta.size)
    losses = []
    for _ in range(10):
        loss, grad = backward(params, H, Y, draw, 0.0)
        losses.append(loss)
        adamw_update(opt, params.theta, grad, 1e-3, 0.0)
    assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------- training loop


def test_train_smoke_and_report_invariant():
    tr, va, _ = _synth_splits()
    policy = PolicyConfig("b")
    params, report, _ = train(policy, "mlp", tr[:300], va[:80], 0, epochs=6, hidden=8)
    assert len(report.epochs) == 6
    best = min(report.epochs, key=lambda r: r.val_loss)
    assert report.best_epoch == best.epoch
    assert report.epochs[0].lr == pytest.approx(1e-3)
    assert report.epochs[0].train_loss > report.epochs[-1].train_loss


def test_train_deterministic():
    tr, va, _ = _synth_splits()
    policy = PolicyConfig("d", partition=DiscretePartition(4))
    out1 = train(policy, "mlp", tr[:200], va[:60], 3, epochs=4, hidden=8)
    out2 = train(policy, "mlp", tr[:200], va[:60], 3, epochs=4, hidden=8)
    assert np.array_equal(out1[0].theta, out2[0].theta)
    assert out1[1].epochs == out2[1].epochs


def test_early_stopping_patience():
    # task interval never covered by validation targets: val loss is 0 from
    # epoch 0, so training stops after exactly `patience` fruitless epochs
    rng = np.random.default_rng(7)
    tr = _windows(
        (rng.uniform(0, 1, (4, 1)), rng.uniform(0.4, 0.6, (2, 1))) for i in range(40)
    )
    va = _windows((rng.uniform(0, 1, (4, 1)), np.full((2, 1), 0.95)) for i in range(10))
    policy = PolicyConfig("e2e", task_interval=Interval(0.4, 0.6))
    params, report, _ = train(policy, "mlp", tr, va, 0, epochs=50, hidden=4)
    assert report.stopped_early
    assert report.best_epoch == 0
    assert len(report.epochs) == 6  # epochs 0..5, stop when 5 - 0 >= patience


def test_train_rejects_empty_split():
    tr, va, _ = _synth_splits()
    with pytest.raises(TrainingError):
        train(PolicyConfig("b"), "mlp", tr[:0], va, 0)


@pytest.mark.parametrize("setting", ["epochs", "batch_size", "patience"])
def test_train_rejects_non_positive_loop_settings(setting):
    # the CLI rejects these as their flags are parsed; library callers get this
    tr, va, _ = _synth_splits()
    with pytest.raises(ConfigError, match=f"^{setting} must be >= 1, got 0$"):
        train(PolicyConfig("b"), "mlp", tr[:40], va[:10], 0, hidden=4, **{setting: 0})


def test_train_error_carries_epoch_and_batch():
    rng = np.random.default_rng(8)
    bad_target = np.full((2, 1), np.nan)
    tr = _windows((rng.uniform(0, 1, (4, 1)), bad_target) for i in range(8))
    va = _windows([(rng.uniform(0, 1, (4, 1)), np.full((2, 1), 0.5))])
    with pytest.raises(TrainingError) as err:
        train(PolicyConfig("b"), "mlp", tr, va, 0, epochs=2, hidden=4)
    assert "epoch 0" in str(err.value)


def test_train_rejects_zero_training_signal():
    # the unclipped noisy trace (as the library example builds it): no
    # 24-step target lies inside one L=4 cell, so every indicator weight is
    # 0 and training would only keep the random initialization
    tr, va, _ = _synth_splits(w=48, tau=24, noise=0.05)
    policy = PolicyConfig("d", partition=DiscretePartition(4))
    with pytest.raises(TrainingError) as err:
        train(policy, "mlp", tr, va, 0, epochs=2, hidden=4)
    assert "D4" in str(err.value) and "epoch 0" in str(err.value)


# ---------------------------------------------------------------- blocks of batches


def _level_windows(rng, count, w=6, tau=3, n=2):
    """Random histories; each target lies near one random level, so many fall inside one cell."""
    return _windows(
        (rng.uniform(0, 1, (w, n)), np.clip(rng.uniform(0, 1) + rng.normal(0, 0.02, (tau, n)), 0, 1))
        for _ in range(count)
    )


def _recording_draws(monkeypatch):
    """The sample count of each draw_batch call that train() makes from now on."""
    sizes = []
    real = training.draw_batch

    def recording(policy, targets, rng):
        sizes.append(len(targets))
        return real(policy, targets, rng)

    monkeypatch.setattr(training, "draw_batch", recording)
    return sizes


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("batch_size,blocks", [
    (32, [32, 18]), (7, [14, 14, 14, 8]), (1, [16, 16, 16, 2]), (64, [50]),
], ids=["batch32", "batch7", "batch1", "batch64"])
@pytest.mark.parametrize("policy", [
    PolicyConfig("b"),
    PolicyConfig("e2e", task_interval=Interval(0.25, 0.75)),
    PolicyConfig("c", delta=0.2),
    PolicyConfig("d", partition=DiscretePartition(3)),
    PolicyConfig("dstar", partition=DiscretePartition(3), nu=DecaySpec(37.0), phi=0.5),
    PolicyConfig("dstar", partition=DiscretePartition(5), nu=INDICATOR, phi=0.5),
], ids=["b", "e2e", "c", "d3", "dstar3_nu37", "dstar5_inf"])
def test_train_blocks_equal_per_batch_reference(policy, batch_size, blocks, kind, monkeypatch):
    # (w + tau) * n = 18 entries per sample: a 300-entry budget holds one
    # batch of 32, two of 7 or 16 of 1, so the 50 training samples of an
    # epoch run in several blocks that end in a short one, and in one block
    # when the batch is larger than the split. The budget also sets
    # validation's row blocks, so the reference runs under it too.
    rng = np.random.default_rng(24)
    tr, va = _level_windows(rng, 50), _level_windows(rng, 20)
    monkeypatch.setattr(training, "_BLOCK_ENTRIES", 300)
    sizes = _recording_draws(monkeypatch)
    settings = dict(epochs=3, batch_size=batch_size, patience=5, hidden=5, kernel=3)
    params, report, steps = train(policy, kind, tr, va, 11, **settings)
    ref_params, ref_report, ref_steps = per_batch_train(policy, kind, tr, va, 11, **settings)
    assert sizes == blocks * 3
    assert params.theta.tobytes() == ref_params.theta.tobytes()
    assert report.epochs == ref_report.epochs
    assert steps == ref_steps == 3 * -(-50 // batch_size)
    assert (report.best_epoch, report.stopped_early) == (ref_report.best_epoch, False)


def test_train_draws_once_per_block_of_batches(monkeypatch):
    # the README flagship shape (w=48, tau=24, n=1, batch 32) holds 2304
    # entries per batch, so a 32k-entry block takes 14 batches and the 63
    # batches of an epoch take 5 draws; each update still sees one batch
    tr, va, _ = _synth_splits(w=48, tau=24, noise=0.05)
    assert -(-len(tr) // 32) == 63
    sizes = _recording_draws(monkeypatch)
    updates = []
    real_backward = training.backward

    def counting(params, histories, *args):
        updates.append(len(histories))
        return real_backward(params, histories, *args)

    monkeypatch.setattr(training, "backward", counting)
    policy = PolicyConfig("dstar", partition=DiscretePartition(8), nu=DecaySpec(37.0), phi=0.5)
    train(policy, "mlp", tr, va[:50], 0, epochs=1, hidden=4)
    assert sizes == [448] * 4 + [len(tr) - 4 * 448]
    assert len(updates) == 63 and set(updates[:-1]) == {32}


def test_train_draws_once_per_batch_when_one_batch_exceeds_the_block(monkeypatch):
    # a wide-shaped split (w=96, tau=24, n=50) holds 192000 entries per
    # batch of 32, more than a block, so each block is one batch
    rng = np.random.default_rng(26)
    tr = Windows(rng.uniform(0, 1, (70, 96, 50)), rng.uniform(0, 1, (70, 24, 50)), np.arange(70))
    va = tr[:5]
    sizes = _recording_draws(monkeypatch)
    train(PolicyConfig("b"), "mlp", tr, va, 0, epochs=1, hidden=2)
    assert sizes == [32, 32, 6]


def test_train_names_global_batch_of_non_finite_loss_in_a_later_block(monkeypatch):
    # the first epoch's permutation is the loop RNG's first draw, so the
    # non-finite target can be placed at row 30 of it: batch 4 of size 7,
    # in the third block of 14; the blocked loop and the per-batch
    # reference name the same epoch, batch and sample
    rng = np.random.default_rng(27)
    tr, va = _level_windows(rng, 50), _level_windows(rng, 20)
    seed = 5
    order = np.random.default_rng(seed + training._LOOP_SEED_OFFSET).permutation(50)
    tr.target[order[30], 1, 0] = np.nan
    monkeypatch.setattr(training, "_BLOCK_ENTRIES", 300)
    messages = []
    for run in (train, per_batch_train):
        with pytest.raises(TrainingError) as err:
            run(PolicyConfig("b"), "mlp", tr, va, seed, epochs=2, batch_size=7, patience=5,
                hidden=3)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "epoch 0, batch 4: non-finite loss at batch sample 2"


def test_train_allocates_less_than_one_epoch_gather():
    # a long split with w much larger than tau: one epoch's blocks of
    # batches stay far below the split's stacked histories, which a gather
    # of the whole permuted epoch at once would allocate
    N, w, tau, n = 8000, 64, 2, 1
    rng = np.random.default_rng(28)
    tr = Windows(rng.uniform(0, 1, (N, w, n)), rng.uniform(0, 1, (N, tau, n)), np.arange(N))
    policy = PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(37.0), phi=0.5)
    tracemalloc.start()
    try:
        train(policy, "mlp", tr, tr[:50], 0, epochs=1, hidden=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tr.history.nbytes


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    tr, va, _ = _synth_splits()
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(4), nu=DecaySpec(math.inf), phi=0.25,
        weight_decay=0.01,
    )
    params, _, steps = train(policy, "linear", tr[:150], va[:50], 5, epochs=3, kernel=5)
    assert steps > 0
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, steps, policy)
    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    assert list(doc) == ["version", "arch", "theta", "optimizer", "policy"]
    assert base64.b64decode(doc["theta"]) == params.theta.astype("<f8").tobytes()
    assert doc["optimizer"] == {"step": steps}  # no AdamW moments
    loaded_params, loaded_steps, loaded_policy = load_checkpoint(path)
    assert np.array_equal(loaded_params.theta, params.theta)
    assert loaded_params.arch == params.arch
    assert loaded_steps == steps
    assert loaded_policy == policy

    save_checkpoint(tmp_path / "ck2.json", loaded_params, loaded_steps, loaded_policy)
    assert (tmp_path / "ck.json").read_bytes() == (tmp_path / "ck2.json").read_bytes()


def test_checkpoint_unknown_version_names_file(tmp_path):
    params = init("mlp", (4, 2, 1), 0, hidden=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, 0, PolicyConfig("b"))
    doc = json.loads(path.read_text())
    arch = {"kind": "mlp", "w": 4, "tau": 2, "n": 1, "hidden": 3, "kernel": 25,
            "use_covariate": True}
    theta = params.theta.tolist()
    # versions 1 and 2 held the weights as a list of floats, and version 1
    # the AdamW moments too; both used to load
    v1 = {
        "version": 1,
        "arch": arch,
        "theta": theta,
        "optimizer": {"step": 7, "m": [0.5] * len(theta), "v": [0.25] * len(theta)},
        "policy": {"kind": "dstar", "task_interval": None, "delta": None, "L": 2,
                   "nu": "inf", "phi": 0.5, "weight_decay": 0.01},
    }
    v2 = {
        "version": 2,
        "arch": arch,
        "theta": theta,
        "optimizer": {"step": 7},
        "policy": {"kind": "b", "task_interval": None, "delta": None, "L": None,
                   "nu": None, "phi": None, "weight_decay": 0.0},
    }
    # true and the floats compare equal to the version, and used to load
    docs = [v1, v2] + [{**doc, "version": version} for version in (4, True, 1.0, 2.0, 3.0)]
    for written in docs:
        path.write_text(json.dumps(written))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"unsupported checkpoint version {written['version']!r} in {path}"
        )


@pytest.mark.parametrize("key", [
    "version", "arch", "theta", "optimizer", "optimizer.step", "policy",
    "arch.kind", "arch.w", "arch.tau", "arch.n", "arch.hidden", "arch.kernel",
    "arch.use_covariate", "policy.kind", "policy.task_interval", "policy.delta", "policy.L",
    "policy.nu", "policy.phi", "policy.weight_decay",
])
def test_checkpoint_missing_key_names_file(tmp_path, key):
    # every key that save_checkpoint writes is required: a missing version
    # used to read as an unsupported one, and a missing policy key used to
    # default to None (weight_decay to 0.0) and load or fail naming no file
    params = init("mlp", (4, 2, 1), 0, hidden=3)
    policy = PolicyConfig("dstar", partition=DiscretePartition(2), nu=DecaySpec(37.0),
                          phi=0.5, weight_decay=0.01)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, 7, policy)
    doc = json.loads(path.read_text())
    *parents, name = key.split(".")
    owner = doc
    for parent in parents:
        owner = owner[parent]
    del owner[name]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: malformed checkpoint: KeyError: '{name}'"


DSTAR = PolicyConfig("dstar", partition=DiscretePartition(2), nu=DecaySpec(37.0), phi=0.5)


@pytest.mark.parametrize("policy,key,value,message", [
    (DSTAR, "policy.kind", "zzz",
     "unknown policy kind 'zzz', expected one of ('b', 'e2e', 'c', 'd', 'dstar')"),
    (DSTAR, "policy.weight_decay", -1, "weight_decay must be finite and >= 0, got -1"),
    (DSTAR, "policy.phi", 2.0, "phi must be in [0, 1], got 2.0"),
    (DSTAR, "policy.L", None, "policy 'dstar' requires partition"),
    (PolicyConfig("e2e", task_interval=Interval(0.2, 0.7)), "policy.task_interval", [0.7, 0.2],
     "invalid interval [0.7, 0.2]: need 0 <= lo <= hi <= 1"),
    (DSTAR, "arch.hidden", 0, "hidden width must be >= 1, got 0"),
    (DSTAR, "arch.kind", "rnn", "unknown model kind 'rnn', expected one of ('mlp', 'linear')"),
    (DSTAR, "arch.w", 0, "dims must be positive, got w=0, tau=2, n=1"),
], ids=["policy_kind", "weight_decay", "phi", "dstar_without_L", "e2e_interval",
        "arch_hidden", "arch_kind", "arch_w"])
def test_checkpoint_with_rejected_value_names_file_once(tmp_path, policy, key, value, message):
    # a value that ModelArch or PolicyConfig rejects used to raise their
    # ConfigError naming no file, so eval could not say which file was bad
    path = tmp_path / "ck.json"
    save_checkpoint(path, init("mlp", (4, 2, 1), 0, hidden=3), 7, policy)
    doc = json.loads(path.read_text())
    section, name = key.split(".")
    doc[section][name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"
    assert str(err.value).count(str(path)) == 1


def _v3_theta(values: np.ndarray) -> str:
    return base64.b64encode(values.astype("<f8").tobytes()).decode()


@pytest.mark.parametrize("theta,reason", [
    (lambda t: _v3_theta(t[:-1]), "architecture needs 37"),
    (lambda t: _v3_theta(np.append(t, 0.5)), "architecture needs 37"),
    (lambda t: _v3_theta(t)[:-8] + "AAAA", "multiple of element size"),
    (lambda t: t.tolist(), "TypeError"),
    (lambda t: _v3_theta(t)[:-1] + "!", "ValueError: theta is not valid base64"),
], ids=["v3_short", "v3_long", "v3_partial_weight", "v3_not_a_string", "v3_invalid_base64"])
def test_checkpoint_with_bad_weights_names_file(tmp_path, theta, reason):
    # a weight count that differs from the architecture's used to raise a
    # bare DimensionError that named no file
    params = init("mlp", (4, 2, 1), 3, hidden=3)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, 7, PolicyConfig("b"))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "theta": theta(params.theta)}))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: malformed checkpoint")
    assert reason in str(err.value)


def test_checkpoint_preserves_infinite_nu(tmp_path):
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(2), nu=DecaySpec(math.inf), phi=0.5
    )
    params = init("mlp", (4, 2, 1), 0, hidden=3)
    save_checkpoint(tmp_path / "ck.json", params, 0, policy)
    _, _, loaded = load_checkpoint(tmp_path / "ck.json")
    assert math.isinf(loaded.nu.nu)


# ---------------------------------------------------------------- validation protocol


def test_validation_probe_partition_for_continuous_policy():
    # the continuous policy has no finite interval set, so validation uses a
    # fixed 4-cell probe partition; its loss must equal the hand-computed
    # mean over those cells
    from intervalcast.models import forward_batch
    from intervalcast.training import validation_loss

    rng = np.random.default_rng(11)
    val = _windows(
        (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (2, 1))) for i in range(12)
    )
    policy = PolicyConfig("c", delta=0.2)
    params = init("mlp", (4, 2, 1), 0, hidden=3, use_covariate=True)
    got = validation_loss(params, policy, val)

    H, Y = val.history, val.target
    cells = DiscretePartition(4).intervals
    cell_losses = []
    for cell in cells:
        reg, _ = forward_batch(params, H, [cell] * len(val))
        weights = target_weights(Y, cell.lo, cell.hi, INDICATOR)
        cell_losses.append((weights * np.abs(reg - Y).mean(axis=(1, 2))).mean())
    assert got == pytest.approx(float(np.mean(cell_losses)), rel=1e-12)


def test_validation_baseline_is_unmasked_mae():
    from intervalcast.models import forward_batch
    from intervalcast.training import validation_loss

    rng = np.random.default_rng(12)
    val = _windows(
        (rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (2, 1))) for i in range(8)
    )
    params = init("mlp", (4, 2, 1), 0, hidden=3, use_covariate=False)
    got = validation_loss(params, PolicyConfig("b"), val)
    H, Y = val.history, val.target
    reg, _ = forward_batch(params, H, [FULL_DOMAIN] * len(val))
    assert got == pytest.approx(float(np.abs(reg - Y).mean(axis=(1, 2)).mean()), rel=1e-12)


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("policy", [
    PolicyConfig("b"),
    PolicyConfig("e2e", task_interval=Interval(0.25, 0.75)),
    PolicyConfig("c", delta=0.2),
    PolicyConfig("d", partition=DiscretePartition(4)),
    PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5),
], ids=lambda p: p.kind)
def test_validation_loss_matches_concatenated_input_reference(kind, policy):
    # one cell at a time through the concatenated-input forward, with the
    # weights and labels the policy draws for a sample conditioned on it
    from intervalcast.training import _validation_intervals, validation_loss

    rng = np.random.default_rng(13)
    val = _windows(
        (rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (2, 2))) for i in range(30)
    )
    params = init(kind, (4, 2, 2), 2, hidden=3, kernel=3, use_covariate=policy.uses_covariate)
    H, Y = val.history, val.target
    cell_losses = []
    for cell in _validation_intervals(policy):
        bounds = np.tile([cell.lo, cell.hi], (len(val), 1))
        reg, prob = concat_forward(params, H, bounds)
        if policy.kind == "b":
            weight, labels = np.ones(len(val)), None
        elif policy.kind == "dstar":
            weight = target_weights(Y, cell.lo, cell.hi, policy.nu)
            labels = entries_inside(Y, cell.lo, cell.hi).astype(float)
        else:
            weight, labels = target_weights(Y, cell.lo, cell.hi, INDICATOR), None
        draw = BatchDraw(bounds, weight, labels)
        cell_losses.append(sample_losses(reg, prob, Y, draw, policy.effective_phi).mean())
    got = validation_loss(params, policy, val)
    assert got == pytest.approx(float(np.mean(cell_losses)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["mlp", "linear"])
@pytest.mark.parametrize("policy", [
    PolicyConfig("b"),
    PolicyConfig("e2e", task_interval=Interval(0.25, 0.75)),
    PolicyConfig("c", delta=0.2),
    PolicyConfig("d", partition=DiscretePartition(4)),
    PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5),
], ids=lambda p: p.kind)
def test_validation_loss_row_blocks_match_one_block(kind, policy, monkeypatch):
    # 30 samples of 4 target entries: one block by default; a 32-entry
    # budget gives 8 rows per block, which 30 is not a multiple of, so the
    # samples run in near-equal blocks of 7, 8, 7 and 8 rows
    rng = np.random.default_rng(14)
    val = _windows(
        (rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (2, 2))) for i in range(30)
    )
    params = init(kind, (4, 2, 2), 3, hidden=3, kernel=3, use_covariate=policy.uses_covariate)
    one_block = training.validation_loss(params, policy, val)
    blocks = []
    real = training.project_histories

    def recording(params, histories):
        blocks.append(len(histories))
        return real(params, histories)

    monkeypatch.setattr(training, "project_histories", recording)
    monkeypatch.setattr(training, "_BLOCK_ENTRIES", 32)
    got = training.validation_loss(params, policy, val)
    assert blocks == [7, 8, 7, 8]
    assert got == pytest.approx(one_block, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("policy", [
    PolicyConfig("b"),
    PolicyConfig("e2e", task_interval=Interval(0.25, 0.75)),
    PolicyConfig("c", delta=0.2),
    PolicyConfig("d", partition=DiscretePartition(4)),
    PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5),
    PolicyConfig("dstar", partition=DiscretePartition(4), nu=INDICATOR, phi=0.5),
], ids=["b", "e2e", "c", "d", "dstar", "dstar_inf"])
def test_validation_weights_row_blocks_match_one_block(policy, monkeypatch):
    # the weights fill their rows in validation's near-equal row blocks of
    # 7, 8, 7 and 8 samples, bitwise equal to one block and to the whole
    # split at once, since a sample's weight reads only its own targets;
    # each sample's targets lie near one level, so many fall inside one cell
    rng = np.random.default_rng(16)
    val = _windows(
        (rng.uniform(0, 1, (4, 2)), np.clip(rng.uniform(0, 1) + rng.normal(0, 0.02, (2, 2)), 0, 1))
        for i in range(30)
    )
    one_block = training._validation_weights(policy, val)
    whole = [training._loss_weights(policy, val.target, iv.lo, iv.hi)
             for iv in training._validation_intervals(policy)]
    monkeypatch.setattr(training, "_BLOCK_ENTRIES", 32)
    assert training._validation_blocks(val) == [0, 7, 15, 22, 30]
    got = training._validation_weights(policy, val)
    assert got.shape == (len(whole), 30)
    assert got.tobytes() == one_block.tobytes() == np.stack(whole).tobytes()
    assert np.any(got > 0.0) and (policy.kind == "b" or np.any(got < 1.0))


def test_validation_weights_allocate_less_than_one_split_array():
    # a long split with a finite decay rate: the blocked weights' temporaries
    # stay far below one float64 array the size of the validation targets
    N, tau, n = 20000, 6, 4
    Y = np.random.default_rng(17).uniform(0, 1, (N, tau, n))
    val = Windows(np.zeros((N, 1, n)), Y, np.arange(N))
    policy = PolicyConfig("dstar", partition=DiscretePartition(4), nu=DecaySpec(37.0), phi=0.5)
    tracemalloc.start()
    try:
        training._validation_weights(policy, val)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < Y.nbytes


def test_validation_loss_names_non_finite_sample_across_row_blocks(monkeypatch):
    rng = np.random.default_rng(15)
    histories = rng.uniform(0, 1, (30, 4, 2))
    histories[17] = np.nan
    val = Windows(histories, rng.uniform(0, 1, (30, 2, 2)), np.arange(30))
    params = init("mlp", (4, 2, 2), 3, hidden=3, use_covariate=False)
    monkeypatch.setattr(training, "_BLOCK_ENTRIES", 32)
    with pytest.raises(NumericError, match="non-finite loss at batch sample 17"):
        training.validation_loss(params, PolicyConfig("b"), val)


def test_validation_loss_rejects_empty_split():
    params = init("mlp", (4, 2, 2), 3, hidden=3, use_covariate=False)
    empty = Windows(np.empty((0, 4, 2)), np.empty((0, 2, 2)), np.arange(0))
    with pytest.raises(DataError, match="at least one sample"):
        training.validation_loss(params, PolicyConfig("b"), empty)


def test_train_computes_validation_weights_once(monkeypatch):
    # the validation targets never change, so their per-cell weights are
    # computed once per train() call, not once per epoch

    tr, va, _ = _synth_splits()
    val = va[:37]  # no training block of batches has 37 samples
    calls = []
    real = training.target_weights

    def counting(targets, lo, hi, spec):
        if len(targets) == len(val):
            calls.append((lo, hi))
        return real(targets, lo, hi, spec)

    monkeypatch.setattr(training, "target_weights", counting)
    policy = PolicyConfig("d", partition=DiscretePartition(4))
    _, report, _ = train(policy, "mlp", tr[:200], val, 0, epochs=3, hidden=4)
    assert len(report.epochs) == 3
    assert calls == [(c.lo, c.hi) for c in policy.partition.intervals]


def test_training_and_evaluation_agree_on_cell_membership():
    # a target exactly on the boundary 0.25 of an L=4 partition lies in one
    # cell, [0.25, 0.5], for the indicator weight, the dstar label and the
    # evaluation mask alike
    from intervalcast.evaluation import interval_mae

    partition = DiscretePartition(4)
    Y = np.full((64, 3, 2), 0.25)
    rng = np.random.default_rng(0)
    d = draw_batch(PolicyConfig("d", partition=partition), Y, rng)
    ds = draw_batch(
        PolicyConfig("dstar", partition=partition, nu=DecaySpec(37.0), phi=0.5), Y, rng
    )
    for draw in (d, ds):
        home = draw.bounds[:, 0] == 0.25
        assert home.any() and not home.all()
    assert np.array_equal(d.weight, (d.bounds[:, 0] == 0.25).astype(float))
    home = ds.bounds[:, 0] == 0.25
    assert np.all(ds.labels[home] == 1.0) and np.all(ds.labels[~home] == 0.0)
    covered = [interval_mae(Y[0], Y[0], cell).covered_entries for cell in partition.intervals]
    assert covered == [0, Y[0].size, 0, 0]


def test_train_names_epoch_of_non_finite_validation_loss():
    tr, va, _ = _synth_splits()
    histories = va.history[:20].copy()
    histories[3] = np.nan
    broken = Windows(histories, va.target[:20], va.t_origin[:20])
    with pytest.raises(TrainingError, match="epoch 0, validation: non-finite loss at batch sample 3"):
        train(PolicyConfig("b"), "mlp", tr[:64], broken, 0, epochs=2, hidden=4)
