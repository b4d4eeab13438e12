import math

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
from intervalcast.errors import ConfigError, TrainingError
from intervalcast.intervals import INDICATOR, entries_inside, target_weights
from intervalcast.models import BatchDraw, backward, init, sample_losses
from concat_forward import concat_forward
from intervalcast.training import AdamwState, adamw_update
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
    # the in-place update reproduces the textbook expression exactly
    # (decoupled decay, Loshchilov & Hutter) over several steps
    rng = np.random.default_rng(13)
    theta = rng.normal(size=1000)
    ref_theta, ref_m, ref_v = theta.copy(), np.zeros(1000), np.zeros(1000)
    state = AdamwState.zeros(1000)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, 8):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=1000)
        lr, wd = 1e-3 / step, 0.01 * step
        adamw_update(state, theta, grad, lr, wd)
        ref_m = b1 * ref_m + (1.0 - b1) * grad
        ref_v = b2 * ref_v + (1.0 - b2) * grad * grad
        m_hat = ref_m / (1.0 - b1 ** step)
        v_hat = ref_v / (1.0 - b2 ** step)
        ref_theta -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref_theta)
        assert state.step == step
        assert theta.tobytes() == ref_theta.tobytes()
        assert state.m.tobytes() == ref_m.tobytes()
        assert state.v.tobytes() == ref_v.tobytes()


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


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    tr, va, _ = _synth_splits()
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(4), nu=DecaySpec(math.inf), phi=0.25,
        weight_decay=0.01,
    )
    params, _, opt = train(policy, "linear", tr[:150], va[:50], 5, epochs=3, kernel=5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, opt, policy)
    loaded_params, loaded_opt, loaded_policy = load_checkpoint(path)
    assert np.array_equal(loaded_params.theta, params.theta)
    assert loaded_params.arch == params.arch
    assert loaded_opt.step == opt.step
    assert np.array_equal(loaded_opt.m, opt.m)
    assert np.array_equal(loaded_opt.v, opt.v)
    assert loaded_policy == policy

    save_checkpoint(tmp_path / "ck2.json", loaded_params, loaded_opt, loaded_policy)
    assert (tmp_path / "ck.json").read_bytes() == (tmp_path / "ck2.json").read_bytes()


def test_checkpoint_preserves_infinite_nu(tmp_path):
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(2), nu=DecaySpec(math.inf), phi=0.5
    )
    params = init("mlp", (4, 2, 1), 0, hidden=3)
    save_checkpoint(tmp_path / "ck.json", params, AdamwState.zeros(params.theta.size), policy)
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


def test_train_computes_validation_weights_once(monkeypatch):
    # the validation targets never change, so their per-cell weights are
    # computed once per train() call, not once per epoch
    import intervalcast.training as training

    tr, va, _ = _synth_splits()
    val = va[:37]  # no training batch has 37 samples
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
