"""Reference training loop, one gather and one policy draw per mini-batch.

:func:`intervalcast.training.train` gathers and draws a block of whole
batches at once and slices each update's rows from it; it must reproduce
this loop bit for bit: the returned weights, every epoch record, the update
count and the message of a batch whose loss is not finite. The tests
compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from intervalcast.errors import NumericError, TrainingError
from intervalcast.models import ModelParams, backward, init
from intervalcast.training import (
    _LOOP_SEED_OFFSET,
    AdamwState,
    EpochRecord,
    TrainReport,
    _validation_weights,
    adamw_update,
    cosine_lr,
    draw_batch,
    validation_loss,
)


def per_batch_train(policy, kind, train_samples, val_samples, seed, *,
                    epochs, batch_size, patience, hidden=64, kernel=25):
    """(params, report, update count) as ``train`` returns them, without wall-clock time."""
    _, w, n = train_samples.history.shape
    tau = train_samples.target.shape[1]
    params = init(kind, (w, tau, n), seed, hidden=hidden, kernel=kernel,
                  use_covariate=policy.uses_covariate)
    opt = AdamwState.zeros(params.theta.size)
    loop_rng = np.random.default_rng(seed + _LOOP_SEED_OFFSET)
    phi = policy.effective_phi
    val_weights = _validation_weights(policy, val_samples)

    report = TrainReport()
    best_val = math.inf
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs)
        order = loop_rng.permutation(len(train_samples))
        batch_losses = []
        weight_sum = 0.0
        for b, start in enumerate(range(0, len(order), batch_size)):
            batch = train_samples[order[start : start + batch_size]]
            draw = draw_batch(policy, batch.target, loop_rng)
            weight_sum += draw.weight.sum()
            try:
                loss, grad = backward(params, batch.history, batch.target, draw, phi)
            except NumericError as exc:
                raise TrainingError(f"epoch {epoch}, batch {b}: {exc}") from exc
            adamw_update(opt, params.theta, grad, lr, policy.weight_decay)
            batch_losses.append(loss)
        if weight_sum == 0.0:
            raise TrainingError(
                f"policy {policy.label()}, epoch {epoch}: every drawn loss weight is 0, "
                f"so no training target lies near enough to its interval to give a gradient"
            )
        train_loss = float(np.mean(batch_losses))
        try:
            val_loss = validation_loss(params, policy, val_samples, val_weights)
        except NumericError as exc:
            raise TrainingError(f"epoch {epoch}, validation: {exc}") from exc
        report.epochs.append(EpochRecord(epoch, train_loss, val_loss, lr))
        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            best_theta = params.theta.copy()
            best_step = opt.step
        elif epoch - report.best_epoch >= patience:
            report.stopped_early = True
            break
    return ModelParams(params.arch, best_theta), report, best_step
