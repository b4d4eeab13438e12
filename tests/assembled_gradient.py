"""Reference backward pass that assembles the output gradient from temporaries.

The regression and logit gradients are computed as separate arrays and
copied into the output gradient, and each weight-gradient product is
computed into a temporary and copied into the gradient vector, as
:func:`intervalcast.models.backward` did before it wrote them in place.
The tests compare the two bytewise.
"""

from __future__ import annotations

import numpy as np

from intervalcast.models import (
    _covariate_rows,
    _outputs,
    _unpack,
    project_histories,
    sample_losses,
)


def assembled_backward(params, histories, targets, draw, phi):
    """Batch-mean loss and gradient of a valid batch, from the assembled output gradient."""
    arch = params.arch
    Y = np.asarray(targets, dtype=np.float64)
    B = len(Y)
    projection = project_histories(params, histories)
    cov = _covariate_rows(arch, draw.bounds)
    reg, prob, A = _outputs(projection, cov, paired=True)
    reg, prob = reg[:, 0], prob[:, 0]
    loss = float(sample_losses(reg, prob, Y, draw, phi).mean())

    per_entry = 1.0 / (arch.tau * arch.n)
    scale = draw.weight[:, None, None] * (per_entry / B)
    dreg = scale * np.sign(reg - Y)
    if draw.labels is not None and phi != 0.0:
        dlogits = (phi * scale) * (prob - draw.labels)
    else:
        dlogits = np.zeros_like(dreg)
    grad = np.zeros_like(params.theta)
    g = _unpack(arch, grad)
    if arch.kind == "mlp":
        half = arch.tau * arch.n
        dO = np.empty((B, 2 * half))
        dO[:, :half] = dreg.reshape(B, half)
        dO[:, half:] = dlogits.reshape(B, half)
        v = projection.views
        (flat,) = projection.inputs
        g["W2"][:] = dO.T @ A
        g["b2"][:] = dO.sum(axis=0)
        dA = dO @ v["W2"]
        dZ1 = dA * (1.0 - A * A)
        g["W1"][:, : flat.shape[1]] = dZ1.T @ flat
        g["W1"][:, flat.shape[1] :] = dZ1.T @ cov
        g["b1"][:] = dZ1.sum(axis=0)
    else:
        dO = np.concatenate(
            [dreg.transpose(0, 2, 1), dlogits.transpose(0, 2, 1)], axis=2
        )
        trend, resid = projection.inputs
        dcov = dO.sum(axis=1).T @ cov
        g["Wt"][:, : arch.w] = np.tensordot(dO, trend, axes=([0, 1], [0, 1]))
        g["Wt"][:, arch.w :] = dcov
        g["bt"][:] = dO.sum(axis=(0, 1))
        g["Wr"][:, : arch.w] = np.tensordot(dO, resid, axes=([0, 1], [0, 1]))
        g["Wr"][:, arch.w :] = dcov
        g["br"][:] = g["bt"]
    return loss, grad
