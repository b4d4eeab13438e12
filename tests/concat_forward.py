"""Reference forward pass with the interval covariate concatenated to the input.

Each history is joined with its two covariate entries before the first
layer, as the models did before the first layer was split into a history
term and a covariate term. :func:`intervalcast.models.forward_batch` and
:func:`intervalcast.models.forward_cells` must agree with it to rounding;
the tests compare them.
"""

from __future__ import annotations

import numpy as np

from intervalcast.models import _sigmoid, _unpack, moving_average


def concat_forward(params, histories, bounds):
    """(B, tau, n) regression and probability of each history conditioned on its (lo, hi) row."""
    arch = params.arch
    v = _unpack(arch, params.theta)
    H = np.asarray(histories, dtype=np.float64)
    B = len(H)
    cov = np.asarray(bounds, dtype=np.float64).reshape(B, 2)
    if not arch.use_covariate:
        cov = np.tile([0.0, 1.0], (B, 1))
    if arch.kind == "mlp":
        X = np.concatenate([H.reshape(B, arch.w * arch.n), cov], axis=1)
        O = np.tanh(X @ v["W1"].T + v["b1"]) @ v["W2"].T + v["b2"]
        half = arch.tau * arch.n
        reg = O[:, :half].reshape(B, arch.tau, arch.n)
        logits = O[:, half:].reshape(B, arch.tau, arch.n)
        return reg, _sigmoid(logits)
    trend = moving_average(H, arch.kernel)
    cov_chan = np.broadcast_to(cov[:, None, :], (B, arch.n, 2))
    tfeat = np.concatenate([trend.transpose(0, 2, 1), cov_chan], axis=2)
    rfeat = np.concatenate([(H - trend).transpose(0, 2, 1), cov_chan], axis=2)
    O = tfeat @ v["Wt"].T + v["bt"] + rfeat @ v["Wr"].T + v["br"]
    return O[..., : arch.tau].transpose(0, 2, 1), _sigmoid(O[..., arch.tau :].transpose(0, 2, 1))
