"""Reference parameter layout, stated once per model kind.

Each kind's parameter count, named views and initial weights are written
out by hand here, as the models module did before one table gave every
kind its layout. :func:`intervalcast.models.init`,
:func:`intervalcast.models._unpack` and
:meth:`intervalcast.models.ModelArch.param_count` must reproduce them
exactly: the same bytes of ``theta``, and views of the same names, shapes
and offsets. The tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from intervalcast.models import KIND_MLP, ModelArch


def per_kind_param_count(arch: ModelArch) -> int:
    if arch.kind == KIND_MLP:
        d_in = arch.w * arch.n + 2
        d_out = 2 * arch.tau * arch.n
        return arch.hidden * d_in + arch.hidden + d_out * arch.hidden + d_out
    d_in = arch.w + 2
    d_out = 2 * arch.tau
    return 2 * (d_out * d_in + d_out)


def _slices(theta: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    out, start = [], 0
    for s in sizes:
        out.append(theta[start : start + s])
        start += s
    return out


def per_kind_unpack(arch: ModelArch, theta: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into the flat vector, laid out per kind."""
    if arch.kind == KIND_MLP:
        d_in = arch.w * arch.n + 2
        h = arch.hidden
        d_out = 2 * arch.tau * arch.n
        w1, b1, w2, b2 = _slices(theta, [h * d_in, h, d_out * h, d_out])
        return {"W1": w1.reshape(h, d_in), "b1": b1, "W2": w2.reshape(d_out, h), "b2": b2}
    d_in = arch.w + 2
    d_out = 2 * arch.tau
    wt, bt, wr, br = _slices(theta, [d_out * d_in, d_out, d_out * d_in, d_out])
    return {"Wt": wt.reshape(d_out, d_in), "bt": bt, "Wr": wr.reshape(d_out, d_in), "br": br}


def per_kind_init(kind: str, dims: tuple[int, int, int], seed: int, *,
                  hidden: int = 64, kernel: int = 25, use_covariate: bool = True) -> np.ndarray:
    """The initial flat vector: weights U[-s, s] with s = sqrt(1/fan_in), biases 0."""
    w, tau, n = dims
    arch = ModelArch(kind, w, tau, n, hidden=hidden, kernel=kernel,
                     use_covariate=use_covariate)
    rng = np.random.default_rng(seed)
    theta = np.zeros(per_kind_param_count(arch))
    views = per_kind_unpack(arch, theta)
    if kind == KIND_MLP:
        d_in = w * n + 2
        views["W1"][:] = rng.uniform(-1, 1, views["W1"].shape) * math.sqrt(1.0 / d_in)
        views["W2"][:] = rng.uniform(-1, 1, views["W2"].shape) * math.sqrt(1.0 / arch.hidden)
    else:
        s = math.sqrt(1.0 / (w + 2))
        views["Wt"][:] = rng.uniform(-1, 1, views["Wt"].shape) * s
        views["Wr"][:] = rng.uniform(-1, 1, views["Wr"].shape) * s
    return theta
