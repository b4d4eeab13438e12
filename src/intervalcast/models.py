"""Interval-conditioned forecasters with dual regression/classification heads.

Two small architectures stand in for the published deep models:

* ``mlp`` -- flattened history plus the two covariate entries through one
  tanh hidden layer to 2*tau*n outputs.
* ``linear`` -- moving-average trend/residual decomposition of the history,
  one shared linear map per component applied channel-wise (each taking the
  component vector plus the two covariate entries), outputs summed.

Both partition their output into regression values (first tau per channel)
and classification logits (remaining tau). Gradients are hand-derived and
validated against finite differences.

The interval enters either model only as its two covariate entries, so the
first layer is computed as a history term (:func:`project_histories`) plus
a covariate term. :func:`forward_batch` conditions each history on its own
interval; :func:`forward_cells` conditions every history on each of K
intervals from one history term. Both run the same arithmetic. A
:class:`Projection` can be forwarded any number of times: serving
(:func:`patching.forecast_each`) projects a stack of histories once and
forwards each query's cells from it. The probability head's sigmoid takes
one exp per entry and no per-entry branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericError
from .intervals import Interval

KIND_MLP = "mlp"
KIND_LINEAR = "linear"
KINDS = (KIND_MLP, KIND_LINEAR)

PROB_CLAMP = 1e-12  # BCE probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]


@dataclass(frozen=True)
class ModelArch:
    """Architecture descriptor; fixes the parameter layout exactly."""

    kind: str
    w: int
    tau: int
    n: int
    hidden: int = 64   # mlp only
    kernel: int = 25   # linear only: moving-average window
    use_covariate: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.w < 1 or self.tau < 1 or self.n < 1:
            raise ConfigError(f"dims must be positive, got w={self.w}, tau={self.tau}, n={self.n}")
        if self.kind == KIND_MLP and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")
        if self.kind == KIND_LINEAR and self.kernel < 1:
            raise ConfigError(f"moving-average kernel must be >= 1, got {self.kernel}")

    def param_count(self) -> int:
        if self.kind == KIND_MLP:
            d_in = self.w * self.n + 2
            d_out = 2 * self.tau * self.n
            return self.hidden * d_in + self.hidden + d_out * self.hidden + d_out
        d_in = self.w + 2
        d_out = 2 * self.tau
        return 2 * (d_out * d_in + d_out)


@dataclass
class ModelParams:
    """Flat parameter vector plus the descriptor that gives it meaning."""

    arch: ModelArch
    theta: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.theta, dtype=np.float64).ravel()
        if t.size != self.arch.param_count():
            raise DimensionError(
                f"parameter vector has {t.size} entries, architecture needs "
                f"{self.arch.param_count()}"
            )
        self.theta = t


class BatchDraw(NamedTuple):
    """Loss shaping for a mini-batch or a block of them, one row per sample.

    ``bounds`` holds each sample's conditioning interval as (lo, hi),
    ``weight`` its loss weight, and ``labels`` (patching-augmented policy
    only) the per-entry in-interval indicators the classification head is
    trained on.
    """

    bounds: np.ndarray          # (B, 2)
    weight: np.ndarray          # (B,)
    labels: np.ndarray | None   # (B, tau, n) or None


def init(kind: str, dims: tuple[int, int, int], seed: int, *,
         hidden: int = 64, kernel: int = 25, use_covariate: bool = True) -> ModelParams:
    """Deterministic initialization: weights U[-s, s] with s = sqrt(1/fan_in), biases 0."""
    w, tau, n = dims
    arch = ModelArch(kind, w, tau, n, hidden=hidden, kernel=kernel,
                     use_covariate=use_covariate)
    rng = np.random.default_rng(seed)
    theta = np.zeros(arch.param_count())
    views = _unpack(arch, theta)
    if kind == KIND_MLP:
        d_in = w * n + 2
        views["W1"][:] = rng.uniform(-1, 1, views["W1"].shape) * math.sqrt(1.0 / d_in)
        views["W2"][:] = rng.uniform(-1, 1, views["W2"].shape) * math.sqrt(1.0 / arch.hidden)
    else:
        s = math.sqrt(1.0 / (w + 2))
        views["Wt"][:] = rng.uniform(-1, 1, views["Wt"].shape) * s
        views["Wr"][:] = rng.uniform(-1, 1, views["Wr"].shape) * s
    return ModelParams(arch, theta)


def _unpack(arch: ModelArch, theta: np.ndarray) -> dict[str, np.ndarray]:
    """Named views into the flat vector; the layout is part of the checkpoint format."""
    if arch.kind == KIND_MLP:
        d_in = arch.w * arch.n + 2
        h = arch.hidden
        d_out = 2 * arch.tau * arch.n
        sizes = [h * d_in, h, d_out * h, d_out]
        w1, b1, w2, b2 = _slices(theta, sizes)
        return {
            "W1": w1.reshape(h, d_in),
            "b1": b1,
            "W2": w2.reshape(d_out, h),
            "b2": b2,
        }
    d_in = arch.w + 2
    d_out = 2 * arch.tau
    sizes = [d_out * d_in, d_out, d_out * d_in, d_out]
    wt, bt, wr, br = _slices(theta, sizes)
    return {
        "Wt": wt.reshape(d_out, d_in),
        "bt": bt,
        "Wr": wr.reshape(d_out, d_in),
        "br": br,
    }


def _slices(theta: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    out, start = [], 0
    for s in sizes:
        out.append(theta[start : start + s])
        start += s
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, from one exp.
    # With e = exp(-|z|) <= 1, max(e, z >= 0) is 1 where z >= 0 and e
    # elsewhere (NaN stays NaN), with no per-entry branch.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def moving_average(history: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving moving average along axis -2, repeat-padded at the edges."""
    front = (kernel - 1) // 2
    back = kernel - 1 - front
    pad = [(0, 0)] * history.ndim
    pad[-2] = (front, back)
    padded = np.pad(history, pad, mode="edge")
    window = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=-2)
    return window.mean(axis=-1)


def _covariate_rows(arch: ModelArch, intervals) -> np.ndarray:
    """(K, 2) covariate rows: each interval's (lo, hi), or (0, 1) when pinned."""
    if not arch.use_covariate:
        return np.tile(np.array([0.0, 1.0]), (len(intervals), 1))
    if isinstance(intervals, np.ndarray):
        return intervals
    return np.array([(i.lo, i.hi) for i in intervals], dtype=np.float64).reshape(-1, 2)


class Projection(NamedTuple):
    """The interval-free part of the first layer for a batch of B histories.

    The interval enters a model only as two input columns, so the first
    layer splits into a history term and a covariate term. ``term`` is the
    history term: (B, hidden) for the mlp and (B, n, 2*tau) for the linear
    model. Every cell conditioned on these histories adds only its own
    covariate term to it. ``inputs`` holds what the weight gradient reads:
    the flattened histories (B, w*n) for the mlp, the trend and residual
    channels (B, n, w) for the linear model. ``views`` are the named views
    into the parameter vector that the term was computed with.
    """

    arch: ModelArch
    views: dict[str, np.ndarray]
    term: np.ndarray
    inputs: tuple[np.ndarray, ...]


def project_histories(params: ModelParams, histories: np.ndarray) -> Projection:
    """The history term of the first layer for a (B, w, n) batch of histories."""
    arch = params.arch
    H = np.asarray(histories, dtype=np.float64)
    if H.ndim != 3 or H.shape[1] != arch.w or H.shape[2] != arch.n:
        raise DimensionError(
            f"history batch shape {H.shape} does not match architecture "
            f"(B, {arch.w}, {arch.n})"
        )
    v = _unpack(arch, params.theta)
    if arch.kind == KIND_MLP:
        flat = H.reshape(len(H), arch.w * arch.n)
        return Projection(arch, v, flat @ v["W1"][:, : flat.shape[1]].T, (flat,))
    trend = moving_average(H, arch.kernel).transpose(0, 2, 1)   # (B, n, w)
    resid = H.transpose(0, 2, 1) - trend
    term = trend @ v["Wt"][:, : arch.w].T + resid @ v["Wr"][:, : arch.w].T
    return Projection(arch, v, term, (trend, resid))


def _outputs(projection: Projection, cov: np.ndarray, paired: bool) -> tuple:
    """Regression, probability and (mlp only) hidden activations of projected histories.

    ``cov`` holds (lo, hi) covariate rows. ``paired`` conditions history b
    on row b, giving (B, 1, tau, n) outputs; otherwise every history is
    conditioned on each of the K rows, giving (B, K, tau, n). The mlp's
    hidden activations are (B*K, hidden), kept for the backward pass.
    """
    arch, v = projection.arch, projection.views
    B = len(projection.term)
    K = 1 if paired else len(cov)
    if arch.kind == KIND_MLP:
        wn = arch.w * arch.n
        cov_term = cov @ v["W1"][:, wn:].T + v["b1"]
        Z = projection.term + cov_term if paired else projection.term[:, None, :] + cov_term
        A = np.tanh(Z.reshape(B * K, arch.hidden))
        O = A @ v["W2"].T
        O += v["b2"]
        half = arch.tau * arch.n
        shape = (B, K, arch.tau, arch.n)
        return O[:, :half].reshape(shape), _sigmoid(O[:, half:]).reshape(shape), A
    cov_term = cov @ v["Wt"][:, arch.w :].T + v["bt"] + cov @ v["Wr"][:, arch.w :].T + v["br"]
    O = projection.term[:, None] + cov_term.reshape((B, 1, 1, -1) if paired else (1, K, 1, -1))
    reg = O[..., : arch.tau].swapaxes(-1, -2)       # (B, K, tau, n)
    logits = O[..., arch.tau :].swapaxes(-1, -2)
    return reg, _sigmoid(logits), None


def forward_batch(
    params: ModelParams, histories: np.ndarray, intervals: Sequence[Interval] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward pass: (B, w, n) histories -> (B, tau, n) regression and probability.

    ``intervals`` is one :class:`Interval` per history, or their (B, 2)
    array of (lo, hi) rows. Architectures built with ``use_covariate=False``
    (the interval-blind policies) pin the covariate to (0, 1); the
    intervals then have no effect on the output.
    """
    projection = project_histories(params, histories)
    if len(intervals) != len(projection.term):
        raise DimensionError(
            f"{len(intervals)} intervals for a batch of {len(projection.term)} histories"
        )
    reg, prob, _ = _outputs(projection, _covariate_rows(params.arch, intervals), paired=True)
    return reg[:, 0], prob[:, 0]


def forward_cells(
    projection: Projection, intervals: Sequence[Interval] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every projected history conditioned on every interval: (B, K, tau, n) outputs.

    ``projection`` comes from :func:`project_histories` for B histories and
    ``intervals`` is K intervals or their (K, 2) array; row ``[b, k]`` equals
    :func:`forward_batch` of history b conditioned on interval k. The
    history term is computed once, however many intervals share it.
    """
    reg, prob, _ = _outputs(projection, _covariate_rows(projection.arch, intervals), paired=False)
    return reg, prob


def backward(
    params: ModelParams,
    histories: np.ndarray,
    targets: np.ndarray,
    draw: BatchDraw,
    phi: float,
) -> tuple[float, np.ndarray]:
    """Batch-mean loss and its analytic gradient with respect to theta.

    ``histories`` is (B, w, n) and ``targets`` (B, tau, n); ``draw`` carries
    each sample's conditioning interval, weight and optional labels (see
    the training module). The regression part is weighted MAE with the 0
    subgradient at zero residual; the classification part (present when
    the draw has labels and phi > 0) is weighted binary cross entropy
    scaled by phi.
    """
    arch = params.arch
    Y = np.asarray(targets, dtype=np.float64)
    B = len(Y)
    if B == 0:
        raise DataError("batch must be non-empty")
    if len(histories) != B or len(draw.weight) != B or len(draw.bounds) != B:
        raise DimensionError(
            f"{len(histories)} histories, {len(draw.bounds)} intervals and "
            f"{len(draw.weight)} loss weights for {B} targets"
        )
    if Y.shape[1:] != (arch.tau, arch.n):
        raise DimensionError(
            f"target shape {Y.shape[1:]} does not match (tau, n) = ({arch.tau}, {arch.n})"
        )
    projection = project_histories(params, histories)
    cov = _covariate_rows(arch, draw.bounds)
    reg, prob, A = _outputs(projection, cov, paired=True)
    reg, prob = reg[:, 0], prob[:, 0]
    # np.add.reduce and a divide: what .mean computes, without its wrapper
    loss = float(np.add.reduce(sample_losses(reg, prob, Y, draw, phi)) / B)

    # the output gradient is built in place: the regression half of each
    # row, then the logit half, as the mlp's output layer lays them out
    per_entry = 1.0 / (arch.tau * arch.n)
    scale = draw.weight[:, None, None] * (per_entry / B)
    dO = np.empty((B, 2, arch.tau, arch.n))
    dreg, dlogits = dO[:, 0], dO[:, 1]
    np.subtract(reg, Y, out=dreg)
    np.sign(dreg, out=dreg)
    dreg *= scale
    if draw.labels is not None and phi != 0.0:
        np.subtract(prob, draw.labels, out=dlogits)
        dlogits *= phi * scale
    else:
        dlogits[...] = 0.0
    grad = np.empty_like(params.theta)  # the views of _unpack tile it and all are written
    g = _unpack(arch, grad)
    if arch.kind == KIND_MLP:
        dO = dO.reshape(B, -1)
        v = projection.views
        (flat,) = projection.inputs
        wn = flat.shape[1]
        np.matmul(dO.T, A, out=g["W2"])
        g["b2"][:] = dO.sum(axis=0)
        dA = dO @ v["W2"]
        dZ1 = dA * (1.0 - A * A)
        np.matmul(dZ1.T, flat, out=g["W1"][:, :wn])
        np.matmul(dZ1.T, cov, out=g["W1"][:, wn:])
        g["b1"][:] = dZ1.sum(axis=0)
    else:
        # per-channel output gradient: (B, n, 2*tau)
        dO = dO.transpose(0, 3, 1, 2).reshape(B, arch.n, 2 * arch.tau)
        trend, resid = projection.inputs
        dcov = dO.sum(axis=1).T @ cov   # both components see the same covariate
        g["Wt"][:, : arch.w] = np.tensordot(dO, trend, axes=([0, 1], [0, 1]))
        g["Wt"][:, arch.w :] = dcov
        g["bt"][:] = dO.sum(axis=(0, 1))
        g["Wr"][:, : arch.w] = np.tensordot(dO, resid, axes=([0, 1], [0, 1]))
        g["Wr"][:, arch.w :] = dcov
        g["br"][:] = g["bt"]
    return loss, grad


def sample_losses(
    reg: np.ndarray,
    prob: np.ndarray,
    targets: np.ndarray,
    draw: BatchDraw,
    phi: float,
    start: int = 0,
) -> np.ndarray:
    """Per-sample loss of (B, tau, n) outputs against (B, tau, n) targets.

    Each sample's loss is its weighted MAE plus, when the draw has labels
    and phi is non-zero, phi times its weighted binary cross entropy, with
    probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]. Training and
    validation both compute their loss here. Raises :class:`NumericError`
    naming the first sample whose loss is not finite, counting samples from
    ``start`` (the batch's first row within a longer split).
    """
    # np.add.reduce and a divide: what .mean computes, without its wrapper
    count = math.prod(targets.shape[1:])
    losses = draw.weight * (np.add.reduce(np.abs(reg - targets), axis=(1, 2)) / count)
    if draw.labels is not None and phi != 0.0:
        # np.clip without its wrapper, in place so that no second temporary is made
        p = np.maximum(prob, PROB_CLAMP)
        np.minimum(p, 1.0 - PROB_CLAMP, out=p)
        bce = -(draw.labels * np.log(p) + (1.0 - draw.labels) * np.log1p(-p))
        losses = losses + phi * (draw.weight * (np.add.reduce(bce, axis=(1, 2)) / count))
    if not np.isfinite(losses).all():
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericError(f"non-finite loss at batch sample {start + bad}")
    return losses
