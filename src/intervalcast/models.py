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
    """Loss shaping for one mini-batch, one row per sample.

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
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, from one exp
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def moving_average(history: np.ndarray, kernel: int) -> np.ndarray:
    """Length-preserving moving average along axis -2, repeat-padded at the edges."""
    if kernel == 1:
        return history.copy()
    front = (kernel - 1) // 2
    back = kernel - 1 - front
    pad = [(0, 0)] * history.ndim
    pad[-2] = (front, back)
    padded = np.pad(history, pad, mode="edge")
    window = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=-2)
    return window.mean(axis=-1)


def _covariate_rows(arch: ModelArch, intervals) -> np.ndarray:
    """(B, 2) covariate rows: each interval's (lo, hi), or (0, 1) when pinned."""
    if not arch.use_covariate:
        return np.tile(np.array([0.0, 1.0]), (len(intervals), 1))
    if isinstance(intervals, np.ndarray):
        return intervals
    return np.array([(i.lo, i.hi) for i in intervals], dtype=np.float64).reshape(-1, 2)


def _forward_mlp(params: ModelParams, H: np.ndarray, cov: np.ndarray) -> dict:
    arch = params.arch
    v = _unpack(arch, params.theta)
    B = H.shape[0]
    X = np.concatenate([H.reshape(B, arch.w * arch.n), cov], axis=1)  # (B, d_in)
    Z1 = X @ v["W1"].T + v["b1"]
    A = np.tanh(Z1)
    O = A @ v["W2"].T + v["b2"]  # (B, 2*tau*n)
    half = arch.tau * arch.n
    reg = O[:, :half].reshape(B, arch.tau, arch.n)
    logits = O[:, half:].reshape(B, arch.tau, arch.n)
    return {"X": X, "A": A, "reg": reg, "prob": _sigmoid(logits)}


def _forward_linear(params: ModelParams, H: np.ndarray, cov: np.ndarray) -> dict:
    arch = params.arch
    v = _unpack(arch, params.theta)
    B = H.shape[0]
    trend = moving_average(H, arch.kernel)            # (B, w, n)
    resid = H - trend
    cov_chan = np.broadcast_to(cov[:, None, :], (B, arch.n, 2))
    tfeat = np.concatenate([trend.transpose(0, 2, 1), cov_chan], axis=2)  # (B, n, w+2)
    rfeat = np.concatenate([resid.transpose(0, 2, 1), cov_chan], axis=2)
    O = tfeat @ v["Wt"].T + v["bt"] + rfeat @ v["Wr"].T + v["br"]  # (B, n, 2*tau)
    reg = O[..., : arch.tau].transpose(0, 2, 1)       # (B, tau, n)
    logits = O[..., arch.tau :].transpose(0, 2, 1)
    return {"tfeat": tfeat, "rfeat": rfeat, "reg": reg, "prob": _sigmoid(logits)}


def forward_batch(
    params: ModelParams, histories: np.ndarray, intervals: Sequence[Interval] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward pass: (B, w, n) histories -> (B, tau, n) regression and probability.

    ``intervals`` is one :class:`Interval` per history, or their (B, 2)
    array of (lo, hi) rows. Architectures built with ``use_covariate=False``
    (the interval-blind policies) pin the covariate to (0, 1); the
    intervals then have no effect on the output.
    """
    cache = _forward(params, histories, intervals)
    return cache["reg"], cache["prob"]


def _forward(params: ModelParams, histories: np.ndarray,
             intervals: Sequence[Interval] | np.ndarray) -> dict:
    arch = params.arch
    H = np.asarray(histories, dtype=np.float64)
    if H.ndim != 3 or H.shape[1] != arch.w or H.shape[2] != arch.n:
        raise DimensionError(
            f"history batch shape {H.shape} does not match architecture "
            f"(B, {arch.w}, {arch.n})"
        )
    if len(intervals) != H.shape[0]:
        raise DimensionError(
            f"{len(intervals)} intervals for a batch of {H.shape[0]} histories"
        )
    cov = _covariate_rows(arch, intervals)
    if arch.kind == KIND_MLP:
        return _forward_mlp(params, H, cov)
    return _forward_linear(params, H, cov)


def batch_loss(
    params: ModelParams,
    histories: np.ndarray,
    targets: np.ndarray,
    draw: BatchDraw,
    phi: float,
) -> float:
    """Batch-mean loss only (shares every code path with :func:`backward`)."""
    loss, _, _ = _loss_terms(params, histories, targets, draw, phi, cache_out=None)
    return loss


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
    cache: dict = {}
    loss, dreg, dlogits = _loss_terms(params, histories, targets, draw, phi, cache_out=cache)
    arch = params.arch
    grad = np.zeros_like(params.theta)
    g = _unpack(arch, grad)
    if arch.kind == KIND_MLP:
        B = dreg.shape[0]
        half = arch.tau * arch.n
        dO = np.empty((B, 2 * half))
        dO[:, :half] = dreg.reshape(B, half)
        dO[:, half:] = dlogits.reshape(B, half)
        v = _unpack(arch, params.theta)
        A, X = cache["A"], cache["X"]
        g["W2"][:] = dO.T @ A
        g["b2"][:] = dO.sum(axis=0)
        dA = dO @ v["W2"]
        dZ1 = dA * (1.0 - A * A)
        g["W1"][:] = dZ1.T @ X
        g["b1"][:] = dZ1.sum(axis=0)
    else:
        # per-channel output gradient: (B, n, 2*tau)
        dO = np.concatenate(
            [dreg.transpose(0, 2, 1), dlogits.transpose(0, 2, 1)], axis=2
        )
        g["Wt"][:] = np.tensordot(dO, cache["tfeat"], axes=([0, 1], [0, 1]))
        g["bt"][:] = dO.sum(axis=(0, 1))
        g["Wr"][:] = np.tensordot(dO, cache["rfeat"], axes=([0, 1], [0, 1]))
        g["br"][:] = dO.sum(axis=(0, 1))
    return loss, grad


def sample_losses(
    reg: np.ndarray, prob: np.ndarray, targets: np.ndarray, draw: BatchDraw, phi: float
) -> np.ndarray:
    """Per-sample loss of (B, tau, n) outputs against (B, tau, n) targets.

    Each sample's loss is its weighted MAE plus, when the draw has labels
    and phi is non-zero, phi times its weighted binary cross entropy, with
    probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]. Training and
    validation both compute their loss here. Raises :class:`NumericError`
    naming the first sample whose loss is not finite.
    """
    losses = draw.weight * np.abs(reg - targets).mean(axis=(1, 2))
    if draw.labels is not None and phi != 0.0:
        p = np.clip(prob, PROB_CLAMP, 1.0 - PROB_CLAMP)
        bce = -(draw.labels * np.log(p) + (1.0 - draw.labels) * np.log1p(-p))
        losses = losses + phi * (draw.weight * bce.mean(axis=(1, 2)))
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NumericError(f"non-finite loss at batch sample {bad}")
    return losses


def _loss_terms(params, histories, targets, draw, phi, cache_out):
    arch = params.arch
    Y = np.asarray(targets, dtype=np.float64)
    B = len(Y)
    if B == 0:
        raise DataError("batch must be non-empty")
    if len(histories) != B or len(draw.weight) != B:
        raise DimensionError(
            f"{len(histories)} histories and {len(draw.weight)} loss weights "
            f"for {B} targets"
        )
    if Y.shape[1:] != (arch.tau, arch.n):
        raise DimensionError(
            f"target shape {Y.shape[1:]} does not match (tau, n) = ({arch.tau}, {arch.n})"
        )
    cache = _forward(params, histories, draw.bounds)
    loss = float(sample_losses(cache["reg"], cache["prob"], Y, draw, phi).mean())
    if cache_out is None:
        return loss, None, None
    cache_out.update(cache)

    per_entry = 1.0 / (arch.tau * arch.n)
    scale = draw.weight[:, None, None] * (per_entry / B)
    dreg = scale * np.sign(cache["reg"] - Y)
    if draw.labels is not None and phi != 0.0:
        dlogits = (phi * scale) * (cache["prob"] - draw.labels)
    else:
        dlogits = np.zeros_like(dreg)
    return loss, dreg, dlogits
