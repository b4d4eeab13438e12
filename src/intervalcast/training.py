"""Training policies, batch draws, validation, AdamW with cosine annealing, checkpoints.

Five policies share one loop; they differ only in how each sample's
conditioning interval, loss weight, and (for the patching-augmented policy)
per-entry classification labels are produced, all drawn by
:func:`draw_batch` for a block of whole mini-batches at once (see
:func:`train`):

* ``b``     -- full domain, weight 1, interval covariate disabled.
* ``e2e``   -- one fixed task interval, hard indicator weight, covariate disabled.
* ``c``     -- per-sample interval drawn uniformly over lengths >= delta,
               hard indicator weight.
* ``d``     -- per-sample cell of a fixed partition, hard indicator weight.
* ``dstar`` -- per-sample cell, decay-product weight with rate nu, per-entry
               in-interval labels, total loss = regression + phi * classification.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import Windows
from .errors import ConfigError, DataError, DimensionError, FormatError, NumericError, TrainingError
from .intervals import (
    INDICATOR,
    FULL_DOMAIN,
    DecaySpec,
    DiscretePartition,
    Interval,
    entries_inside,
    target_weights,
)
from .models import (
    BatchDraw,
    ModelArch,
    ModelParams,
    backward,
    forward_cells,
    init,
    project_histories,
    sample_losses,
)

# The optional PolicyConfig fields each policy kind takes; every other one
# must be absent. The CLI reads this table to warn about ignored flags.
POLICY_FIELDS = {
    "b": (),
    "e2e": ("task_interval",),
    "c": ("delta",),
    "d": ("partition",),
    "dstar": ("partition", "nu", "phi"),
}
POLICY_KINDS = tuple(POLICY_FIELDS)

LR_MAX = 1e-3
LR_MIN = 1e-5
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8
DEFAULT_EPOCHS = 50
DEFAULT_BATCH = 32
DEFAULT_PATIENCE = 5
VALIDATION_PROBE_CELLS = 4  # probe partition for the continuous policy

# Offset separating the training-loop RNG stream from the init stream.
_LOOP_SEED_OFFSET = 0x9E3779B9

# Version 3 stores the weights as one base64 string of little-endian float64
# bytes, which loads several times faster than the list of JSON float
# literals that versions 1 and 2 held. Only version 3 loads; an older file
# fails with the version error, naming the file.
CHECKPOINT_VERSION = 3

# Cache blocking. An AdamW block of 16k entries keeps its six 128 KB
# vector slices in L2 across the update's passes. The row blocks of
# validation and of training each hold about ``_BLOCK_ENTRIES`` entries:
# a validation block counts target entries, so its projection, outputs,
# loss weights and loss temporaries stay a few MB however long the split
# is; a training block counts history and target entries and holds whole
# batches (at least one), so an epoch makes one gather and one policy draw
# per block instead of per batch, while its temporaries stay as small.
_ADAMW_BLOCK = 16384
_BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class PolicyConfig:
    """Full description of one training policy.

    Fields required by the kind must be present and all others absent;
    ``weight_decay`` (the coefficient of the squared-norm regularizer,
    applied decoupled) is common to every kind.
    """

    kind: str
    task_interval: Interval | None = None
    delta: float | None = None
    partition: DiscretePartition | None = None
    nu: DecaySpec | None = None
    phi: float | None = None
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        # written so that NaN, which fails every comparison, is rejected too
        if not (0.0 <= self.weight_decay < math.inf):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        required = POLICY_FIELDS[self.kind]
        for name in ("task_interval", "delta", "partition", "nu", "phi"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ConfigError(f"policy {self.kind!r} requires {name}")
            if name not in required and value is not None:
                raise ConfigError(f"policy {self.kind!r} does not take {name}")
        if self.phi is not None and not (0.0 <= self.phi <= 1.0):
            raise ConfigError(f"phi must be in [0, 1], got {self.phi}")
        if self.delta is not None and not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must be in [0, 1), got {float(self.delta)}")

    @property
    def uses_covariate(self) -> bool:
        return self.kind in ("c", "d", "dstar")

    @property
    def cells(self) -> tuple[Interval, ...] | None:
        """The fixed intervals the policy trains on; None for ``c``, which draws its own."""
        if self.kind == "b":
            return (FULL_DOMAIN,)
        if self.kind == "e2e":
            return (self.task_interval,)
        return None if self.kind == "c" else self.partition.intervals

    @property
    def effective_phi(self) -> float:
        return self.phi if self.kind == "dstar" else 0.0

    def label(self) -> str:
        """Short policy name for result tables."""
        if self.kind == "b":
            return "B"
        if self.kind == "e2e":
            return f"E2E[{self.task_interval.lo:g},{self.task_interval.hi:g}]"
        if self.kind == "c":
            return f"C{self.delta:g}"
        if self.kind == "d":
            return f"D{self.partition.L}"
        return f"Dstar{self.partition.L}"


def draw_batch(
    policy: PolicyConfig, targets: np.ndarray, rng: np.random.Generator
) -> BatchDraw:
    """Draw every sample's conditioning interval, weight and labels for B samples.

    ``targets`` is the samples' (B, tau, n) target array: one mini-batch,
    or in :func:`train` a block of consecutive mini-batches. Draws are
    fresh each time a sample is seen. They consume the RNG stream exactly
    as one scalar draw per sample in order would: ``integers(0, k, size=B)``
    over the k :attr:`PolicyConfig.cells`, which takes nothing from the
    stream when k is 1, and for ``c`` the rows of ``random((B, 2))`` mapped
    to lo ~ U[0, 1-delta], hi ~ U[lo+delta, 1]. Each sample's weight and
    labels read only its own targets, so rows [i:j] of one draw over a
    block equal a draw over those rows alone from the same RNG state.
    """
    Y = np.asarray(targets, dtype=np.float64)
    B = len(Y)
    if B == 0:
        raise ConfigError("batch must be non-empty")
    if policy.kind == "c":
        u = rng.random((B, 2))
        lo = (1.0 - policy.delta) * u[:, 0]
        hi_min = lo + policy.delta
        hi = hi_min + (1.0 - hi_min) * u[:, 1]
        bounds = np.minimum(np.column_stack((lo, hi)), 1.0)
    else:
        cells = np.array([(c.lo, c.hi) for c in policy.cells])
        bounds = cells[rng.integers(0, len(cells), size=B)]
    lo = bounds[:, 0, None, None]
    hi = bounds[:, 1, None, None]
    return BatchDraw(bounds, _loss_weights(policy, Y, lo, hi), _entry_labels(policy, Y, lo, hi))


def _loss_weights(policy: PolicyConfig, targets: np.ndarray, lo, hi) -> np.ndarray:
    """The policy's per-sample loss weights for targets conditioned on [lo, hi].

    ``lo`` and ``hi`` bound the conditioning interval, as floats or as
    (B, 1, 1) arrays (see :func:`intervals.entries_inside`).
    """
    if policy.kind == "b":
        return np.ones(len(targets))
    return target_weights(targets, lo, hi, policy.nu if policy.kind == "dstar" else INDICATOR)


def _entry_labels(policy: PolicyConfig, targets: np.ndarray, lo, hi) -> np.ndarray | None:
    """Per-entry in-interval labels for ``dstar``, None for every other policy."""
    if policy.kind != "dstar":
        return None
    return entries_inside(targets, lo, hi).astype(np.float64)


def cosine_lr(epoch: int, n_epochs: int) -> float:
    """LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1 + cos(pi * epoch / n_epochs))."""
    return LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + math.cos(math.pi * epoch / n_epochs))


@dataclass
class AdamwState:
    """First/second moment accumulators and the update count."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "AdamwState":
        return cls(0, np.zeros(dim), np.zeros(dim))


def adamw_update(
    state: AdamwState,
    theta: np.ndarray,
    grad: np.ndarray,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam step, in place on theta and both moments.

    The arithmetic is, operation for operation, m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g, then
    theta -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta),
    with b1, b2 and eps the ``ADAMW_BETA1``, ``ADAMW_BETA2`` and
    ``ADAMW_EPS`` constants.
    Every entry depends only on its own index, so the sequence runs over
    blocks of ``_ADAMW_BLOCK`` entries: a block of the four vectors and of
    the two block-sized buffers stays in cache across all its passes. The
    results are bitwise equal to the unblocked sequence. With
    ``weight_decay == 0`` the decay term is skipped, which for finite theta
    leaves every bit as adding ``0 * theta`` would. Raises
    :class:`DimensionError` when theta, grad and the moments differ in size.
    """
    size = theta.size
    if not grad.size == state.m.size == state.v.size == size:
        raise DimensionError(
            f"AdamW sizes differ: theta {size}, grad {grad.size}, "
            f"m {state.m.size}, v {state.v.size}"
        )
    state.step += 1
    m_corr = 1.0 - ADAMW_BETA1 ** state.step
    v_corr = 1.0 - ADAMW_BETA2 ** state.step
    scratch_buf = np.empty(min(size, _ADAMW_BLOCK))
    update_buf = np.empty_like(scratch_buf)
    for lo in range(0, size, _ADAMW_BLOCK):
        hi = min(lo + _ADAMW_BLOCK, size)
        g, m, v, t = grad[lo:hi], state.m[lo:hi], state.v[lo:hi], theta[lo:hi]
        scratch, update = scratch_buf[: hi - lo], update_buf[: hi - lo]
        np.multiply(g, 1.0 - ADAMW_BETA1, out=scratch)
        m *= ADAMW_BETA1
        m += scratch
        np.multiply(g, 1.0 - ADAMW_BETA2, out=scratch)
        scratch *= g
        v *= ADAMW_BETA2
        v += scratch
        np.divide(v, v_corr, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAMW_EPS
        np.divide(m, m_corr, out=update)
        update /= scratch
        if weight_decay != 0.0:
            np.multiply(t, weight_decay, out=scratch)
            update += scratch
        update *= lr
        t -= update


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainReport:
    """Per-epoch history plus early-stopping outcome."""

    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    wall_clock_seconds: float = 0.0


def _validation_intervals(policy: PolicyConfig) -> tuple[Interval, ...]:
    return policy.cells or DiscretePartition(VALIDATION_PROBE_CELLS).intervals


def _validation_blocks(val_samples: Windows) -> list[int]:
    """Edges of the near-equal row blocks of about ``_BLOCK_ENTRIES`` target entries.

    The blocks are of near-equal size, not full blocks plus a short tail,
    because BLAS can round a product of very few rows differently from a
    taller one.
    """
    Y = val_samples.target
    N = len(Y)
    blocks = -(-N // max(1, _BLOCK_ENTRIES // math.prod(Y.shape[1:])))
    return [N * i // blocks for i in range(blocks + 1)]


def _validation_weights(policy: PolicyConfig, val_samples: Windows) -> np.ndarray:
    """Per-sample loss weights of the validation targets, one row per validation interval.

    The (intervals, N) rows are filled in the row blocks of
    :func:`validation_loss`, so the temporaries stay a few MB however long
    the split is. A sample's weight reads only its own targets, so each
    row is bitwise equal to the weights of the whole split at once.
    """
    Y = val_samples.target
    intervals = _validation_intervals(policy)
    weights = np.empty((len(intervals), len(Y)))
    edges = _validation_blocks(val_samples)
    for lo, hi in zip(edges, edges[1:]):
        for row, iv in zip(weights, intervals):
            row[lo:hi] = _loss_weights(policy, Y[lo:hi], iv.lo, iv.hi)
    return weights


def validation_loss(
    params: ModelParams,
    policy: PolicyConfig,
    val_samples: Windows,
    weights: np.ndarray | None = None,
) -> float:
    """Mean over the policy's intervals of the loss conditioned on each.

    The per-sample loss is the training objective of the policy
    (:func:`models.sample_losses` on the weights and labels that
    :func:`draw_batch` gives a sample conditioned on that interval). The
    baseline simply averages the unmasked MAE. ``weights`` holds each
    interval's per-sample loss weights as one row of an (intervals, N)
    array; they depend only on the targets, so :func:`train` computes them
    once per call and passes them in. They are computed here when omitted.

    The samples run in the row blocks of :func:`_validation_blocks`, about
    ``_BLOCK_ENTRIES`` target entries each, and each block is
    projected once for all intervals; the weights are computed in the same
    blocks. So the temporaries stay small however long the split is. Each
    interval's per-sample losses fill one row of an (intervals, N) array,
    and each row is averaged over all N samples at once, as unblocked.
    """
    H, Y = val_samples.history, val_samples.target
    N = len(Y)
    if N == 0:
        raise DataError("validation needs at least one sample")
    if weights is None:
        weights = _validation_weights(policy, val_samples)
    intervals = _validation_intervals(policy)
    phi = policy.effective_phi
    losses = np.empty((len(intervals), N))
    edges = _validation_blocks(val_samples)
    for lo, hi in zip(edges, edges[1:]):
        projection = project_histories(params, H[lo:hi])
        Yb = Y[lo:hi]
        for row, iv, weight in zip(losses, intervals, weights):
            reg, prob = forward_cells(projection, [iv])
            bounds = np.broadcast_to([iv.lo, iv.hi], (hi - lo, 2))
            draw = BatchDraw(bounds, weight[lo:hi], _entry_labels(policy, Yb, iv.lo, iv.hi))
            row[lo:hi] = sample_losses(reg[:, 0], prob[:, 0], Yb, draw, phi, start=lo)
    return float(np.mean([row.mean() for row in losses]))


def train(
    policy: PolicyConfig,
    kind: str,
    train_samples: Windows,
    val_samples: Windows,
    seed: int,
    *,
    epochs: int = DEFAULT_EPOCHS,
    batch_size: int = DEFAULT_BATCH,
    patience: int = DEFAULT_PATIENCE,
    hidden: int = 64,
    kernel: int = 25,
) -> tuple[ModelParams, TrainReport, int]:
    """Mini-batch training with per-epoch cosine annealing and early stopping.

    Returns the parameters from the epoch with the lowest validation loss,
    the report, and the number of AdamW updates behind those parameters.
    Fully deterministic for a given seed and configuration. The
    validation loss weights depend only on the targets, so they are
    computed once per call, in the row blocks of :func:`validation_loss`.

    Each epoch walks its permutation in blocks of whole batches, as many
    as fit in about ``_BLOCK_ENTRIES`` history and target entries and at
    least one. A block takes one gather and one :func:`draw_batch` call,
    and each update reads views of its batch's rows. This is bitwise equal
    to one gather and one draw per batch: the draw consumes the RNG as
    per-sample draws in batch order would, nothing else reads that RNG
    within an epoch, each sample's weight and labels read only its own
    targets, and every update's products keep their batch shape. Raises
    :class:`TrainingError` when a batch's loss is not finite, naming the
    epoch and the batch's index within it, and when every loss weight
    drawn in an epoch is 0, since such a run would learn nothing.
    """
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise TrainingError("training and validation splits must be non-empty")
    for name, value in [("epochs", epochs), ("batch_size", batch_size),
                        ("patience", patience)]:
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    _, w, n = train_samples.history.shape
    tau = train_samples.target.shape[1]
    params = init(kind, (w, tau, n), seed, hidden=hidden, kernel=kernel,
                  use_covariate=policy.uses_covariate)
    opt = AdamwState.zeros(params.theta.size)
    loop_rng = np.random.default_rng(seed + _LOOP_SEED_OFFSET)
    phi = policy.effective_phi
    val_weights = _validation_weights(policy, val_samples)
    block_size = batch_size * max(1, _BLOCK_ENTRIES // (batch_size * (w + tau) * n))

    report = TrainReport()
    best_val = math.inf
    t0 = time.perf_counter()
    for epoch in range(epochs):
        lr = cosine_lr(epoch, epochs)
        order = loop_rng.permutation(len(train_samples))
        batch_losses = []
        weight_sum = 0.0
        for block_start in range(0, len(order), block_size):
            block = train_samples[order[block_start : block_start + block_size]]
            block_draw = draw_batch(policy, block.target, loop_rng)
            weight_sum += block_draw.weight.sum()
            for start in range(0, len(block), batch_size):
                rows = slice(start, start + batch_size)
                draw = BatchDraw(*(None if a is None else a[rows] for a in block_draw))
                try:
                    loss, grad = backward(
                        params, block.history[rows], block.target[rows], draw, phi
                    )
                except NumericError as exc:
                    b = (block_start + start) // batch_size
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
    report.wall_clock_seconds = time.perf_counter() - t0
    return ModelParams(params.arch, best_theta), report, best_step


# ---------------------------------------------------------------------------
# checkpoint and report files


def _policy_doc(policy: PolicyConfig) -> dict:
    return {
        "kind": policy.kind,
        "task_interval": (
            [policy.task_interval.lo, policy.task_interval.hi]
            if policy.task_interval
            else None
        ),
        "delta": policy.delta,
        "L": policy.partition.L if policy.partition else None,
        "nu": (
            None
            if policy.nu is None
            else ("inf" if math.isinf(policy.nu.nu) else policy.nu.nu)
        ),
        "phi": policy.phi,
        "weight_decay": policy.weight_decay,
    }


def _policy_from_doc(doc: dict) -> PolicyConfig:
    nu = doc["nu"]
    return PolicyConfig(
        kind=doc["kind"],
        task_interval=(
            Interval(*doc["task_interval"]) if doc["task_interval"] else None
        ),
        delta=doc["delta"],
        partition=DiscretePartition(doc["L"]) if doc["L"] else None,
        nu=None if nu is None else DecaySpec(math.inf if nu == "inf" else float(nu)),
        phi=doc["phi"],
        weight_decay=doc["weight_decay"],
    )


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    steps: int,
    policy: PolicyConfig,
) -> None:
    """Versioned JSON checkpoint of the weights, the update count and the policy.

    ``theta`` is the standard base64 encoding of the flat parameter vector
    as little-endian IEEE-754 float64 bytes, so the weights round-trip
    bit-exactly.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "arch": asdict(params.arch),
        "theta": base64.b64encode(params.theta.astype("<f8", copy=False).tobytes()).decode(),
        "optimizer": {"step": operator.index(steps)},
        "policy": _policy_doc(policy),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[ModelParams, int, PolicyConfig]:
    """Read a checkpoint: the parameters, the AdamW update count and the policy.

    Reads only the current version, whose weights are a base64 string of
    little-endian float64 bytes, and requires every key that
    :func:`save_checkpoint` writes. A file that is not valid JSON, that
    lacks a key or holds one of the wrong type (a list in place of an
    object, say), whose weights are not valid base64, not all finite or not
    as many as the architecture needs raises :class:`FormatError` naming
    the file; a version other than the JSON integer 3, such as a file of
    version 1 or 2, raises :class:`ConfigError` naming the file and the
    version. An older file converts by passing its weights, update count
    and policy to :func:`save_checkpoint`.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        version = doc["version"]
        # a JSON integer only: true and 3.0 compare equal to the version
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version!r} in {path}")
        a = doc["arch"]
        arch = ModelArch(
            kind=a["kind"], w=a["w"], tau=a["tau"], n=a["n"],
            hidden=a["hidden"], kernel=a["kernel"], use_covariate=a["use_covariate"],
        )
        try:
            theta = base64.b64decode(doc["theta"], validate=True)
        except binascii.Error as exc:  # its class name alone reads "Error"
            raise ValueError(f"theta is not valid base64: {exc}") from exc
        # a writable copy in native byte order
        params = ModelParams(arch, np.frombuffer(theta, "<f8").astype(np.float64))
        if not np.isfinite(params.theta).all():
            raise ValueError("theta holds a non-finite weight")
        steps = operator.index(doc["optimizer"]["step"])
        return params, steps, _policy_from_doc(doc["policy"])
    except (AttributeError, KeyError, TypeError, ValueError, DimensionError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {type(exc).__name__}: {exc}") from exc
