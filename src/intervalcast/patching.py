"""Inference-time composition of per-cell predictions for an arbitrary interval.

Two strategies over the partition cells that intersect the query: a
confidence-weighted average of the cells' regression outputs, and the single
output of the most confident cell. A cell's scalar confidence is the mean of
its tau x n probability head; the confidences live only inside
:func:`patch`, which returns the composed forecast alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConfidenceError, DimensionError, UnsupportedQueryError
from .intervals import DiscretePartition, FULL_DOMAIN, Interval, intersecting
from .models import ModelParams, forward_cells, project_histories
from .training import PolicyConfig

STRATEGY_AVERAGE = "avg"
STRATEGY_MAXCONF = "max"
STRATEGIES = (STRATEGY_AVERAGE, STRATEGY_MAXCONF)

CONFIDENCE_FLOOR = 1e-12


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise UnsupportedQueryError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _cell_outputs(
    params: ModelParams, history: np.ndarray, cells: list[Interval]
) -> tuple[np.ndarray, np.ndarray]:
    """Regression outputs (..., k, tau, n) and scalar confidences (..., k) per cell.

    ``history`` is one (w, n) history or a (B, w, n) stack; the leading
    axis of both results follows it. Each history is projected once for
    all k cells.
    """
    h = np.asarray(history, dtype=np.float64)
    if h.ndim not in (2, 3):
        raise DimensionError(f"history must be (w, n) or (B, w, n), got shape {h.shape}")
    lead = h.shape[:-2]
    reg, prob = forward_cells(project_histories(params, h.reshape((-1,) + h.shape[-2:])), cells)
    # the mean of each probability head; sum / size skips np.mean's per-call overhead
    conf = prob.sum(axis=(2, 3)) / (params.arch.tau * params.arch.n)
    return reg.reshape(lead + reg.shape[1:]), conf.reshape(lead + (len(cells),))


def patch(
    params: ModelParams,
    history: np.ndarray,
    query: Interval,
    partition: DiscretePartition,
    strategy: str = STRATEGY_AVERAGE,
) -> np.ndarray:
    """Compose the outputs of the partition cells that intersect the query.

    With ``avg`` the result is the confidence-weighted average of the cells'
    predictions, clamped to their per-entry min/max envelope, which the
    exact weighted mean lies in; the clamp only guards against float
    rounding at the envelope boundary. With ``max`` it is the prediction of
    the single highest-confidence cell; ties go to the lower cell. A
    (B, w, n) stack of histories is served in one pass and gives (B, tau, n)
    forecasts, each equal to patching its history alone up to float
    rounding. An unknown strategy raises :class:`UnsupportedQueryError`.
    """
    _check_strategy(strategy)
    cells = intersecting(partition, query)
    reg, conf = _cell_outputs(params, history, cells)
    unclaimed = conf.max(axis=-1) <= CONFIDENCE_FLOOR
    if unclaimed.any():
        which = "the input" if conf.ndim == 1 else (
            f"history {np.flatnonzero(unclaimed)[0]} of the stack"
        )
        raise DegenerateConfidenceError(
            f"no cell claims {which} for query {query}: "
            f"all confidences <= {CONFIDENCE_FLOOR}"
        )
    if strategy == STRATEGY_AVERAGE:
        weights = conf / conf.sum(axis=-1, keepdims=True)
        pred = (weights[..., None, None] * reg).sum(axis=-3)
        # np.clip, without its per-call overhead
        pred = np.minimum(np.maximum(pred, reg.min(axis=-3)), reg.max(axis=-3))
    else:
        # argmax returns the first (lowest) cell on ties
        rows = reg.reshape((-1,) + reg.shape[-3:])
        best = rows[np.arange(len(rows)), conf.argmax(axis=-1).reshape(-1)]
        pred = best.reshape(unclaimed.shape + reg.shape[-2:])
    return pred


def _served_cell(policy: PolicyConfig, query: Interval) -> Interval:
    """The one interval a policy without patching conditions on to serve ``query``."""
    if policy.kind == "b":
        return FULL_DOMAIN
    if policy.kind == "e2e" and query != policy.task_interval:
        raise UnsupportedQueryError(
            f"task-specific model trained for {policy.task_interval} "
            f"cannot serve query {query}"
        )
    if policy.kind == "d" and query not in policy.partition.intervals:
        raise UnsupportedQueryError(
            f"query {query} is not a training cell of the L={policy.partition.L} "
            f"partition; train the dstar policy for arbitrary intervals"
        )
    return query


def forecast(
    params: ModelParams,
    policy: PolicyConfig,
    history: np.ndarray,
    query: Interval,
    strategy: str = STRATEGY_AVERAGE,
) -> np.ndarray:
    """Policy-aware dispatch from a query interval to a tau x n forecast.

    The baseline ignores the query; the task-specific policy serves only its
    training interval; the continuous policy conditions directly on the
    query; the discretized policy serves exact partition cells only; the
    patching-augmented policy composes cells with the requested strategy.
    ``history`` is one (w, n) history, giving a (tau, n) forecast, or a
    (B, w, n) stack, giving (B, tau, n) forecasts from one pass. An unknown
    strategy raises :class:`UnsupportedQueryError` for every policy, though
    only the patching-augmented one reads it.
    """
    _check_strategy(strategy)
    if policy.kind == "dstar":
        return patch(params, history, query, policy.partition, strategy)
    reg, _ = _cell_outputs(params, history, [_served_cell(policy, query)])
    return reg[..., 0, :, :]
