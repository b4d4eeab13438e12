"""Inference-time composition of per-cell predictions for an arbitrary interval.

Two strategies over the partition cells that intersect the query: a
confidence-weighted average of the cells' regression outputs, and the single
output of the most confident cell. A cell's scalar confidence is the mean of
its tau x n probability head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfidenceError, UnsupportedQueryError
from .intervals import DiscretePartition, FULL_DOMAIN, Interval, intersecting
from .models import ModelParams, forward_batch
from .training import PolicyConfig

STRATEGY_AVERAGE = "avg"
STRATEGY_MAXCONF = "max"
STRATEGIES = (STRATEGY_AVERAGE, STRATEGY_MAXCONF)

CONFIDENCE_FLOOR = 1e-12


@dataclass(frozen=True)
class PatchRequest:
    """One patched-forecast request over a trained partition."""

    history: np.ndarray
    query: Interval
    partition: DiscretePartition
    strategy: str = STRATEGY_AVERAGE

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise UnsupportedQueryError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )


@dataclass
class PatchTrace:
    """Diagnostic record of one patching call, as computed.

    ``confidences`` is (k,) and ``predictions`` (k, tau, n), one row per
    cell in ``cells``.
    """

    cells: list[Interval]
    confidences: np.ndarray
    predictions: np.ndarray
    final: np.ndarray


def _cell_outputs(
    params: ModelParams, history: np.ndarray, cells: list[Interval]
) -> tuple[np.ndarray, np.ndarray]:
    """Regression outputs (L, tau, n) and scalar confidences (L,) per cell."""
    h = np.asarray(history, dtype=np.float64)
    reg, prob = forward_batch(params, np.repeat(h[None, ...], len(cells), axis=0), cells)
    return reg, prob.mean(axis=(1, 2))


def patch(params: ModelParams, request: PatchRequest) -> tuple[np.ndarray, PatchTrace]:
    """Compose the outputs of the partition cells that intersect the query.

    With ``avg`` the result is the confidence-weighted average of the cells'
    predictions, clamped to their per-entry min/max envelope, which the
    exact weighted mean lies in; the clamp only guards against float
    rounding at the envelope boundary. With ``max`` it is the prediction of
    the single highest-confidence cell; ties go to the lower cell.
    """
    cells = intersecting(request.partition, request.query)
    reg, conf = _cell_outputs(params, request.history, cells)
    if conf.max() <= CONFIDENCE_FLOOR:
        raise DegenerateConfidenceError(
            f"no cell claims the input for query {request.query}: "
            f"all confidences <= {CONFIDENCE_FLOOR}"
        )
    if request.strategy == STRATEGY_AVERAGE:
        weights = conf / conf.sum()
        pred = (weights[:, None, None] * reg).sum(axis=0)
        pred = np.clip(pred, reg.min(axis=0), reg.max(axis=0))
    else:
        pred = reg[int(np.argmax(conf))].copy()  # argmax returns the first (lowest) cell on ties
    return pred, PatchTrace(cells, conf, reg, pred)


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
    """
    if policy.kind == "dstar":
        return patch(params, PatchRequest(history, query, policy.partition, strategy))[0]
    reg, _ = _cell_outputs(params, history, [_served_cell(policy, query)])
    return reg[0]
