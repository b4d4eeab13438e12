"""Serving: from query intervals to forecasts, per policy.

:func:`forecast_each` is the one serving path. It projects a history or a
stack of histories once (:func:`models.project_histories`, the
interval-free part of the first layer) and serves every query from that
projection, forwarding only the cells that query needs. A policy without
patching forwards the one interval it conditions on. The
patching-augmented policy composes the partition cells that intersect the
query with one of two strategies: a confidence-weighted average of the
cells' regression outputs, or the single output of the most confident
cell. A cell serves a query when the two share a value under the one
membership rule of :func:`intervals.intersecting`. A cell's scalar
confidence is the mean of its tau x n probability head; the confidences
never leave this module. :func:`forecast` serves one query through
:func:`forecast_each`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateConfidenceError, DimensionError, UnsupportedQueryError
from .intervals import FULL_DOMAIN, Interval, intersecting
from .models import ModelParams, Projection, forward_cells, project_histories
from .training import PolicyConfig

STRATEGY_AVERAGE = "avg"
STRATEGY_MAXCONF = "max"
STRATEGIES = (STRATEGY_AVERAGE, STRATEGY_MAXCONF)

CONFIDENCE_FLOOR = 1e-12


def _served_cells(policy: PolicyConfig, query: Interval) -> list[Interval]:
    """The intervals whose outputs serve ``query`` under ``policy``.

    These are the partition cells that intersect the query for the
    patching-augmented policy, the full domain for the baseline, and
    otherwise the query itself, which must be one of the policy's
    :attr:`PolicyConfig.cells` if it has any.
    """
    if policy.kind == "dstar":
        return intersecting(policy.partition, query)
    if policy.kind == "b":
        return [FULL_DOMAIN]
    if policy.cells is not None and query not in policy.cells:
        raise UnsupportedQueryError(
            f"policy {policy.label()} serves only the intervals it trained on, not "
            f"{query}; train the dstar policy for arbitrary intervals"
        )
    return [query]


def _cell_outputs(
    projection: Projection, cells: list[Interval], lead: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Regression outputs (..., k, tau, n) and scalar confidences (..., k) per cell.

    ``projection`` holds the projected histories, and ``lead`` is the shape
    they were given in: () for one history, (B,) for a stack. Both results
    lead with it. The k cells are forwarded in one pass.
    """
    reg, prob = forward_cells(projection, cells)
    arch = projection.arch
    # the mean of each probability head; sum / size skips np.mean's per-call overhead
    conf = prob.sum(axis=(2, 3)) / (arch.tau * arch.n)
    return reg.reshape(lead + reg.shape[1:]), conf.reshape(lead + (len(cells),))


def _compose(reg: np.ndarray, conf: np.ndarray, query: Interval, strategy: str) -> np.ndarray:
    """One forecast from the outputs of the cells that serve ``query``.

    ``reg`` is (..., k, tau, n) and ``conf`` (..., k). The ``avg`` mean is
    clamped to the cells' per-entry envelope, which guards only against
    float rounding; ``max`` breaks ties toward the lower cell.
    """
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


def forecast_each(
    params: ModelParams,
    policy: PolicyConfig,
    history: np.ndarray,
    queries: Sequence[Interval],
    strategy: str = STRATEGY_AVERAGE,
) -> list[np.ndarray]:
    """Policy-aware dispatch from query intervals to forecasts, one per query.

    The baseline ignores the query; the task-specific policy serves only its
    training interval; the continuous policy conditions directly on the
    query; the discretized policy serves exact partition cells only; the
    patching-augmented policy composes cells with the requested strategy.
    ``history`` is one (w, n) history, giving (tau, n) forecasts, or a
    (B, w, n) stack, giving (B, tau, n) forecasts.

    The history or stack is projected once for all queries, and each
    query's cells are forwarded in a pass of their own: one pass over the
    union of all queries' cells would be slower, through its larger
    temporaries. Forecast j is bitwise equal to :func:`forecast` of query j
    alone, and on a stack, forecast b of it equals serving history b alone
    up to float rounding. Every query is checked before any is served. An
    unknown strategy raises :class:`UnsupportedQueryError` for every
    policy, though only the patching-augmented one reads it.
    """
    if strategy not in STRATEGIES:
        raise UnsupportedQueryError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    served = [_served_cells(policy, query) for query in queries]
    h = np.asarray(history, dtype=np.float64)
    if h.ndim not in (2, 3):
        raise DimensionError(f"history must be (w, n) or (B, w, n), got shape {h.shape}")
    projection = project_histories(params, h.reshape((-1,) + h.shape[-2:]))
    forecasts = []
    for query, cells in zip(queries, served):
        reg, conf = _cell_outputs(projection, cells, h.shape[:-2])
        if policy.kind == "dstar":
            forecasts.append(_compose(reg, conf, query, strategy))
        else:
            forecasts.append(reg[..., 0, :, :])
    return forecasts


def forecast(
    params: ModelParams,
    policy: PolicyConfig,
    history: np.ndarray,
    query: Interval,
    strategy: str = STRATEGY_AVERAGE,
) -> np.ndarray:
    """The forecast of one query: :func:`forecast_each` of ``[query]``."""
    return forecast_each(params, policy, history, [query], strategy)[0]

