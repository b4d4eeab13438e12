"""Interval algebra for the conditioning covariate.

Contains the interval itself, the equal-length partition of [0, 1], the one
membership rule for values, the exponential decay weight that softens the
interval indicator, and the map from a query to the partition cells that
serve it, which applies the same membership rule. The interval draws of the
training policies are batched in the training module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Interval:
    """A sub-range ``[lo, hi]`` of the normalized value domain [0, 1].

    Which target values lie inside it is decided by :func:`entries_inside`.
    """

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ConfigError(
                f"invalid interval [{self.lo}, {self.hi}]: need 0 <= lo <= hi <= 1"
            )

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


FULL_DOMAIN = Interval(0.0, 1.0)


@dataclass(frozen=True)
class DiscretePartition:
    """``L`` equal-length cells ``[i/L, (i+1)/L]`` covering [0, 1]."""

    L: int
    intervals: tuple[Interval, ...] = field(init=False)

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"partition size must be >= 1, got {self.L}")
        cells = tuple(Interval(i / self.L, (i + 1) / self.L) for i in range(self.L))
        object.__setattr__(self, "intervals", cells)


@dataclass(frozen=True)
class DecaySpec:
    """Decay rate ``nu`` in [0, inf]; infinity means hard indicator behavior."""

    nu: float

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        if not (self.nu >= 0.0):
            raise ConfigError(f"decay rate must be >= 0, got {self.nu}")


INDICATOR = DecaySpec(math.inf)


def entries_inside(targets: np.ndarray, lo, hi) -> np.ndarray:
    """Per-entry membership of target values in an interval, as booleans.

    The interval is half-open, ``lo <= y < hi``, except that one ending at
    the domain maximum 1 is closed, so the cells of a partition hold every
    value in [0, 1] exactly once. Training weights and labels, validation
    and evaluation all use this rule. ``lo`` and ``hi`` are floats, or
    arrays that broadcast against ``targets`` (shape (B, 1, 1) for one
    interval per sample).
    """
    # no float lies between 1 and nextafter(1, 2), so y < upper is y <= 1 there
    upper = np.where(hi >= 1.0, np.nextafter(hi, 2.0), hi)
    return (targets >= lo) & (targets < upper)


def target_weights(targets: np.ndarray, lo, hi, spec: DecaySpec) -> np.ndarray:
    """Per-sample product of decay weights over all target entries.

    ``targets`` has shape (B, tau, n); ``lo`` and ``hi`` are as in
    :func:`entries_inside`. The result has shape (B,). With nu=inf this is
    the exact indicator of every entry lying inside the interval, by the
    rule of :func:`entries_inside`.
    """
    t = np.asarray(targets, dtype=np.float64)
    if math.isinf(spec.nu):
        return entries_inside(t, lo, hi).all(axis=(1, 2)).astype(np.float64)
    midpoint = (hi + lo) / 2.0
    half_width = (hi - lo) / 2.0
    excess = np.maximum(0.0, np.abs(t - midpoint) - half_width)
    return np.exp(-spec.nu * excess).prod(axis=(1, 2))


def intersecting(partition: DiscretePartition, query: Interval) -> list[Interval]:
    """Partition cells that share a value with ``query`` under :func:`entries_inside`.

    By that rule a cell ``[l, h)`` and a query ``[a, b)`` share a value when
    ``l < b and a < h``, so a cell that only touches the query at an
    endpoint is not returned. A point query ``[a, a]`` is served by the one
    cell that holds ``a``. Cells come back in ascending order.
    """
    lo, hi = query.lo, query.hi
    if lo == hi:
        return [c for c in partition.intervals if entries_inside(lo, c.lo, c.hi)]
    return [c for c in partition.intervals if c.lo < hi and lo < c.hi]
