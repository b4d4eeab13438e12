"""Interval algebra for the conditioning covariate.

Contains the two interval distributions (continuous with a minimum length,
discrete over an equal-length partition), the one membership rule for
target values, the exponential decay weight that softens the interval
indicator, and the partition-intersection map used by the patching
strategies. The draws themselves are batched in the training module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# How far cell-aligned query endpoints are pulled inward before the closed
# intersection test, so a query does not pick up cells it merely touches.
_BOUNDARY_SHRINK = 1e-9


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

    @property
    def midpoint(self) -> float:
        return (self.hi + self.lo) / 2.0

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


FULL_DOMAIN = Interval(0.0, 1.0)


@dataclass(frozen=True)
class UniformSampler:
    """Uniform distribution over intervals of length at least ``delta``.

    The distribution is factorized: lo ~ U[0, 1-delta], then
    hi ~ U[lo+delta, 1].
    """

    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class DiscretePartition:
    """``L`` equal-length cells ``[i/L, (i+1)/L]`` covering [0, 1]."""

    L: int
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"partition size must be >= 1, got {self.L}")
        if not self.intervals:
            cells = tuple(
                Interval(i / self.L, (i + 1) / self.L) for i in range(self.L)
            )
            object.__setattr__(self, "intervals", cells)
            return
        if len(self.intervals) != self.L:
            raise ConfigError(
                f"partition declares L={self.L} but holds {len(self.intervals)} cells"
            )
        if self.intervals[0].lo != 0.0 or self.intervals[-1].hi != 1.0:
            raise ConfigError("partition cells must cover [0, 1] exactly")
        for left, right in zip(self.intervals, self.intervals[1:]):
            if left.hi != right.lo:
                raise ConfigError(
                    f"partition cells must be contiguous: {left} then {right}"
                )


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
    """Partition cells whose closed intersection with ``query`` is non-empty.

    A query exactly equal to one cell returns just that cell. Otherwise
    query endpoints that coincide with a cell boundary are pulled inward by
    1e-9 first, so the result does not include cells that only touch the
    query at a shared endpoint. Cells come back in ascending order.
    """
    for cell in partition.intervals:
        if cell.lo == query.lo and cell.hi == query.hi:
            return [cell]
    boundaries = {c.lo for c in partition.intervals}
    boundaries.add(partition.intervals[-1].hi)
    lo, hi = query.lo, query.hi
    if lo in boundaries and lo + _BOUNDARY_SHRINK <= hi:
        lo = lo + _BOUNDARY_SHRINK
    if hi in boundaries and hi - _BOUNDARY_SHRINK >= lo:
        hi = hi - _BOUNDARY_SHRINK
    return [c for c in partition.intervals if c.lo <= hi and lo <= c.hi]
