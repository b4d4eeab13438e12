import math

import numpy as np
import pytest

from intervalcast import (
    DecaySpec,
    DiscretePartition,
    Interval,
    PolicyConfig,
    draw_batch,
    intersecting,
)
from intervalcast.errors import ConfigError
from intervalcast.intervals import INDICATOR, target_weights
from intervalcast.models import ModelArch, _covariate_rows


def _covariates(*intervals):
    return _covariate_rows(ModelArch("mlp", 4, 2, 1), list(intervals))


def _bounds(policy, count, rng):
    return draw_batch(policy, np.zeros((count, 1, 1)), rng).bounds


def test_interval_validation():
    with pytest.raises(ConfigError):
        Interval(0.5, 0.4)
    with pytest.raises(ConfigError):
        Interval(-0.1, 0.4)
    with pytest.raises(ConfigError):
        Interval(0.5, 1.1)


def test_interval_degenerate_allowed():
    iv = Interval(0.25, 0.25)
    assert np.array_equal(_covariates(iv), [[0.25, 0.25]])


def test_encode_covariate():
    got = _covariates(Interval(0.75, 1.0), Interval(0.0, 1.0))
    assert np.array_equal(got, [[0.75, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------- samplers


def test_uniform_sampler_respects_delta():
    rng = np.random.default_rng(0)
    bounds = _bounds(PolicyConfig("c", delta=0.99), 100, rng)
    assert np.all(bounds[:, 1] - bounds[:, 0] >= 0.99)


def test_uniform_sampler_covers_lengths():
    # delta=0 lengths should populate all of (0, 1]
    rng = np.random.default_rng(1)
    bounds = _bounds(PolicyConfig("c", delta=0.0), 10_000, rng)
    lengths = bounds[:, 1] - bounds[:, 0]
    counts, _ = np.histogram(lengths, bins=10, range=(0.0, 1.0))
    assert counts.min() > 0


def test_uniform_sampler_deterministic():
    a = _bounds(PolicyConfig("c", delta=0.2), 1, np.random.default_rng(42))
    b = _bounds(PolicyConfig("c", delta=0.2), 1, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_uniform_sampler_rejects_bad_delta():
    with pytest.raises(ConfigError, match=r"delta must be in \[0, 1\), got 1.0"):
        PolicyConfig("c", delta=1.0)


def test_discrete_partition_layout():
    cells = DiscretePartition(4).intervals
    assert [(c.lo, c.hi) for c in cells] == [
        (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0),
    ]


@pytest.mark.parametrize("L", [1, 3, 8, 32])
def test_discrete_partition_contiguous(L):
    cells = DiscretePartition(L).intervals
    assert cells[0].lo == 0.0 and cells[-1].hi == 1.0
    for left, right in zip(cells, cells[1:]):
        assert left.hi == right.lo  # exact float equality, no gaps


def test_discrete_sampler_single_cell():
    rng = np.random.default_rng(0)
    bounds = _bounds(PolicyConfig("d", partition=DiscretePartition(1)), 1, rng)
    assert np.array_equal(bounds, [[0.0, 1.0]])


def test_discrete_sampler_frequencies():
    rng = np.random.default_rng(2)
    partition = DiscretePartition(4)
    draws = _bounds(PolicyConfig("d", partition=partition), 10_000, rng)[:, 0]
    freqs = np.bincount((np.array(draws) * 4).astype(int), minlength=4) / 10_000
    sigma = math.sqrt(0.25 * 0.75 / 10_000)
    assert np.abs(freqs - 0.25).max() < 3 * sigma


# ---------------------------------------------------------------- decay weights


def _weight(y, interval, spec):
    """Decay weight of a single target value ``y`` for ``interval``."""
    return float(target_weights(np.full((1, 1, 1), y), interval.lo, interval.hi, spec)[0])


def test_decay_inside_is_one():
    for nu in (0.0, 1.0, 37.0, math.inf):
        assert _weight(0.2, Interval(0.0, 0.25), DecaySpec(nu)) == 1.0


def test_decay_adjacent_midpoint_one_percent():
    w = _weight(0.375, Interval(0.0, 0.25), DecaySpec(37.0))
    assert w == pytest.approx(math.exp(-37 * 0.125))
    assert 0.009 <= w <= 0.011


def test_decay_hard_indicator():
    assert _weight(0.26, Interval(0.0, 0.25), DecaySpec(math.inf)) == 0.0
    # cells are half-open: the boundary value 0.25 belongs to the next cell only
    assert _weight(0.25, Interval(0.0, 0.25), DecaySpec(math.inf)) == 0.0
    assert _weight(0.25, Interval(0.25, 0.5), DecaySpec(math.inf)) == 1.0


def test_decay_monotone_in_nu():
    rng = np.random.default_rng(3)
    for _ in range(500):
        y = rng.uniform(0, 1)
        lo = rng.uniform(0, 1)
        hi = rng.uniform(lo, 1)
        nu1, nu2 = sorted(rng.uniform(0, 60, 2))
        iv = Interval(lo, hi)
        assert _weight(y, iv, DecaySpec(nu1)) >= _weight(y, iv, DecaySpec(nu2))


def test_decay_spec_validation():
    with pytest.raises(ConfigError):
        DecaySpec(-1.0)


def test_target_weight_all_inside():
    target = np.full((1, 3, 2), 0.3)
    assert target_weights(target, 0.25, 0.5, DecaySpec(5.0))[0] == 1.0


def test_target_weight_hard_zero():
    target = np.full((1, 3, 2), 0.3)
    target[0, 1, 1] = 0.6
    assert target_weights(target, 0.25, 0.5, INDICATOR)[0] == 0.0


def test_target_weight_hand_product():
    # two entries at 0.3 and 0.4 against [0, 0.25] with nu=10:
    # excesses are 0.05 and 0.15, so the product is exp(-10*0.2) = exp(-2)
    target = np.array([[[0.3], [0.4]]])
    w = target_weights(target, 0.0, 0.25, DecaySpec(10.0))[0]
    assert w == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_target_weight_matches_indicator_randomized():
    rng = np.random.default_rng(4)
    targets = rng.uniform(0, 1, size=(100_000, 2, 1))
    lo, hi = 0.2, 0.7
    weights = target_weights(targets, lo, hi, INDICATOR)
    expected = ((targets >= lo) & (targets <= hi)).all(axis=(1, 2))
    assert np.array_equal(weights.astype(bool), expected)


# ---------------------------------------------------------------- intersection


def test_intersecting_exact_cell():
    partition = DiscretePartition(4)
    assert intersecting(partition, Interval(0.25, 0.5)) == [Interval(0.25, 0.5)]


def test_intersecting_interior_overlap():
    cells = intersecting(DiscretePartition(4), Interval(0.3, 0.6))
    assert cells == [Interval(0.25, 0.5), Interval(0.5, 0.75)]


def test_intersecting_aligned_endpoints_shrink():
    cells = intersecting(DiscretePartition(8), Interval(0.75, 1.0))
    assert cells == [Interval(0.75, 0.875), Interval(0.875, 1.0)]


def test_intersecting_full_domain():
    for L in (1, 4, 8):
        partition = DiscretePartition(L)
        assert intersecting(partition, Interval(0.0, 1.0)) == list(partition.intervals)


def test_intersecting_never_empty_and_ascending():
    rng = np.random.default_rng(5)
    partition = DiscretePartition(8)
    for _ in range(300):
        lo = rng.uniform(0, 1)
        hi = rng.uniform(lo, 1)
        cells = intersecting(partition, Interval(lo, hi))
        assert cells
        los = [c.lo for c in cells]
        assert los == sorted(los)


def test_intersecting_touching_cell_excluded():
    # the query's aligned lower endpoint pulls inward, so the cell that only
    # touches at 0.5 stays out
    cells = intersecting(DiscretePartition(4), Interval(0.5, 0.6))
    assert cells == [Interval(0.5, 0.75)]


def test_intersecting_unaligned_closed_touch_included():
    # an unaligned query endpoint keeps closed-set semantics against cells
    cells = intersecting(DiscretePartition(4), Interval(0.1, 0.3))
    assert cells == [Interval(0.0, 0.25), Interval(0.25, 0.5)]


def test_partition_validation():
    with pytest.raises(ConfigError):
        DiscretePartition(0)

