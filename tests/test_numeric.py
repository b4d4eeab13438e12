import numpy as np
import pytest

from intervalcast import (
    DecaySpec,
    DiscretePartition,
    PolicyConfig,
    SplitSpec,
    WindowConfig,
    chrono_split,
    generate_synthds,
    make_windows,
)
from intervalcast.errors import DimensionError, NumericError
from intervalcast.models import ModelParams, backward, init
from intervalcast.training import draw_batch
from fd_check import check_gradient


def test_check_gradient_quadratic():
    report = check_gradient(lambda p: float(p[0] * p[0]), np.array([3.0]), np.array([6.0]))
    assert report.passed
    assert report.max_relative_error < 1e-8


def test_check_gradient_constant():
    report = check_gradient(lambda p: 7.5, np.array([1.0, -2.0]), np.zeros(2))
    assert report.passed
    assert report.max_relative_error == 0.0


def test_check_gradient_flags_nonfinite():
    with pytest.raises(NumericError):
        check_gradient(lambda p: float("nan"), np.array([1.0]), np.array([0.0]))


def test_check_gradient_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        check_gradient(lambda p: 0.0, np.array([1.0, 2.0]), np.zeros(3))


def test_check_gradient_reports_worst_index():
    # analytic gradient deliberately wrong in coordinate 1 only
    f = lambda p: float(p[0] ** 2 + p[1] ** 2)
    report = check_gradient(f, np.array([1.0, 2.0]), np.array([2.0, 0.0]))
    assert not report.passed
    assert report.worst_parameter_index == 1


def test_masked_mae_gradient_on_synth_batch():
    # the linear forecaster's masked-MAE loss on one real batch, checked
    # against central finite differences at step/tol 1e-5
    series = generate_synthds(0, 0.0)
    samples = make_windows(series, WindowConfig(12, 4))
    train, _, _ = chrono_split(samples, SplitSpec(0.66, 0.17, 0.17))
    batch = train[100:104]
    policy = PolicyConfig("d", partition=DiscretePartition(2))
    H, Y = batch.history, batch.target
    draw = draw_batch(policy, Y, np.random.default_rng(5))
    params = init("linear", (12, 4, 1), 9, kernel=5, use_covariate=True)
    _, grad = backward(params, H, Y, draw, 0.0)
    f = lambda th: backward(ModelParams(params.arch, th), H, Y, draw, 0.0)[0]
    report = check_gradient(f, params.theta, grad, step=1e-5, tol=1e-5)
    assert report.passed
