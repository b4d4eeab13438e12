import numpy as np
import pytest

from intervalcast import (
    DecaySpec,
    DiscretePartition,
    PolicyConfig,
    SplitSpec,
    WindowConfig,
    check_gradient,
    chrono_split,
    generate_synthds,
    make_windows,
    matmul,
)
from intervalcast.errors import DimensionError, NumericError
from intervalcast.models import ModelParams, backward, batch_loss, init
from intervalcast.training import draw_batch


def test_matmul_identity():
    out = matmul([[1.0, 0.0], [0.0, 1.0]], [[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(out, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_dot_product():
    assert np.array_equal(matmul([[1.0, 2.0]], [[3.0], [4.0]]), [[11.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    expected = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.abs(matmul(a, b) - expected).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        matmul(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "2x3" in str(err.value) and "4x5" in str(err.value)


def test_matmul_associative_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(-1, 1, (4, 5))
        b = rng.uniform(-1, 1, (5, 6))
        c = rng.uniform(-1, 1, (6, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        rel = np.abs(left - right).max() / max(np.abs(left).max(), 1e-30)
        assert rel < 1e-10


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
    H = np.stack([s.history for s in batch])
    Y = np.stack([s.target for s in batch])
    draw = draw_batch(policy, Y, np.random.default_rng(5))
    params = init("linear", (12, 4, 1), 9, kernel=5, use_covariate=True)
    _, grad = backward(params, H, Y, draw, 0.0)
    f = lambda th: batch_loss(ModelParams(params.arch, th), H, Y, draw, 0.0)
    report = check_gradient(f, params.theta, grad, step=1e-5, tol=1e-5)
    assert report.passed
