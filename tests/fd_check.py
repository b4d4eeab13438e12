"""Finite-difference gradient checker for the tests.

Gradients of every model/loss pair are hand-derived; the model tests and
acceptance criterion 5 validate them against central finite differences
via :func:`check_gradient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from intervalcast.errors import DimensionError, NumericError

DEFAULT_FD_STEP = 1e-5
DEFAULT_FD_TOL = 1e-5
_REL_ERR_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    max_relative_error: float
    worst_parameter_index: int
    passed: bool


def check_gradient(
    f: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grad: np.ndarray,
    step: float = DEFAULT_FD_STEP,
    tol: float = DEFAULT_FD_TOL,
) -> GradCheckReport:
    """Compare ``analytic_grad`` against central finite differences of ``f``.

    Per coordinate i the numeric derivative is
    ``(f(p + step*e_i) - f(p - step*e_i)) / (2*step)`` and the relative
    error uses denominator ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(params, dtype=np.float64).ravel()
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != np.asarray(params).shape:
        raise DimensionError(
            f"analytic gradient shape {g.shape} does not match parameter "
            f"shape {np.asarray(params).shape}"
        )
    g = g.ravel()

    max_rel = 0.0
    worst = 0
    for i in range(p.size):
        bumped = p.copy()
        bumped[i] = p[i] + step
        f_plus = float(f(bumped.reshape(np.asarray(params).shape)))
        bumped[i] = p[i] - step
        f_minus = float(f(bumped.reshape(np.asarray(params).shape)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite loss while perturbing parameter {i}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        denom = max(abs(g[i]), abs(numeric), _REL_ERR_FLOOR)
        rel = abs(g[i] - numeric) / denom
        if rel > max_rel:
            max_rel = rel
            worst = i
    return GradCheckReport(max_rel, worst, max_rel <= tol)
