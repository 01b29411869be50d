"""Damped Newton method for the package's smooth convex fits.

Three objectives run on it: KLIEP under each weighting mode (``kliep``), the
query-corrected logistic missingness model (``missingness``), and the exact
population objective of a scenario (``scenarios.population_theta``).  Each
is a smooth convex function of d <= 10 parameters with a cheap exact Hessian.
Each step solves ``hess @ step = grad`` by least squares and backtracks from
the full step until the Armijo condition holds.  The loop is plain: fixed
evaluation order, no randomness, so a fit is bit-reproducible for a given
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

GRAD_TOL = 1e-8
MAX_ITERS = 100
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-10
# Near the optimum the true decrease falls below the loss's rounding error,
# and a good Newton step can raise the computed loss.  The line search allows
# a rise of a few ulps of |loss|, and accepts any point that meets GRAD_TOL,
# instead of stalling just above the tolerance.
_SLACK_ULPS = 4.0


@dataclass(frozen=True, eq=False)
class NewtonResult:
    theta: np.ndarray
    loss: float
    grad_norm: float
    converged: bool
    iterations: int


def newton(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    theta0: np.ndarray,
    start: tuple[float, np.ndarray, np.ndarray] | None = None,
) -> NewtonResult:
    """Minimize ``fun``, which returns (loss, gradient, Hessian), from ``theta0``.

    ``start`` is ``fun(theta0)`` when the caller has already evaluated it;
    every further evaluation is then a line-search trial.

    ``converged`` holds iff the final gradient norm is at most ``GRAD_TOL``.
    The loop stops without converging after ``MAX_ITERS`` steps, when the
    step is not a descent direction (a Hessian singular along the gradient,
    as on an objective unbounded below), or when no step above the floor
    passes the line search.  Non-finite candidate losses are rejected.
    """
    theta = np.array(theta0, dtype=float)
    loss, grad, hess = fun(theta) if start is None else start
    if not np.isfinite(loss):
        raise ValueError("objective is non-finite at the initial point")
    iterations = 0
    while iterations < MAX_ITERS and np.linalg.norm(grad) > GRAD_TOL:
        direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        slope = -float(grad @ direction)
        if not slope < 0.0:
            break
        slack = _SLACK_ULPS * np.spacing(abs(loss))
        step = 1.0
        while step >= _MIN_STEP:
            cand = theta - step * direction
            cand_loss, cand_grad, cand_hess = fun(cand)
            if np.isfinite(cand_loss) and (
                cand_loss <= loss + _ARMIJO_C * step * slope + slack
                or np.linalg.norm(cand_grad) <= GRAD_TOL
            ):
                break
            step *= 0.5
        else:
            break
        theta, loss, grad, hess = cand, cand_loss, cand_grad, cand_hess
        iterations += 1
    grad_norm = float(np.linalg.norm(grad))
    return NewtonResult(
        theta=theta,
        loss=float(loss),
        grad_norm=grad_norm,
        converged=grad_norm <= GRAD_TOL,
        iterations=iterations,
    )
