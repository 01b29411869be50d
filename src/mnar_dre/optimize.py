"""Deterministic full-batch gradient descent with Armijo backtracking.

Shared by the KLIEP and f-divergence fits (through ``kliep``); missingness
learning runs its own Newton loop.  The loop is intentionally plain:
fixed evaluation order, no randomness, so a fit is bit-reproducible for a
given objective and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_MIN_STEP = 1e-20


@dataclass(frozen=True, eq=False)
class GdResult:
    theta: np.ndarray
    loss: float
    grad_norm: float
    converged: bool
    iterations: int


def gradient_descent(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    *,
    grad_tol: float = 1e-8,
    max_iters: int = 10_000,
    init_step: float = 1.0,
    armijo_c: float = 1e-4,
    shrink: float = 0.5,
) -> GdResult:
    """Minimize a smooth convex objective; returns the best iterate found.

    The line search restarts from ``init_step`` each iteration and shrinks
    until the Armijo condition holds; non-finite candidate values count as
    rejections.  If no acceptable step exists above the step floor the loop
    stops early with ``converged=False``.
    """
    theta = np.array(theta0, dtype=float)
    loss, grad = value_and_grad(theta)
    if not np.isfinite(loss):
        raise ValueError("objective is non-finite at the initial point")
    best_theta, best_loss = theta.copy(), loss
    converged = False
    iterations = 0
    stalls = 0
    while iterations < max_iters:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol:
            converged = True
            break
        step = init_step
        slope = -(gnorm * gnorm)  # directional derivative along -grad
        accepted = False
        prev_loss = loss
        while step >= _MIN_STEP:
            cand = theta - step * grad
            cand_loss, cand_grad = value_and_grad(cand)
            if np.isfinite(cand_loss) and cand_loss <= loss + armijo_c * step * slope:
                theta, loss, grad = cand, cand_loss, cand_grad
                accepted = True
                break
            step *= shrink
        if not accepted:
            break  # at numerical precision; report best iterate
        iterations += 1
        if loss < best_loss:
            best_theta, best_loss = theta.copy(), loss
        # Near the optimum the Armijo threshold can round to the current loss
        # and accept zero-progress steps; bail out once decrease is below
        # float resolution several times in a row.
        stalls = stalls + 1 if loss >= prev_loss else 0
        if stalls >= 3:
            break
    if float(np.linalg.norm(grad)) <= grad_tol:
        converged = True
    if loss <= best_loss:
        best_theta, best_loss = theta, loss
    return GdResult(
        theta=np.asarray(best_theta, dtype=float),
        loss=float(best_loss),
        grad_norm=float(np.linalg.norm(grad)),
        converged=converged,
        iterations=iterations,
    )
