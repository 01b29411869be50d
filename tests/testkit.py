"""Helpers that only the tests use: a callable-backed missingness entry, a
simulation cross-check of the exact population oracle, and the peak memory
of one call."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from mnar_dre.model import EPS_PHI, clamp_missing_prob
from mnar_dre.scenarios import Scenario


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Missingness backed by an arbitrary callable lookup."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "tabulated"

    def prob(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x), dtype=float)
        if out.shape != (x.shape[0],):
            out = np.broadcast_to(out, (x.shape[0],)).astype(float)
        return clamp_missing_prob(out)

    def sup_prob(self) -> float:
        return 1.0 - EPS_PHI  # unknown; conservative


def population_theta_plugin(
    scenario: Scenario,
    n_draws: int = 1_000_000,
    seed: int = 0,
    restarts: int = 3,
) -> np.ndarray:
    """Plug-in variant of ``population_theta``: exact expectations replaced by
    a large simulated sample, so agreement is Monte Carlo limited
    (~n_draws^-1/2).
    """
    rng = np.random.default_rng(seed)
    z1 = scenario.class1.sample(n_draws, rng)
    z0 = scenario.class0.sample(n_draws, rng)
    mean1 = z1.mean(axis=0)

    def value_and_grad(theta):
        s = z0 @ theta
        m = s.max()
        e = np.exp(s - m)
        total = e.sum()
        loss = -theta @ mean1 + m + np.log(total / n_draws)
        grad = -mean1 + (e @ z0) / total
        return float(loss), grad

    best = None
    for k in range(restarts):
        x0 = np.zeros(scenario.dim) if k == 0 else rng.normal(scale=0.5, size=scenario.dim)
        res = minimize(
            value_and_grad, x0, jac=True, method="L-BFGS-B",
            options={"gtol": 1e-10, "maxiter": 10_000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return np.asarray(best.x, dtype=float)


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """``call()``'s result and the peak bytes allocated while it ran.

    tracemalloc sees numpy's array buffers as well as Python objects, and
    counts nothing allocated before the call, so the peak is deterministic.
    """
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
