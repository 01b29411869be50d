"""Helpers that only the tests use: a callable-backed missingness entry, a
simulation cross-check of the exact population oracle, a per-row broadcast
oracle of the objectives' Hessians, the peak memory of one call, one metric
over replication records, and a power replication that holds its whole test
sets."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from mnar_dre.experiments import Replication, _fit_model, _rep_rng
from mnar_dre.model import EPS_PHI, Dataset, DataError, NumericError, clamp_missing_prob
from mnar_dre.np_classify import build_np_classifier, classify
from mnar_dre.scenarios import Scenario, generate


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


def broadcast_hessian(x: np.ndarray, w: np.ndarray, center=None) -> np.ndarray:
    """``(fc * w[:, None]).T @ fc`` with ``fc = x - center`` (``x`` itself
    without a center): the weighted second-moment matrix built by
    broadcasting over the rows of ``x``."""
    fc = x if center is None else x - center
    return (fc * w[:, None]).T @ fc


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


def rep_metric(reps: list[Replication], name: str) -> np.ndarray:
    """Metric ``name`` of every replication record, NaN for a failed one."""
    return np.array([r.values[name] if r.failure is None else math.nan for r in reps])


def power_rep_materialized(payload) -> dict[str, Replication]:
    """``experiments._power_rep`` with its test sets held whole: both are
    drawn after the calibration sample, and every estimator is fitted, with
    its queries from the replication's query stream, and then labels them
    whole, so power and Type I error are label means."""
    cfg, scenario, n, rep = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    calib_n = n if cfg.calibration_n is None else cfg.calibration_n
    calib_values = scenario.class0.sample(calib_n, rng)
    if cfg.corrupt_class == 0:
        calib_values = draw.phi0.corrupt(calib_values, rng)
    calibration = Dataset(calib_values, 0)
    test1 = scenario.class1.sample(cfg.n_test, rng)
    test0 = scenario.class0.sample(cfg.n_type1, rng)
    out = {}
    for name in cfg.estimators:
        try:
            model = scenario if name == "true-ratio" else _fit_model(
                name, draw, cfg.queries, _rep_rng(cfg.seed, rep, 1)
            )
            clf = build_np_classifier(
                model,
                calibration,
                cfg.alpha,
                cfg.delta,
                phi0=draw.phi0,
                rule=cfg.threshold_rule,
            )
            out[name] = Replication({
                "power": float(classify(clf, test1).mean()),
                "type1": float(classify(clf, test0).mean()),
                "degenerate": float(clf.provenance.degenerate),
            })
        except (NumericError, DataError) as exc:
            out[name] = Replication({}, type(exc).__name__)
    return out
