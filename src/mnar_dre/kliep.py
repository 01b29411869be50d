"""KLIEP-family density ratio estimation under the log-linear model.

Three weighting modes share one objective code path:

* fully observed  -- all weights 1, divisors n1/n0 (requires complete data);
* complete case   -- drop rows with missing coordinates, weights 1, divisors
                     equal to the observed counts (the naive estimator that
                     is biased under informative missingness);
* MNAR            -- keep the divisors at n1/n0 and weight each observed row
                     by 1/(1 - phi(x)), restoring consistency.

The fitted objective (negated, so it is minimized) is

    L(theta) = -(1/n1) sum_i w1_i theta'f(x1_i)
               + log( (1/n0) sum_i w0_i exp(theta'f(x0_i)) ),

a convex function of theta; the class-0 term is a weighted log-sum-exp
computed with max-shift stabilization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import logsumexp

from .model import (
    Dataset,
    DataError,
    FeatureMap,
    LogLinearRatioModel,
    MissingnessFunction,
    NumericError,
)
from .optimize import gradient_descent
from .weighting import point_importance_weights

FULLY_OBSERVED = "fully-observed"
COMPLETE_CASE = "complete-case"


@dataclass(frozen=True, eq=False)
class Mnar:
    """MNAR weighting mode carrying the (class-1, class-0) missingness pair."""

    phi1: MissingnessFunction
    phi0: MissingnessFunction


WeightingMode = Union[str, Mnar]


@dataclass(frozen=True, eq=False)
class KliepFitConfig:
    weighting_mode: WeightingMode = FULLY_OBSERVED
    max_iters: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        mode = self.weighting_mode
        if not isinstance(mode, Mnar) and mode not in (FULLY_OBSERVED, COMPLETE_CASE):
            raise ValueError(f"unknown weighting mode {mode!r}")


@dataclass(frozen=True, eq=False)
class ObjectiveValue:
    loss: float
    gradient: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassTerms:
    """Feature rows, weights and divisor of one class under a weighting mode."""

    features: np.ndarray  # (m, d) rows kept
    weights: np.ndarray  # (m,) strictly positive
    divisor: int  # n for fully-observed / MNAR, observed count for CC
    n_total: int


def class_terms(
    data: Dataset, fmap: FeatureMap, mode: WeightingMode, class_index: int
) -> ClassTerms:
    """Resolve one class's rows into (features, weights, divisor)."""
    observed = data.observed_rows()
    n = data.n
    if isinstance(mode, Mnar):
        phi = mode.phi1 if class_index == 1 else mode.phi0
        w = point_importance_weights(data.values, phi)
        keep = w > 0.0
        if not keep.any():
            raise NumericError(
                f"degenerate class-{class_index} weighted sum: no observed rows"
            )
        return ClassTerms(fmap(data.values[keep]), w[keep], n, n)
    if mode == FULLY_OBSERVED:
        if not observed.all():
            raise DataError(
                "fully-observed mode requires complete data; use the MNAR or "
                "complete-case mode on corrupted samples"
            )
        return ClassTerms(fmap(data.values), np.ones(n), n, n)
    if mode == COMPLETE_CASE:
        m = int(observed.sum())
        if m == 0:
            raise NumericError(
                f"degenerate class-{class_index} weighted sum: no complete cases"
            )
        return ClassTerms(fmap(data.values[observed]), np.ones(m), m, n)
    raise ValueError(f"unknown weighting mode {mode!r}")


class _KliepCore:
    """Cached per-fit quantities; evaluates the loss and its exact gradient."""

    def __init__(self, t1: ClassTerms, t0: ClassTerms):
        if not np.any(t1.weights > 0.0):
            raise NumericError("degenerate class-1 weighted term: all weights zero")
        # Class-1 term is linear in theta: only the weighted feature mean enters.
        self.mean1 = (t1.weights @ t1.features) / t1.divisor
        self.f0 = t0.features
        self.logw0 = np.log(t0.weights)
        self.log_div0 = np.log(t0.divisor)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        s = self.f0 @ theta
        a = s + self.logw0
        m = a.max()
        e = np.exp(a - m)
        denom = e.sum()
        log_term = m + np.log(denom) - self.log_div0
        loss = -float(self.mean1 @ theta) + float(log_term)
        grad = -self.mean1 + (e @ self.f0) / denom
        return loss, grad


def sample_objective(
    theta: np.ndarray,
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    mode: WeightingMode = FULLY_OBSERVED,
) -> ObjectiveValue:
    """Negated sample objective and its exact gradient at ``theta``."""
    core = _KliepCore(
        class_terms(class1, fmap, mode, 1), class_terms(class0, fmap, mode, 0)
    )
    loss, grad = core.value_and_grad(np.asarray(theta, dtype=float))
    return ObjectiveValue(loss=loss, gradient=grad)


def _check_class0_variance(t0: ClassTerms) -> None:
    # Theorem-level assumption Var(f(Z^0)) > 0; warn, never fail.
    w = t0.weights / t0.weights.sum()
    mu = w @ t0.features
    centered = t0.features - mu
    cov = (centered * w[:, None]).T @ centered
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() <= 1e-12:
        warnings.warn(
            "class-0 feature second-moment matrix is (near-)degenerate; the "
            "fit may be ill-conditioned",
            RuntimeWarning,
            stacklevel=4,
        )


def _fit_log_linear(
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    config: KliepFitConfig | None,
    make_core: Callable,
) -> LogLinearRatioModel:
    """Fit body shared by the KLIEP and f-divergence estimators.

    ``make_core`` turns the two classes' terms into an object whose
    ``value_and_grad`` is minimized from theta = 0.
    """
    config = config or KliepFitConfig()
    t1 = class_terms(class1, fmap, config.weighting_mode, 1)
    t0 = class_terms(class0, fmap, config.weighting_mode, 0)
    _check_class0_variance(t0)
    core = make_core(t1, t0)
    result = gradient_descent(
        core.value_and_grad,
        np.zeros(fmap.output_dim),
        grad_tol=config.grad_tol,
        max_iters=config.max_iters,
    )
    return LogLinearRatioModel(
        theta=result.theta, feature_map=fmap, converged=result.converged
    )


def fit(
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    config: KliepFitConfig | None = None,
) -> LogLinearRatioModel:
    """Fit the log-linear ratio model by deterministic gradient descent.

    Returns the model with ``converged=False`` when the gradient tolerance was
    not reached within the iteration budget (small samples legitimately put
    the optimum in flat or unbounded regions); the normalizer is left unset.
    """
    return _fit_log_linear(class1, class0, fmap, config, _KliepCore)


def normalizing_constant(
    model: LogLinearRatioModel,
    class0: Dataset,
    phi0: MissingnessFunction | None = None,
) -> float:
    """Estimate N = E[r(Z^0)] as (1/n0) sum_i w_i r(x0_i).

    Weights are 1 on fully observed data (``phi0=None``) and importance
    weights under MNAR.  Attach the value with ``model.with_normalizer``.
    """
    if phi0 is None:
        if not class0.fully_observed:
            raise DataError(
                "normalizing constant without a missingness function requires "
                "fully observed class-0 data"
            )
        w = np.ones(class0.n)
        feats = model.feature_map(class0.values)
    else:
        w = point_importance_weights(class0.values, phi0)
        keep = w > 0.0
        if not keep.any():
            raise NumericError("all class-0 weights are zero")
        w = w[keep]
        feats = model.feature_map(class0.values[keep])
    s = feats @ model.theta
    # exp can overflow for extreme theta; go through log space.
    log_n = logsumexp(s, b=w) - np.log(class0.n)
    return float(np.exp(log_n))
