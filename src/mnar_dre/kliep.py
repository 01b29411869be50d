"""KLIEP density ratio estimation under the log-linear model.

Three weighting modes resolve each class into rows, weights and a divisor
(``class_terms``), and every fit and normalizer reads them from there.  Each
mode keeps the class's fully observed rows, taken once from
``Dataset.observed_rows``, and differs only in their weights and divisor:

* fully observed  -- weights 1, divisors n1/n0 (requires complete data, so
                     every row is kept);
* complete case   -- weights 1, divisors equal to the observed counts (the
                     naive estimator that is biased under informative
                     missingness);
* MNAR            -- weights 1/(1 - phi(x)) and divisors n1/n0, restoring
                     consistency (M-KLIEP).

The fitted objective (negated, so it is minimized) is

    L(theta) = -(1/n1) sum_i w1_i theta'f(x1_i)
               + log( (1/n0) sum_i w0_i exp(theta'f(x0_i)) ),

a convex function of theta; the class-0 term is a weighted log-sum-exp
computed with max-shift stabilization.  Its Hessian is the covariance of the
class-0 features under the tilted weights w0_i exp(theta'f(x0_i)), so the
fit minimizes L by damped Newton (``optimize.newton``).  The Hessian is one
matrix product of two (n, d) factors, the weighted and the plain centred
features, each built on a flat array of n * d elements (``np.tile`` of the
tilted mean, ``np.repeat`` of the weights) rather than by broadcasting over
n rows of d elements, whose per-row loop overhead dominates at small d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

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
from .optimize import newton
from .weighting import check_missing_possible, point_importance_weights

# The benchmark tracer in benchmarks/tracing.py wraps the solver by this
# module-level name and calls it as (objective, theta0, **kwargs); the fit
# below looks it up here so the wrapper sees every call.
gradient_descent = newton

FULLY_OBSERVED = "fully-observed"
COMPLETE_CASE = "complete-case"


@dataclass(frozen=True, eq=False)
class Mnar:
    """MNAR weighting mode carrying the (class-1, class-0) missingness pair."""

    phi1: MissingnessFunction
    phi0: MissingnessFunction


WeightingMode = Union[str, Mnar]


@dataclass(frozen=True, eq=False)
class ClassTerms:
    """Feature rows, weights and divisor of one class under a weighting mode."""

    features: np.ndarray  # (m, d) rows kept
    weights: np.ndarray  # (m,) strictly positive
    divisor: int  # n for fully-observed / MNAR, observed count for CC


def class_terms(
    data: Dataset, fmap: FeatureMap, mode: WeightingMode, class_index: int
) -> ClassTerms:
    """Resolve one class's rows into (features, weights, divisor).

    Fully observed mode refuses incomplete data with ``DataError``, and MNAR
    mode missing entries that its phi says never happen
    (``check_missing_possible``); a class with no fully observed row raises
    ``NumericError``, and an unknown mode ``ValueError``.
    """
    mnar = isinstance(mode, Mnar)
    if not mnar and mode not in (FULLY_OBSERVED, COMPLETE_CASE):
        raise ValueError(f"unknown weighting mode {mode!r}")
    if mode == FULLY_OBSERVED and not data.fully_observed:
        raise DataError(
            "fully-observed mode requires complete data; use the MNAR or "
            "complete-case mode on corrupted samples"
        )
    rows = np.flatnonzero(data.observed_rows())
    if not rows.size:
        raise NumericError(
            f"degenerate class-{class_index} weighted sum: no observed rows"
        )
    observed = data.values.take(rows, axis=0)
    if mnar:
        phi = mode.phi1 if class_index == 1 else mode.phi0
        check_missing_possible(data, phi)
        weights = point_importance_weights(observed, phi)
    else:
        weights = np.ones(rows.size)
    divisor = rows.size if mode == COMPLETE_CASE else data.n
    return ClassTerms(fmap(observed), weights, divisor)


class _KliepCore:
    """Cached per-fit quantities; evaluates the loss, its exact gradient and
    its exact Hessian."""

    def __init__(self, t1: ClassTerms, t0: ClassTerms):
        if not np.any(t1.weights > 0.0):
            raise NumericError("degenerate class-1 weighted term: all weights zero")
        # Class-1 term is linear in theta: only the weighted feature mean enters.
        self.mean1 = (t1.weights @ t1.features) / t1.divisor
        self.f0 = np.ascontiguousarray(t0.features)
        self.logw0 = np.log(t0.weights)
        self.log_div0 = np.log(t0.divisor)

    def loss_grad_hess(self, theta: np.ndarray):
        # In-place steps keep the (n,) temporaries to one array.
        e = self.f0 @ theta
        e += self.logw0
        m = e.max()
        e -= m
        np.exp(e, out=e)
        denom = e.sum()
        log_term = m + np.log(denom) - self.log_div0
        loss = -float(self.mean1 @ theta) + float(log_term)
        tilted_mean = (e @ self.f0) / denom
        grad = -self.mean1 + tilted_mean
        # Hessian: covariance of f0 under the tilted weights e / denom, as
        # (e * fc).T @ fc with fc = f0 - tilted_mean.  Both (n, d) factors are
        # built on flat arrays of n * d elements: broadcasting over rows of d
        # would run numpy's inner loop n times on d elements each.  The
        # factors hold the same values in the same C order, so the product
        # is the same BLAS call on the same operands.  At d = 1 broadcasting
        # has no rows to loop over and the copies cost a few microseconds
        # more; one path still serves every d.
        e /= denom
        n, d = self.f0.shape
        fc = np.tile(tilted_mean, n)
        np.subtract(self.f0.ravel(), fc, out=fc)
        wfc = np.repeat(e, d)
        wfc *= fc
        hess = wfc.reshape(n, d).T @ fc.reshape(n, d)
        return loss, grad, hess


def fit(
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    mode: WeightingMode = FULLY_OBSERVED,
) -> LogLinearRatioModel:
    """Fit the log-linear ratio model under weighting ``mode`` by damped
    Newton (``optimize.newton``) from theta = 0.

    Returns the model with ``converged=False`` when the gradient norm did not
    reach ``optimize.GRAD_TOL`` (small samples can put the optimum at
    infinity, e.g. a constant class-0 feature); the normalizer is left unset.
    An unknown mode raises ``ValueError``.
    """
    core = _KliepCore(
        class_terms(class1, fmap, mode, 1), class_terms(class0, fmap, mode, 0)
    )
    theta0 = np.zeros(fmap.output_dim)
    start = core.loss_grad_hess(theta0)
    # Theorem-level assumption Var(f(Z^0)) > 0; warn, never fail.  The
    # Hessian at theta = 0 is the weighted covariance of the class-0 features.
    if np.linalg.eigvalsh(start[2]).min() <= 1e-12:
        warnings.warn(
            "class-0 feature second-moment matrix is (near-)degenerate; the "
            "fit may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    result = gradient_descent(core.loss_grad_hess, theta0, start=start)
    return LogLinearRatioModel(
        theta=result.theta, feature_map=fmap, converged=result.converged
    )


def normalizing_constant(
    model: LogLinearRatioModel, class0: Dataset, mode: WeightingMode
) -> float:
    """Estimate N = E[r(Z^0)] as (1/divisor) sum_i w_i r(x0_i) over the
    class-0 rows, weights and divisor of weighting ``mode``.

    Attach the value with ``model.with_normalizer``.  A value that overflows
    to inf or underflows to 0, as after a diverged fit, raises
    ``NumericError``.
    """
    t0 = class_terms(class0, model.feature_map, mode, 0)
    s = t0.features @ model.theta
    # exp can overflow for extreme theta; go through log space.
    log_n = logsumexp(s, b=t0.weights) - np.log(t0.divisor)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_n))
    if not 0.0 < value < math.inf:
        raise NumericError(
            f"normalizing constant exp({log_n:.6g}) is not a finite positive "
            "number; the fit has diverged"
        )
    return value
