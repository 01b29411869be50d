"""Variational f-divergence density ratio estimation (KL and JS cases).

The population objective maximized over ratio models r is

    E[f'(r(Z^1))] - E[f*(f'(r(Z^0)))],

whose unconstrained optimum over all positive functions is the true ratio.
Under the log-linear model with s = theta'f(z) the compositions simplify
exactly, which removes every f* domain hazard:

* KL  (f(t) = t log t):          f'(r) = 1 + s,            f*(f'(r)) = e^s
* JS  (f(t) = t log t - (1+t)log((1+t)/2)):
                                 f'(r) = log2 + s - softplus(s)
                                 f*(f'(r)) = softplus(s) - log2

with softplus(s) = log(1 + e^s).  The estimators work only with these
composed forms, so a divergence is chosen by its name ``kind``, "kl" or
"js".  Both empirical terms take the same inverse-probability weights as the
KLIEP objective under MNAR data, and the fit shares its body (and its damped
Newton solver) with ``kliep.fit``.  Both objectives have closed-form
Hessians: the e^s-weighted second moment of the class-0 features for KL, and
the sigma(s) sigma(-s)-weighted second moments of both classes for JS.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .kliep import (
    FULLY_OBSERVED,
    ClassTerms,
    ObjectiveValue,
    WeightingMode,
    _fit_log_linear,
    class_terms,
)
from .model import Dataset, FeatureMap, LogLinearRatioModel

_LOG2 = float(np.log(2.0))


class _FdivCore:
    """Weighted empirical f-divergence objective in log-ratio space."""

    def __init__(self, t1: ClassTerms, t0: ClassTerms, kind: str):
        if kind not in ("kl", "js"):
            raise ValueError(f"unknown divergence {kind!r} (choose 'kl' or 'js')")
        self.kind = kind
        self.f1, self.w1, self.div1 = t1.features, t1.weights, t1.divisor
        self.f0, self.w0, self.div0 = t0.features, t0.weights, t0.divisor

    def loss_grad_hess(self, theta: np.ndarray):
        s1 = self.f1 @ theta
        s0 = self.f0 @ theta
        if self.kind == "kl":
            # f'(r) < log 2 is automatic for JS only; for KL the conjugate
            # term e^s can overflow -- let inf propagate, the line search
            # rejects non-finite candidates.
            term1 = self.w1 @ (1.0 + s1) / self.div1
            with np.errstate(over="ignore", invalid="ignore"):
                c0 = self.w0 * np.exp(s0) / self.div0
                term0 = c0.sum()
                grad = -(self.w1 @ self.f1) / self.div1 + c0 @ self.f0
                hess = (self.f0 * c0[:, None]).T @ self.f0
        else:
            sp1 = np.logaddexp(0.0, s1)  # softplus
            sp0 = np.logaddexp(0.0, s0)
            fprime1 = _LOG2 + s1 - sp1
            assert np.all(fprime1 < _LOG2 + 1e-12)  # f'(r) < log 2 always
            term1 = self.w1 @ fprime1 / self.div1
            term0 = self.w0 @ (sp0 - _LOG2) / self.div0
            q1, p0 = expit(-s1), expit(s0)
            grad = -((self.w1 * q1) @ self.f1) / self.div1 + (
                (self.w0 * p0) @ self.f0
            ) / self.div0
            c1 = self.w1 * q1 * expit(s1) / self.div1
            c0 = self.w0 * p0 * expit(-s0) / self.div0
            hess = (self.f1 * c1[:, None]).T @ self.f1 + (
                self.f0 * c0[:, None]
            ).T @ self.f0
        return float(term0 - term1), grad, hess


def fdiv_objective(
    theta: np.ndarray,
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    kind: str,
    mode: WeightingMode = FULLY_OBSERVED,
) -> ObjectiveValue:
    """Negated weighted f-divergence objective (``kind`` "kl" or "js") and its
    exact gradient."""
    core = _FdivCore(
        class_terms(class1, fmap, mode, 1), class_terms(class0, fmap, mode, 0), kind
    )
    loss, grad, _ = core.loss_grad_hess(np.asarray(theta, dtype=float))
    return ObjectiveValue(loss=loss, gradient=grad)


def fdiv_fit(
    class1: Dataset,
    class0: Dataset,
    fmap: FeatureMap,
    kind: str,
    mode: WeightingMode = FULLY_OBSERVED,
) -> LogLinearRatioModel:
    """Fit the log-linear model under weighting ``mode`` by maximizing the
    chosen f-divergence bound."""
    return _fit_log_linear(
        class1, class0, fmap, mode, lambda t1, t0: _FdivCore(t1, t0, kind)
    )
