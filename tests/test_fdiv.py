"""KLIEP read as a KL f-divergence estimator.

The variational KL objective of Nguyen, Wainwright & Jordan (2010) under the
log-linear ratio r = exp(theta' f) is -E_1[1 + theta' f] + E_0[r].  KLIEP
replaces E_0[r] by log E_0[r], so the two gradients coincide wherever the
class-0 mean of r is exactly 1.  The KL gradient is computed here in closed
form as an oracle for the KLIEP gradient.
"""

import numpy as np
import pytest

from mnar_dre.kliep import ClassTerms, _KliepCore
from mnar_dre.model import Dataset


def _pair(rng, n, mu1=0.5, d=1):
    return (
        Dataset(rng.normal(mu1, 1.0, size=(n, d)), 1),
        Dataset(rng.normal(0.0, 1.0, size=(n, d)), 0),
    )


def _with_intercept(data):
    """Unit-weight class terms of the features (z, 1)."""
    f = np.hstack([data.values, np.ones((data.n, 1))])
    return ClassTerms(f, np.ones(data.n), data.n)


def _kl_variational_gradient(theta, f1, f0):
    """Gradient of -mean_1(1 + theta' f) + mean_0(exp(theta' f))."""
    r0 = np.exp(f0 @ theta)
    return -f1.mean(axis=0) + (r0 @ f0) / f0.shape[0]


class TestObjective:
    def test_kl_gradient_equals_kliep_gradient_when_normalized(self):
        # With an intercept feature set so that the class-0 mean of r is
        # exactly 1, the KL-divergence gradient coincides with the KLIEP
        # gradient (the only difference is log E[r] vs E[r] - const).
        rng = np.random.default_rng(8)
        d1, d0 = _pair(rng, 120, d=1)
        t1, t0 = _with_intercept(d1), _with_intercept(d0)
        theta = np.array([0.6, 0.0])
        # choose the intercept so (1/n0) sum exp(theta' f) = 1
        s = d0.values[:, 0] * theta[0]
        theta[1] = -np.log(np.mean(np.exp(s)))
        kl_grad = _kl_variational_gradient(theta, t1.features, t0.features)
        kliep_grad = _KliepCore(t1, t0).loss_grad_hess(theta)[1]
        assert kl_grad == pytest.approx(kliep_grad, abs=1e-8)
