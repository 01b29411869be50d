"""Inverse-probability weights for MNAR samples.

The identity behind the weighted estimators: for data where an observation
goes missing with probability phi(z) depending on its true value z,

    E[g(Z)] = E[ 1{X observed} / (1 - phi(X)) * g(X) ],

so reweighting observed points by 1/(1 - phi) and keeping the divisor at the
*total* count n (missing included) restores unbiased plain averages.  The
estimators take their weights from ``point_importance_weights`` and keep the
divisor at n (see ``kliep.class_terms``).
"""

from __future__ import annotations

import numpy as np

from .model import MAX_WEIGHT, MissingnessFunction


def point_importance_weights(
    values: np.ndarray, phi: MissingnessFunction
) -> np.ndarray:
    """Per-point weights under whole-point missingness.

    Rows with any missing coordinate get weight 0; fully observed rows get
    1/(1 - phi(z)).  For per-coordinate missingness the observation
    probability factorizes, so the weight of a fully observed row is the
    product of its coordinate weights, capped at ``MAX_WEIGHT``.  Each entry's
    ``prob`` already clamps phi to at most 1 - EPS_PHI.
    """
    values = np.asarray(values, dtype=float)
    observed = ~np.isnan(values).any(axis=1)
    w = np.zeros(values.shape[0])
    if not observed.any():
        return w
    obs = values[observed]
    if phi.joint:
        w[observed] = 1.0 / (1.0 - phi.point_prob(obs))
    else:
        prod = np.ones(obs.shape[0])
        for j in range(phi.dim):
            prod *= 1.0 / (1.0 - phi.coord_prob(j, obs[:, j]))
        w[observed] = np.minimum(prod, MAX_WEIGHT)
    return w
