"""Inverse-probability weights for MNAR samples.

The identity behind the weighted estimators: for data where an observation
goes missing with probability phi(z) depending on its true value z,

    E[g(Z)] = E[ 1{X observed} / (1 - phi(X)) * g(X) ],

so reweighting observed points by 1/(1 - phi) and keeping the divisor at the
*total* count n (missing included) restores unbiased plain averages.  The
estimators take their weights from ``point_importance_weights`` and keep the
divisor at n (see ``kliep.class_terms``).  The observed-row mask comes from
``model.observed_mask``, the same function that builds
``Dataset.observed_rows``.
"""

from __future__ import annotations

import numpy as np

from .model import MAX_WEIGHT, MissingnessFunction, observed_mask


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
    observed = observed_mask(values)
    w = np.zeros(values.shape[0])
    rows = np.flatnonzero(observed)
    if not rows.size:
        return w
    obs = values.take(rows, axis=0)
    if phi.joint:
        w[rows] = 1.0 / (1.0 - phi.point_prob(obs))
    else:
        prod = np.ones(rows.size)
        for j in range(phi.dim):
            prod *= 1.0 / (1.0 - phi.coord_prob(j, obs[:, j]))
        w[rows] = np.minimum(prod, MAX_WEIGHT)
    return w
