"""Inverse-probability weights for MNAR samples.

The identity behind the weighted estimators: for data where an observation
goes missing with probability phi(z) depending on its true value z,

    E[g(Z)] = E[ 1{X observed} / (1 - phi(X)) * g(X) ],

so reweighting observed points by 1/(1 - phi) and keeping the divisor at the
*total* count n (missing included) restores unbiased plain averages.  A
missing row carries weight 0, so it is simply left out: the callers
(``kliep.class_terms`` and ``np_classify.calibration_scores``) take a
sample's fully observed rows once, from ``Dataset.observed_rows``, pass
those rows alone to ``point_importance_weights``, and keep the divisor at n.
The identity needs phi > 0 wherever a point went missing, which they check
first with ``check_missing_possible``.
"""

from __future__ import annotations

import numpy as np

from .model import MAX_WEIGHT, Dataset, DataError, MissingnessFunction


def point_importance_weights(
    observed: np.ndarray, phi: MissingnessFunction
) -> np.ndarray:
    """Weights 1/(1 - phi(z)) of the fully observed points ``observed``, (m, d).

    For per-coordinate missingness the observation probability factorizes,
    so a point's weight is the product of its coordinate weights, capped at
    ``MAX_WEIGHT``.  Each entry's ``prob`` already clamps phi to at most
    1 - EPS_PHI.
    """
    if phi.joint:
        return 1.0 / (1.0 - phi.point_prob(observed))
    prod = np.ones(observed.shape[0])
    for j in range(phi.dim):
        prod *= 1.0 / (1.0 - phi.coord_prob(j, observed[:, j]))
    return np.minimum(prod, MAX_WEIGHT)


def check_missing_possible(
    data: Dataset, phi: MissingnessFunction, names: list[str] | None = None
) -> None:
    """Refuse, with ``DataError``, missing entries that ``phi`` says never happen.

    A column with missing entries whose entry has ``sup_prob()`` 0 (for a
    joint ``phi`` that never goes missing, every column) would be weighted as
    if nothing were missing.  The error names the class and every such
    column, by its name in ``names`` when given, else by its 0-based index.
    """
    if data.fully_observed:
        return
    if phi.joint:
        never = range(data.dim) if phi.sup_prob() == 0.0 else ()
    else:
        never = [j for j, e in enumerate(phi.entries) if e.sup_prob() == 0.0]
    columns = [j for j in never if np.isnan(data.values[:, j]).any()]
    if columns:
        if names is not None:
            columns = [names[j] for j in columns]
        raise DataError(
            f"class {data.label} has missing entries in columns {columns}, where "
            "its missingness function gives probability 0; give the missingness "
            "that produced them"
        )
