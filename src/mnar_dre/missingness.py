"""Learning a per-coordinate logistic missingness function from queried data.

Observed entries are known to be non-missing; to learn why entries go missing
one queries the true values of a small subset of the missing ones.  The
enriched subsample over-represents the observed class, so a plain logistic
regression of the missing indicator on the value has a biased intercept.
The rare-events correction subtracts log(m / n_missing) from the fitted
intercept -- m queried out of n_missing missing -- which restores consistency;
the slope needs no adjustment.  The logistic coefficients are fit by damped
Newton (``optimize.newton``); separated subsamples, whose likelihood has no
finite maximizer, are detected exactly and their coefficients clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import Dataset, DataError, LogisticScalar, MissingnessFunction, Zero
from .optimize import newton

_COEF_CAP = 30.0


def _check_budget(m_q: int) -> None:
    if m_q < 0:
        raise DataError(f"query budget must be non-negative, got {m_q}")


@dataclass(frozen=True, eq=False)
class QuerySubsample:
    """Entries with known true values, their missing labels, and the counts."""

    values: np.ndarray
    labels: np.ndarray  # 1 where the entry had been missing
    n_missing: int
    n_queried: int


@dataclass(frozen=True, eq=False)
class AdjustedLogisticFit:
    """Logistic fit on the query subsample with the corrected intercept."""

    slope: float
    intercept_corrected: float
    separated: bool = False

    def missingness_entry(self) -> LogisticScalar:
        # phi(z) = sigmoid(b0' + b1 z) = 1/(1 + exp(-(b0' + b1 z))): tau = -1.
        return LogisticScalar(a0=self.intercept_corrected, a1=self.slope, tau=-1)


def simulate_query(
    column: np.ndarray,
    latent: np.ndarray,
    m_q: int,
    rng: np.random.Generator | int,
) -> QuerySubsample:
    """Query the latent values of ``m_q`` missing entries, chosen uniformly
    without replacement.

    The subsample is every observed entry, then the queried missing ones in
    index order, each labelled by whether it had been missing.  Deterministic
    per seed.
    """
    _check_budget(m_q)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    column = np.asarray(column, dtype=float)
    latent = np.asarray(latent, dtype=float)
    if column.shape != latent.shape or column.ndim != 1:
        raise ValueError("column and latent values must be 1-D of equal length")
    missing = np.isnan(column)
    n_missing = int(missing.sum())
    if m_q > n_missing:
        raise DataError(
            f"query budget {m_q} exceeds the {n_missing} missing entries"
        )
    observed = column[~missing]
    queried_idx = rng.choice(np.flatnonzero(missing), size=m_q, replace=False)
    values = np.concatenate([observed, latent[np.sort(queried_idx)]])
    labels = np.concatenate(
        [np.zeros(observed.size, dtype=int), np.ones(m_q, dtype=int)]
    )
    return QuerySubsample(
        values=values, labels=labels, n_missing=n_missing, n_queried=m_q
    )


def _logistic_nll(z: np.ndarray, y: np.ndarray):
    """Summed negative log-likelihood of logit P(y = 1) = b0 + b1 z, returning
    (loss, gradient, Hessian) as ``optimize.newton`` expects.

    The sum, not the mean, is minimized so that the solver's absolute
    gradient tolerance does not loosen as the subsample grows.
    """
    X = np.column_stack([np.ones_like(z), z])
    sign = 1.0 - 2.0 * y  # -log P(y | eta) = softplus(sign * eta)

    def loss_grad_hess(beta: np.ndarray):
        eta = X @ beta
        p = expit(eta)
        loss = float(np.logaddexp(0.0, sign * eta).sum())
        hess = (X * (p * expit(-eta))[:, None]).T @ X
        return loss, X.T @ (p - y), hess

    return loss_grad_hess


def _separated(z: np.ndarray, y: np.ndarray) -> bool:
    """Whether the logistic likelihood has no finite maximizer.

    With one covariate and an intercept that happens exactly when a threshold
    t splits the labels (every z of one label <= t <= every z of the other)
    and z is not constant: the likelihood then keeps rising as the slope
    grows.  Touching ranges (quasi-separation) count as separated.
    """
    z0, z1 = z[y == 0], z[y == 1]
    if z.min() == z.max():
        return False
    return bool(z0.max() <= z1.min() or z1.max() <= z0.min())


def fit_adjusted_logistic(subsample: QuerySubsample) -> AdjustedLogisticFit:
    """Fit the missingness logistic on a query subsample, correcting the intercept.

    The coefficients minimize the summed negative log-likelihood by damped
    Newton (``optimize.newton``).  On separated data, where no finite
    optimum exists, they are clipped to +-30 and the fit is flagged
    ``separated``.
    """
    z = np.asarray(subsample.values, dtype=float)
    y = np.asarray(subsample.labels, dtype=float)
    if y.min() == y.max():
        raise DataError("query subsample must contain both observed and missing labels")
    if subsample.n_missing > 0 and subsample.n_queried < 1:
        raise DataError("at least one query is required when entries are missing")
    beta = newton(_logistic_nll(z, y), np.zeros(2)).theta
    separated = _separated(z, y)
    if separated:
        beta = np.clip(beta, -_COEF_CAP, _COEF_CAP)
    correction = np.log(subsample.n_queried / subsample.n_missing)
    return AdjustedLogisticFit(
        slope=float(beta[1]),
        intercept_corrected=float(beta[0] - correction),
        separated=separated,
    )


def learn_missingness(
    corrupted: Dataset,
    latent: Dataset,
    m_q: int,
    seed: int | np.random.Generator,
) -> MissingnessFunction:
    """Learn a per-coordinate logistic missingness function by querying
    ``m_q`` missing entries of each coordinate.

    Coordinates without missing entries get a Zero entry.  Each coordinate is
    learned from its own column only.
    """
    _check_budget(m_q)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if corrupted.values.shape != latent.values.shape:
        raise DataError(
            "corrupted and latent datasets must have matching shapes, got "
            f"{corrupted.values.shape} and {latent.values.shape}"
        )
    entries = []
    for j in range(corrupted.dim):
        column = corrupted.column(j)
        if not np.isnan(column).any():
            entries.append(Zero())
            continue
        sub = simulate_query(column, latent.column(j), m_q, rng)
        entries.append(fit_adjusted_logistic(sub).missingness_entry())
    return MissingnessFunction.per_coordinate(entries)
