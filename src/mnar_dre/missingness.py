"""Learning a per-coordinate logistic missingness function from queried data.

Observed entries are known to be non-missing; to learn why entries go missing
one queries the true values of a small subset of the missing ones.  The
enriched subsample over-represents the observed class, so a plain logistic
regression of the missing indicator on the value has a biased intercept.
The rare-events correction subtracts log(m / n_missing) from the fitted
intercept -- m queried out of n_missing missing -- which restores consistency;
the slope needs no adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import Dataset, DataError, LogisticScalar, MissingnessFunction, Zero

_COEF_CAP = 30.0


def _check_budget(m_q: int) -> None:
    if m_q < 0:
        raise DataError(f"query budget must be non-negative, got {m_q}")


@dataclass(frozen=True, eq=False)
class QuerySubsample:
    """Indices with known true values, their values, and missing labels."""

    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray  # 1 where the entry had been missing
    n_total: int
    n_missing: int
    n_queried: int


@dataclass(frozen=True, eq=False)
class AdjustedLogisticFit:
    """Logistic fit on the query subsample with the corrected intercept."""

    intercept_raw: float
    slope: float
    intercept_corrected: float
    n_total: int
    n_missing: int
    n_queried: int
    separated: bool = False

    def prob_missing(self, z: np.ndarray) -> np.ndarray:
        return expit(self.intercept_corrected + self.slope * np.asarray(z, dtype=float))

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

    The subsample is all observed indices plus the queried missing ones, each
    labelled by whether it had been missing.  Deterministic per seed.
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
    observed_idx = np.flatnonzero(~missing)
    queried_idx = rng.choice(np.flatnonzero(missing), size=m_q, replace=False)
    queried_idx = np.sort(queried_idx)
    indices = np.concatenate([observed_idx, queried_idx])
    values = np.concatenate([column[observed_idx], latent[queried_idx]])
    labels = np.concatenate(
        [np.zeros(observed_idx.size, dtype=int), np.ones(queried_idx.size, dtype=int)]
    )
    return QuerySubsample(
        indices=indices,
        values=values,
        labels=labels,
        n_total=column.size,
        n_missing=n_missing,
        n_queried=m_q,
    )


def _newton_logistic(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Deterministic Newton iteration for a scalar-covariate logistic model.

    Separated data has no finite optimum; it shows up either as coefficients
    running past the cap or as Newton failing to converge in 100 iterations
    (quadratic convergence makes 100 ample for any finite optimum).
    """
    X = np.column_stack([np.ones_like(z), z])
    beta = np.zeros(2)
    for _ in range(100):
        eta = X @ beta
        p = expit(eta)
        grad = X.T @ (y - p)
        w = p * (1.0 - p)
        hess = (X * w[:, None]).T @ X + 1e-8 * np.eye(2)
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.abs(beta).max() > _COEF_CAP:
            return np.clip(beta, -_COEF_CAP, _COEF_CAP), True
        if np.linalg.norm(step) < 1e-10:
            return beta, False
    return np.clip(beta, -_COEF_CAP, _COEF_CAP), True


def fit_adjusted_logistic(subsample: QuerySubsample) -> AdjustedLogisticFit:
    """Fit the missingness logistic on a query subsample, correcting the intercept."""
    y = np.asarray(subsample.labels, dtype=float)
    if y.min() == y.max():
        raise DataError("query subsample must contain both observed and missing labels")
    if subsample.n_missing > 0 and subsample.n_queried < 1:
        raise DataError("at least one query is required when entries are missing")
    beta, separated = _newton_logistic(np.asarray(subsample.values, dtype=float), y)
    correction = np.log(subsample.n_queried / subsample.n_missing)
    return AdjustedLogisticFit(
        intercept_raw=float(beta[0]),
        slope=float(beta[1]),
        intercept_corrected=float(beta[0] - correction),
        n_total=subsample.n_total,
        n_missing=subsample.n_missing,
        n_queried=subsample.n_queried,
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
        raise DataError("corrupted and latent datasets must have matching shapes")
    entries = []
    for j in range(corrupted.dim):
        column = corrupted.column(j)
        if not np.isnan(column).any():
            entries.append(Zero())
            continue
        sub = simulate_query(column, latent.column(j), m_q, rng)
        entries.append(fit_adjusted_logistic(sub).missingness_entry())
    return MissingnessFunction.per_coordinate(entries)
