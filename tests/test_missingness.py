import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from mnar_dre.missingness import (
    QuerySubsample,
    _logistic_nll,
    fit_adjusted_logistic,
    learn_missingness,
    simulate_query,
)
from mnar_dre.model import DataError, Dataset, EPS_PHI, LogisticScalar, Zero
from mnar_dre.optimize import newton


def _logistic_oracle(z, y):
    """Maximum-likelihood (intercept, slope) by scipy BFGS, an independent
    check on the package's Newton fit."""
    X = np.column_stack([np.ones_like(z), z])
    sign = 1.0 - 2.0 * y

    def nll(beta):
        eta = X @ beta
        return np.logaddexp(0.0, sign * eta).sum(), X.T @ (expit(eta) - y)

    res = minimize(nll, np.zeros(2), jac=True, method="BFGS", options={"gtol": 1e-10})
    return res.x


def _subsample(values, labels):
    """Every missing entry queried, so the intercept correction is log 1 = 0."""
    labels = np.asarray(labels, dtype=int)
    n_missing = int(labels.sum())
    return QuerySubsample(
        values=np.asarray(values, dtype=float), labels=labels,
        n_missing=n_missing, n_queried=n_missing,
    )


def _correction(sub):
    """The intercept correction log(m / n_missing) of a subsample."""
    return np.log(sub.n_queried / sub.n_missing)


def _column_with_missing(rng, n=2000, b0=0.5, b1=1.0):
    z = rng.normal(size=n)
    missing = rng.random(n) < expit(b0 + b1 * z)
    x = np.where(missing, np.nan, z)
    return x, z


class TestSimulateQuery:
    def test_zero_budget_keeps_observed_only(self):
        x = np.array([1.0, np.nan, 2.0, np.nan])
        z = np.array([1.0, -5.0, 2.0, -6.0])
        sub = simulate_query(x, z, 0, 0)
        assert list(sub.values) == [1.0, 2.0]
        assert list(sub.labels) == [0, 0]
        assert sub.n_missing == 2 and sub.n_queried == 0

    def test_full_budget_recovers_everything(self):
        x = np.array([1.0, np.nan, 2.0, np.nan])
        z = np.array([1.0, -5.0, 2.0, -6.0])
        sub = simulate_query(x, z, 2, 0)
        # The observed entries, then the queried ones in index order.
        assert list(sub.values) == [1.0, 2.0, -5.0, -6.0]
        assert list(sub.labels) == [0, 0, 1, 1]
        assert sub.n_missing == 2 and sub.n_queried == 2

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        x, z = _column_with_missing(rng)
        a = simulate_query(x, z, 50, 123)
        b = simulate_query(x, z, 50, 123)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_budget_exceeding_missing_count_errors(self):
        x = np.array([1.0, np.nan])
        with pytest.raises(DataError, match="exceeds"):
            simulate_query(x, x, 2, 0)

    def test_plan_validation(self):
        x = np.array([1.0, np.nan])
        with pytest.raises(DataError, match="non-negative"):
            simulate_query(x, x, -1, 0)
        with pytest.raises(DataError, match="non-negative"):
            learn_missingness(Dataset(x, 1), Dataset(np.ones(2), 1), -1, 0)


class TestAdjustedLogistic:
    def test_intercept_correction_identity(self):
        rng = np.random.default_rng(2)
        x, z = _column_with_missing(rng)
        sub = simulate_query(x, z, 100, 7)
        fit = fit_adjusted_logistic(sub)
        raw = newton(_logistic_nll(sub.values, sub.labels.astype(float)), np.zeros(2))
        assert sub.n_queried == 100 and sub.n_missing == int(np.isnan(x).sum())
        assert fit.intercept_corrected == raw.theta[0] - _correction(sub)
        assert fit.slope == raw.theta[1]

    def test_full_query_equals_plain_logistic(self):
        # querying every missing value makes the correction log(1) = 0 and the
        # subsample identical to the complete data
        rng = np.random.default_rng(3)
        x, z = _column_with_missing(rng, n=1500)
        n_missing = int(np.isnan(x).sum())
        sub = simulate_query(x, z, n_missing, 11)
        fit = fit_adjusted_logistic(sub)
        assert _correction(sub) == 0.0
        beta_full = _logistic_oracle(z, np.isnan(x).astype(float))
        assert fit.intercept_corrected == pytest.approx(beta_full[0], abs=1e-6)
        assert fit.slope == pytest.approx(beta_full[1], abs=1e-6)

    def test_slope_never_altered_by_correction(self):
        rng = np.random.default_rng(4)
        x, z = _column_with_missing(rng)
        sub = simulate_query(x, z, 60, 5)
        fit = fit_adjusted_logistic(sub)
        beta_raw = _logistic_oracle(sub.values, sub.labels.astype(float))
        assert fit.slope == pytest.approx(beta_raw[1], abs=1e-6)
        assert fit.intercept_corrected + _correction(sub) == pytest.approx(
            beta_raw[0], abs=1e-6
        )

    def test_monte_carlo_recovery(self):
        # z ~ N(0,1), phi(z) = sigmoid(0.5 + z), n = 10^4, 200 queries:
        # both coefficients within 0.25 in at least 95% of 100 replications
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x, z = _column_with_missing(rng, n=10_000, b0=0.5, b1=1.0)
            sub = simulate_query(x, z, 200, rng)
            fit = fit_adjusted_logistic(sub)
            if abs(fit.intercept_corrected - 0.5) < 0.25 and abs(fit.slope - 1.0) < 0.25:
                hits += 1
        assert hits >= 95

    def test_requires_both_labels(self):
        x = np.array([1.0, 2.0, 3.0])
        sub = simulate_query(x, x, 0, 0)
        with pytest.raises(DataError, match="both"):
            fit_adjusted_logistic(sub)

    def test_separation_flagged_and_capped(self):
        values = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        labels = np.concatenate([np.zeros(20), np.ones(20)])
        fit = fit_adjusted_logistic(_subsample(values, labels))
        assert fit.separated
        assert abs(fit.slope) <= 30.0

    def test_quasi_separation_flagged(self):
        # The label ranges touch at 0 (max z0 = min z1): still no finite optimum.
        values = np.concatenate([np.linspace(-3, 0, 20), np.linspace(0, 3, 20)])
        labels = np.concatenate([np.zeros(20), np.ones(20)])
        fit = fit_adjusted_logistic(_subsample(values, labels))
        assert fit.separated
        # _subsample queries every missing entry: the corrected intercept is
        # the clipped raw one.
        assert abs(fit.slope) <= 30.0 and abs(fit.intercept_corrected) <= 30.0

    def test_steep_overlapping_fit_not_clipped(self):
        # Scaling the covariate by 1e-3 scales the optimal slope by 1e3; the
        # labels still overlap, so the optimum is finite and comes back whole.
        rng = np.random.default_rng(4)
        x, z = _column_with_missing(rng)
        sub = simulate_query(x, z, 60, 5)
        base = fit_adjusted_logistic(sub)
        steep = fit_adjusted_logistic(_subsample(sub.values * 1e-3, sub.labels))
        assert not steep.separated
        assert abs(steep.slope) > 30.0
        assert steep.slope == pytest.approx(base.slope * 1e3, rel=1e-6)
        assert steep.intercept_corrected == pytest.approx(
            base.intercept_corrected + _correction(sub), abs=1e-6
        )

    def test_entry_respects_clamp(self):
        fit_entry = LogisticScalar(a0=0.0, a1=10.0, tau=-1)
        p = fit_entry.prob(np.array([100.0]))
        assert p[0] <= 1.0 - EPS_PHI


class TestLearnMissingness:
    def test_clean_columns_get_zero_entries(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(500, 2))
        x = z.copy()
        x[rng.random(500) < 0.3, 1] = np.nan
        phi = learn_missingness(Dataset(x, 1), Dataset(z, 1), 20, 9)
        assert isinstance(phi.entries[0], Zero)
        assert isinstance(phi.entries[1], LogisticScalar)

    def test_learned_phi_close_to_truth(self):
        rng = np.random.default_rng(7)
        n = 20_000
        z = rng.normal(size=(n, 1))
        missing = rng.random(n) < expit(0.3 + 0.8 * z[:, 0])
        x = z.copy()
        x[missing, 0] = np.nan
        phi = learn_missingness(Dataset(x, 1), Dataset(z, 1), 400, 13)
        entry = phi.entries[0]
        assert entry.a0 == pytest.approx(0.3, abs=0.15)
        assert entry.a1 == pytest.approx(0.8, abs=0.15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            learn_missingness(
                Dataset(np.ones((3, 1)), 1), Dataset(np.ones((4, 1)), 1), 0, 0
            )
