import numpy as np
import pytest
from scipy.special import expit

from mnar_dre.missingness import (
    _newton_logistic,
    fit_adjusted_logistic,
    learn_missingness,
    simulate_query,
)
from mnar_dre.model import DataError, Dataset, EPS_PHI, LogisticScalar, Zero


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
        assert list(sub.indices) == [0, 2]
        assert list(sub.labels) == [0, 0]
        assert sub.n_missing == 2 and sub.n_queried == 0

    def test_full_budget_recovers_everything(self):
        x = np.array([1.0, np.nan, 2.0, np.nan])
        z = np.array([1.0, -5.0, 2.0, -6.0])
        sub = simulate_query(x, z, 2, 0)
        assert sorted(sub.indices.tolist()) == [0, 1, 2, 3]
        by_index = dict(zip(sub.indices.tolist(), sub.labels.tolist()))
        assert [by_index[i] for i in range(4)] == [0, 1, 0, 1]
        vals = dict(zip(sub.indices.tolist(), sub.values.tolist()))
        assert vals[1] == -5.0 and vals[3] == -6.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        x, z = _column_with_missing(rng)
        a = simulate_query(x, z, 50, 123)
        b = simulate_query(x, z, 50, 123)
        assert np.array_equal(a.indices, b.indices)

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
        assert fit.intercept_corrected == fit.intercept_raw - np.log(
            fit.n_queried / fit.n_missing
        )

    def test_full_query_equals_plain_logistic(self):
        # querying every missing value makes the correction log(1) = 0 and the
        # subsample identical to the complete data
        rng = np.random.default_rng(3)
        x, z = _column_with_missing(rng, n=1500)
        n_missing = int(np.isnan(x).sum())
        sub = simulate_query(x, z, n_missing, 11)
        fit = fit_adjusted_logistic(sub)
        assert fit.intercept_corrected == fit.intercept_raw
        beta_full, _ = _newton_logistic(z, np.isnan(x).astype(float))
        assert fit.intercept_raw == pytest.approx(beta_full[0], abs=1e-6)
        assert fit.slope == pytest.approx(beta_full[1], abs=1e-6)

    def test_slope_never_altered_by_correction(self):
        rng = np.random.default_rng(4)
        x, z = _column_with_missing(rng)
        sub = simulate_query(x, z, 60, 5)
        fit = fit_adjusted_logistic(sub)
        beta_raw, _ = _newton_logistic(sub.values, sub.labels.astype(float))
        assert fit.slope == beta_raw[1]

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
        from mnar_dre.missingness import QuerySubsample

        sub = QuerySubsample(
            indices=np.arange(40), values=values, labels=labels.astype(int),
            n_total=40, n_missing=20, n_queried=20,
        )
        fit = fit_adjusted_logistic(sub)
        assert fit.separated
        assert abs(fit.slope) <= 30.0

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
