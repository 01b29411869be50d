import itertools

import numpy as np
import pytest

from mnar_dre.kliep import FULLY_OBSERVED, Mnar, class_terms
from mnar_dre.model import (
    ConstantProb,
    Dataset,
    DataError,
    FeatureMap,
    HalfspaceIndicator,
    LogLinearRatioModel,
    MAX_WEIGHT,
    MissingnessFunction,
    Zero,
)
from mnar_dre.np_classify import calibration_scores
from mnar_dre.weighting import check_missing_possible, point_importance_weights

from testkit import Tabulated


def _coords(*entries):
    return MissingnessFunction.per_coordinate(list(entries))


def _terms(values, phi):
    """The weighted class term the estimators build under MNAR weighting."""
    data = Dataset(np.asarray(values, dtype=float), 1)
    return class_terms(data, FeatureMap.identity(data.dim), Mnar(phi, phi), 1)


def _weighted_mean(values, phi):
    """The estimators' (1/n) sum_i w_i x_i, with n counting missing rows."""
    t = _terms(values, phi)
    out = (t.weights @ t.features) / t.divisor
    return float(out[0]) if out.shape == (1,) else out


class TestImportanceWeight:
    def test_missing_is_zero(self):
        # any missing coordinate drops the whole row: it weighs 0 among the
        # calibration weights and is left out of the class terms, while the
        # divisor still counts it.  Coordinate 1 goes missing only above
        # 1.5, so the observed row weighs 2 * 1.
        values = np.array([[np.nan, 1.0], [2.0, np.nan], [1.0, 1.0]])
        phi = _coords(ConstantProb(0.5), HalfspaceIndicator(np.array([1.0]), 1.5, 0.5))
        first = LogLinearRatioModel(np.array([1.0, 0.0]), FeatureMap.identity(2))
        _, w = calibration_scores(first, Dataset(values, 0), phi)
        assert w.tolist() == [0.0, 0.0, 2.0]
        t = _terms(values, phi)
        assert t.features.tolist() == [[1.0, 1.0]]
        assert t.weights.tolist() == [2.0] and t.divisor == 3

    def test_no_missingness_is_one(self):
        w = point_importance_weights(np.array([[3.0]]), _coords(Zero()))
        assert w.tolist() == [1.0]

    def test_half_missingness_is_two(self):
        w = point_importance_weights(np.array([[3.0]]), _coords(ConstantProb(0.5)))
        assert w.tolist() == [2.0]
        joint = MissingnessFunction.whole_point(ConstantProb(0.5))
        assert point_importance_weights(np.array([[3.0, -1.0]]), joint).tolist() == [2.0]

    def test_vectorized_matches_scalar(self):
        entry = Tabulated(fn=lambda x: np.clip(np.abs(x) / 4.0, 0, 0.9))
        col = np.array([[1.0], [-2.0]])
        w = point_importance_weights(col, _coords(entry))
        assert w[0] == pytest.approx(1.0 / (1.0 - 0.25))
        assert w[1] == pytest.approx(1.0 / (1.0 - 0.5))
        # per-coordinate missingness: a row's weight is the product of its
        # coordinate weights
        pair = point_importance_weights(
            np.array([[1.0, -2.0]]), _coords(entry, ConstantProb(0.2))
        )
        assert pair[0] == pytest.approx((1.0 / 0.75) * (1.0 / 0.8))

    def test_weight_cap(self):
        # phi clamped at 1 - 1e-3, so weights cannot exceed 1000
        certain = Tabulated(fn=lambda x: np.ones(x.shape[0]))
        joint = MissingnessFunction.whole_point(certain)
        assert point_importance_weights(np.array([[1.0, 2.0]]), joint)[0] == (
            pytest.approx(MAX_WEIGHT)
        )
        # a product of per-coordinate weights is capped as well
        w = point_importance_weights(
            np.array([[1.0, 2.0]]), _coords(ConstantProb(0.99), ConstantProb(0.99))
        )
        assert w[0] == MAX_WEIGHT


class TestMissingPossible:
    """A missing entry where phi says nothing goes missing is refused."""

    def test_names_the_class_and_each_column_phi_keeps(self):
        values = np.array([[np.nan, 1.0, np.nan], [2.0, np.nan, np.nan], [1.0, 1.0, 1.0]])
        phi = _coords(Zero(), ConstantProb(0.3), ConstantProb(0.0))
        with pytest.raises(DataError, match=r"class 1 .* columns \[0, 2\]"):
            _terms(values, phi)
        with pytest.raises(DataError, match=r"class 0 .* columns \[0, 2\]"):
            check_missing_possible(Dataset(values, 0), phi)

    def test_a_joint_phi_that_never_fires_names_every_holed_column(self):
        values = np.array([[np.nan, np.nan], [1.0, 2.0]])
        never = MissingnessFunction.whole_point(ConstantProb(0.0))
        with pytest.raises(DataError, match=r"columns \[0, 1\]"):
            _terms(values, never)
        _terms(values, MissingnessFunction.whole_point(ConstantProb(0.2)))

    def test_a_fully_observed_class_needs_no_missingness(self):
        check_missing_possible(Dataset(np.ones((3, 2)), 1), _coords(Zero(), Zero()))


class TestWeightedMean:
    def test_plain_mean(self):
        assert _weighted_mean([[1.0], [2.0], [3.0]], _coords(Zero())) == pytest.approx(2.0)

    def test_divisor_is_total_count(self):
        # one observed point with weight 2 out of n=2: (1/2) * 2 * 5 = 5
        t = _terms([[5.0], [np.nan]], _coords(ConstantProb(0.5)))
        assert t.divisor == 2 and t.weights.tolist() == [2.0]
        assert _weighted_mean([[5.0], [np.nan]], _coords(ConstantProb(0.5))) == 5.0

    def test_exact_three_outcome_enumeration(self):
        # Z uniform on {0, 1}, phi(0)=0, phi(1)=0.5.  Single-draw outcomes:
        #   observe 0   w.p. 1/2, contribution 1 * 0 = 0
        #   observe 1   w.p. 1/4, contribution 2 * 1 = 2
        #   missing     w.p. 1/4, contribution 0 (no observed row to weight)
        # so E[weighted mean] = 1/4 * 2 = 0.5 = E[Z].
        phi = _coords(Tabulated(fn=lambda x: np.where(x > 0.5, 0.5, 0.0)))
        outcomes = [(0.5, [[0.0]]), (0.25, [[1.0]])]
        expectation = sum(p * _weighted_mean(v, phi) for p, v in outcomes)
        assert expectation == pytest.approx(0.5, abs=1e-15)

    def test_monte_carlo_matches_target(self):
        rng = np.random.default_rng(42)
        n = 100_000
        z = rng.integers(0, 2, size=n).astype(float)
        missing = (z == 1.0) & (rng.random(n) < 0.5)
        x = np.where(missing, np.nan, z)[:, None]
        phi = _coords(Tabulated(fn=lambda v: np.where(v > 0.5, 0.5, 0.0)))
        est = _weighted_mean(x, phi)
        # exact MC standard error of the weighted estimator:
        # E[(w g)^2] = sum_z p(z) g(z)^2 / (1 - phi(z)) = 0.5 * 1 / 0.5 = 1
        se = np.sqrt((1.0 - 0.25) / n)
        assert abs(est - 0.5) < 3 * se

    def test_plain_mean_bit_for_bit_when_phi_zero(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=(1001, 1))
        weighted = _terms(col, _coords(Zero()))
        plain = class_terms(Dataset(col, 1), FeatureMap.identity(1), FULLY_OBSERVED, 1)
        assert np.array_equal(weighted.weights, plain.weights)
        assert np.array_equal(weighted.features, plain.features)
        assert weighted.divisor == plain.divisor == col.shape[0]

    def test_vector_values(self):
        mean = _weighted_mean([[1.0, 10.0], [3.0, 30.0]], _coords(Zero(), Zero()))
        assert mean == pytest.approx([2.0, 20.0])


def _enumerate_single_draw(atoms, probs, phis, g):
    """Exact E and E^2 of the one-draw weighted estimator by enumeration."""
    mean = 0.0
    second = 0.0
    for z, p, phi in zip(atoms, probs, phis):
        w = 1.0 / (1.0 - phi)
        contribution = w * g(z)
        mean += p * (1.0 - phi) * contribution
        second += p * (1.0 - phi) * contribution**2
        # missing branch contributes 0 to both moments
    return mean, second


class TestUnbiasednessOracle:
    """Exhaustive enumeration, no sampling: the exact expectation of the
    weighted estimator equals E[g(Z)] for discrete Z and tabulated phi."""

    @pytest.mark.parametrize("seed", range(8))
    def test_single_draw_unbiased(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 7)
        atoms = np.sort(rng.normal(size=k) * 3.0)
        probs = rng.dirichlet(np.ones(k))
        phis = rng.uniform(0.0, 0.85, size=k)
        g = lambda z: z**2 - 1.5 * z

        target = float(np.sum(probs * g(atoms)))
        # enumerate outcomes of one draw through the real weight code
        total = 0.0
        for z, p, phi in zip(atoms, probs, phis):
            observed = _weighted_mean([[g(z)]], _coords(ConstantProb(phi)))
            total += p * (1.0 - phi) * observed
            # the missing outcome contributes 0 exactly
        assert total == pytest.approx(target, abs=1e-12)

    def test_two_draw_product_enumeration(self):
        # n = 2 iid draws; enumerate the full product distribution through
        # the weighted class term to exercise the (1/n) sum path.
        atoms = np.array([-1.0, 2.0])
        probs = np.array([0.4, 0.6])
        phis = np.array([0.25, 0.5])
        g = lambda z: 3.0 * z + 1.0
        target = float(np.sum(probs * g(atoms)))
        lookup = dict(zip(g(atoms).tolist(), phis.tolist()))
        phi = _coords(Tabulated(fn=lambda x: np.array([lookup[v] for v in x])))

        outcomes = []  # (probability, value-or-nan)
        for z, p, f in zip(atoms, probs, phis):
            outcomes.append((p * (1.0 - f), g(z)))
            outcomes.append((p * f, np.nan))

        total = 0.0
        for (p1, v1), (p2, v2) in itertools.product(outcomes, outcomes):
            if np.isnan(v1) and np.isnan(v2):
                continue  # nothing observed: the estimate is 0
            total += p1 * p2 * _weighted_mean([[v1], [v2]], phi)
        assert total == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_second_moment_monotone_in_phi(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = rng.integers(2, 7)
        atoms = rng.normal(size=k)
        probs = rng.dirichlet(np.ones(k))
        phis_lo = rng.uniform(0.0, 0.5, size=k)
        phis_hi = np.clip(phis_lo + rng.uniform(0.0, 0.4, size=k), 0.0, 0.9)
        g = lambda z: z + 0.3

        _, m2_lo = _enumerate_single_draw(atoms, probs, phis_lo, g)
        _, m2_hi = _enumerate_single_draw(atoms, probs, phis_hi, g)
        assert m2_hi >= m2_lo - 1e-15
