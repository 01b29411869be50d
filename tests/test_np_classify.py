import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from mnar_dre import np_classify
from mnar_dre.model import (
    ROW_BLOCK,
    ConfigError,
    ConstantProb,
    DataError,
    Dataset,
    FeatureMap,
    LogLinearRatioModel,
    MissingnessFunction,
    row_blocks,
)
from mnar_dre.naive_bayes import NaiveBayesRatioModel
from mnar_dre.np_classify import (
    NpClassifier,
    build_np_classifier,
    calibration_scores,
    classify,
    delta_margin,
    labels_from_scores,
    threshold_binomial,
    threshold_missing,
    threshold_rule,
)
from mnar_dre.scenarios import make_scenario

from testkit import traced_peak


class TestDeltaMargin:
    def test_unit_value(self):
        # 16 * log(e) / 16 = 1
        assert delta_margin(16.0, math.exp(-1.0)) == pytest.approx(1.0)

    def test_scaling(self):
        assert delta_margin(1600.0, math.exp(-1.0)) == pytest.approx(0.1)

    def test_hand_evaluation(self):
        assert delta_margin(1000.0, 0.05) == pytest.approx(0.2190, abs=2e-4)

    def test_infinite_sample_has_no_margin(self):
        # The threshold tests below get a margin of exactly 0 this way.
        assert delta_margin(math.inf, 0.1) == 0.0

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            delta_margin(100.0, 0.6)
        with pytest.raises(ValueError):
            delta_margin(100.0, 0.0)
        with pytest.raises(ValueError):
            delta_margin(0.0, 0.1)


class TestThresholdMissing:
    def test_reduces_to_empirical_quantile_without_margin(self):
        # all weights 1, margin 0 (m_eff0 = inf), alpha = 0.25: the
        # inclusive tails are 1.0, 0.75, 0.5, 0.25 so the first qualifying
        # index is 4.
        res = threshold_missing(
            np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4), 0.25, 0.5, math.inf
        )
        assert res.value == 4.0
        assert res.order_index == 4
        assert not res.degenerate

    def test_hand_traced_weighted_example(self):
        # sorted by score: (-inf, 0), (0.5, 2), (1.5, 1), (2.5, 1); inclusive
        # tails / 4: 1.0, 1.0, 0.5, 0.25 -> first <= 0.3 at i* = 4.
        scores = np.array([0.5, 1.5, 2.5, -np.inf])
        weights = np.array([2.0, 1.0, 1.0, 0.0])
        res = threshold_missing(scores, weights, 0.3, 0.5, math.inf)
        assert res.value == 2.5
        assert res.order_index == 4

    def test_all_missing_flags(self):
        scores = np.full(4, -np.inf)
        weights = np.zeros(4)
        with pytest.warns(RuntimeWarning, match="every calibration point"):
            res = threshold_missing(scores, weights, 0.5, 0.5, math.inf)
        assert res.value == -np.inf
        assert res.all_missing
        assert not res.degenerate

    def test_degenerate_when_margin_exceeds_alpha(self):
        # alpha - Delta < 0: no index qualifies, threshold +inf
        res = threshold_missing(np.array([1.0, 2.0]), np.ones(2), 0.1, 0.1, 4.0)
        assert res.value == math.inf
        assert res.degenerate
        assert res.order_index is None

    def test_permutation_invariance_with_ties(self):
        rng = np.random.default_rng(0)
        scores = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, -np.inf])
        weights = np.array([1.0, 2.0, 1.5, 1.0, 3.0, 1.0, 0.0])
        base = threshold_missing(scores, weights, 0.6, 0.5, math.inf)
        for _ in range(20):
            perm = rng.permutation(scores.size)
            res = threshold_missing(
                scores[perm], weights[perm], 0.6, 0.5, math.inf
            )
            assert res.value == base.value

    def test_tied_block_is_conservative(self):
        # scores [1, 1] with weights [1, 2]: the block-inclusive tail at value
        # 1 is 1.5, so a cutoff below that cannot select value 1 in any order.
        res = threshold_missing(
            np.array([1.0, 1.0]), np.array([1.0, 2.0]), 0.6, 0.5, math.inf
        )
        assert res.value == math.inf and res.degenerate

    def test_conservativeness_vs_no_margin(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            scores = rng.normal(size=40)
            with_margin = threshold_missing(scores, np.ones(40), 0.3, 0.1, 40.0)
            without = threshold_missing(
                scores, np.ones(40), 0.3, 0.1, math.inf
            )
            assert with_margin.value >= without.value

    def test_input_validation(self):
        with pytest.raises(ValueError):
            threshold_missing(np.array([1.0]), np.array([-1.0]), 0.1, 0.1, 1.0)
        with pytest.raises(DataError):
            threshold_missing(np.array([]), np.array([]), 0.1, 0.1, 1.0)


def _fraction_binomial_tail(n, q_num, q_den, i):
    """Exact P(W >= i), W ~ Binomial(n, q_num/q_den), in rational arithmetic."""
    q = Fraction(q_num, q_den)
    total = Fraction(0)
    for k in range(i, n + 1):
        total += (
            Fraction(math.comb(n, k)) * q**k * (1 - q) ** (n - k)
        )
    return total


class TestThresholdBinomial:
    def test_single_point(self):
        # P(W >= 1) = 0.5 <= 0.6 with W ~ Binomial(1, 0.5)
        res = threshold_binomial(np.array([7.5]), 0.5, 0.6)
        assert res.value == 7.5
        assert res.order_index == 1

    def test_exact_tail_oracle_n100(self):
        n, alpha, delta = 100, 0.1, 0.05
        scores = np.arange(1.0, n + 1.0)
        res = threshold_binomial(scores, alpha, delta)
        # independent exact-rational oracle
        i_star = None
        for i in range(1, n + 1):
            if _fraction_binomial_tail(n, 9, 10, i) <= Fraction(1, 20):
                i_star = i
                break
        assert res.order_index == i_star
        assert res.value == float(i_star)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_exact_tail_oracle_grid(self, alpha, delta):
        alpha_frac = Fraction(alpha).limit_denominator(100)
        delta_frac = Fraction(delta).limit_denominator(100)
        for n in range(1, 51):
            scores = np.arange(1.0, n + 1.0)
            res = threshold_binomial(scores, alpha, delta)
            expected = None
            for i in range(1, n + 1):
                if _fraction_binomial_tail(
                    n, (1 - alpha_frac).numerator, (1 - alpha_frac).denominator, i
                ) <= delta_frac:
                    expected = i
                    break
            if expected is None:
                assert res.degenerate and res.value == math.inf
            else:
                assert res.order_index == expected

    def test_monotone_in_delta(self):
        scores = np.random.default_rng(2).normal(size=200)
        strict = threshold_binomial(scores, 0.1, 0.01)
        loose = threshold_binomial(scores, 0.1, 0.1)
        assert strict.order_index >= loose.order_index
        assert strict.value >= loose.value

    def test_degenerate_small_n(self):
        # P(W >= n) = (1-alpha)^n > delta for n=2, alpha=0.1, delta=0.05
        res = threshold_binomial(np.array([1.0, 2.0]), 0.1, 0.05)
        assert res.degenerate and res.value == math.inf

    def test_requires_finite_scores(self):
        with pytest.raises(DataError):
            threshold_binomial(np.array([1.0, -np.inf]), 0.1, 0.1)


def _make_clf(model, threshold, method="binomial"):
    from mnar_dre.np_classify import ThresholdResult

    return NpClassifier(
        model=model,
        alpha=0.1,
        delta=0.1,
        provenance=ThresholdResult(
            value=threshold, order_index=None, degenerate=not math.isfinite(threshold),
            all_missing=False, margin=None, calibration_size=0, method=method,
        ),
    )


def _linear(*theta):
    """The log-linear model theta'z, which scores z[:, 0] exactly for e_1."""
    return LogLinearRatioModel(np.array(theta), FeatureMap.identity(len(theta)))


def _models():
    """A true-ratio, a log-linear and a naive-Bayes ratio model on R^2."""
    log_linear = LogLinearRatioModel(
        np.array([0.4, -0.3, 0.05, -0.02]),
        FeatureMap.identity_plus_squares(2),
        normalizer=1.7,
    )
    naive_bayes = NaiveBayesRatioModel(
        (
            LogLinearRatioModel(np.array([0.5, -0.1]), FeatureMap.identity_plus_squares(1)),
            LogLinearRatioModel(np.array([-0.2]), FeatureMap.identity(1), normalizer=0.9),
        )
    )
    return {
        "true-ratio": make_scenario("nb-rho", 0.5),
        "log-linear": log_linear,
        "naive-bayes": naive_bayes,
    }


class TestClassify:
    def test_infinite_thresholds(self):
        # An infinite threshold fixes every label, so nothing is scored.
        n = 3 * ROW_BLOCK + 1
        calls = []

        class Recording:
            def log_ratio(self, v):
                calls.append(len(v))
                return v[:, 0]

        z = np.random.default_rng(3).normal(size=(n, 2))
        assert classify(_make_clf(Recording(), math.inf), z).sum() == 0
        assert classify(_make_clf(Recording(), -math.inf), z).sum() == n
        assert calls == []

    @pytest.mark.parametrize("kind", ["true-ratio", "log-linear", "naive-bayes"])
    @pytest.mark.parametrize("n", [0, 1, ROW_BLOCK, 3 * ROW_BLOCK + 1])
    def test_blocked_labels_equal_labels_of_all_scores(self, kind, n):
        model = _models()[kind]
        z = np.random.default_rng(n).normal(scale=2.0, size=(n, 2))
        scores = model.log_ratio(z)
        # Each block scores its rows to the same bits as one call over all.
        blocked = [model.log_ratio(z[rows]) for rows in row_blocks(n)]
        assert np.array_equal(np.concatenate([scores[:0], *blocked]), scores)
        threshold = float(np.median(scores)) if n else 0.0
        got = classify(_make_clf(model, threshold), z)
        want = labels_from_scores(scores, threshold)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_peak_memory_is_its_labels_plus_four_blocks(self):
        # Bound fixed before the first run: the n int labels and four blocks
        # of ROW_BLOCK rows of k d float64, the allowance that sample gets.
        # Unblocked, 100k gauss5d points peaked at 5.6 MB against 0.8 MB of
        # labels.
        sc = make_scenario("gauss5d")
        z = sc.class0.sample(100_000, np.random.default_rng(1))
        clf = _make_clf(sc, 0.0)
        labels, peak = traced_peak(lambda: classify(clf, z))
        k, d = sc.class1.weights.size, sc.dim
        assert labels.nbytes == z.shape[0] * 8
        assert peak <= labels.nbytes + 4 * ROW_BLOCK * k * d * 8

    def test_strict_inequality_ties_to_class0(self):
        clf = _make_clf(_linear(1.0), 1.0)
        assert classify(clf, np.array([[1.0], [1.0 + 1e-12]])).tolist() == [0, 1]

    @pytest.mark.parametrize("rule", ["binomial", "missing"])
    def test_monotone_transform_invariance(self, rule):
        # build from score s and from 2s + 7: identical labels
        rng = np.random.default_rng(4)
        calib = Dataset(rng.normal(size=(400, 1)), 0)
        test = rng.normal(size=(1000, 1))
        alpha, delta = 0.3, 0.2

        class Transformed:
            def log_ratio(self, z):
                return 2.0 * z[:, 0] + 7.0

        base = build_np_classifier(_linear(1.0), calib, alpha, delta, rule=rule)
        transformed = build_np_classifier(Transformed(), calib, alpha, delta, rule=rule)
        assert np.array_equal(classify(base, test), classify(transformed, test))


class TestCalibrationScores:
    def test_missing_points_score_minus_inf_weight_zero(self):
        calib = Dataset(np.array([[1.0], [np.nan], [2.0]]), 0)
        phi0 = MissingnessFunction.per_coordinate([ConstantProb(0.5)])
        scores, weights = calibration_scores(_linear(1.0), calib, phi0)
        assert scores[1] == -np.inf and weights[1] == 0.0
        assert weights[0] == pytest.approx(2.0)

    def test_zero_phi_gives_unit_weights(self):
        calib = Dataset(np.array([[1.0], [2.0]]), 0)
        scores, weights = calibration_scores(
            _linear(1.0), calib, MissingnessFunction.none(1)
        )
        assert np.array_equal(weights, [1.0, 1.0])


class TestBuildClassifier:
    def test_auto_rule_selection(self):
        rng = np.random.default_rng(6)
        clean = Dataset(rng.normal(size=(100, 1)), 0)
        holed = Dataset(
            np.where(rng.random((100, 1)) < 0.2, np.nan, rng.normal(size=(100, 1))), 0
        )
        phi0 = MissingnessFunction.per_coordinate([ConstantProb(0.2)])
        a = build_np_classifier(_linear(1.0), clean, 0.3, 0.2)
        b = build_np_classifier(_linear(1.0), holed, 0.3, 0.2, phi0=phi0)
        assert a.provenance.method == "binomial"
        assert b.provenance.method == "missing-weighted"

    def test_calibration_must_be_class0(self):
        data = Dataset(np.ones((5, 1)), 1)
        with pytest.raises(DataError, match="class 0"):
            build_np_classifier(_linear(1.0), data, 0.1, 0.1)

    def test_binomial_rule_scores_without_weighing(self, monkeypatch):
        def no_weights(*args):
            raise AssertionError("the binomial rule needs no weights")

        monkeypatch.setattr(np_classify, "point_importance_weights", no_weights)
        calib = Dataset(np.random.default_rng(8).normal(size=(200, 2)), 0)
        clf = build_np_classifier(_linear(1.0, -1.0), calib, 0.1, 0.1)
        want = threshold_binomial(calib.values[:, 0] - calib.values[:, 1], 0.1, 0.1)
        assert (clf.provenance.method, clf.threshold) == ("binomial", want.value)


@pytest.mark.parametrize(
    "rule, observed, phi0_zero, want",
    [
        ("auto", True, True, "binomial"),
        ("auto", False, True, "missing"),
        ("auto", True, False, "missing"),
        ("binomial", False, False, "binomial"),
        ("missing", True, True, "missing"),
    ],
)
def test_threshold_rule_resolves_auto(rule, observed, phi0_zero, want):
    assert threshold_rule(rule, observed, phi0_zero, 0.5) == want
    # Only the weighted rule bounds delta by 1/2.
    if want == "binomial":
        assert threshold_rule(rule, observed, phi0_zero, 0.7) == want
    else:
        with pytest.raises(ConfigError, match="--delta must be at most 0.5"):
            threshold_rule(rule, observed, phi0_zero, 0.7)


class TestTypeOneGuarantee:
    """Replicated check of the high-probability Type I control, using the
    exact normal CDF as the oracle for the true Type I error."""

    def test_missing_rule_500_replications(self):
        alpha, delta, n0 = 0.5, 0.3, 200
        rng = np.random.default_rng(8)
        violations = 0
        reps = 500
        for _ in range(reps):
            scores = rng.normal(size=n0)
            res = threshold_missing(scores, np.ones(n0), alpha, delta, float(n0))
            true_type1 = norm.sf(res.value)  # P(N(0,1) > threshold), exact
            violations += true_type1 > alpha
        bound = delta + 3 * math.sqrt(delta * (1 - delta) / reps)
        assert violations / reps <= bound

    def test_binomial_rule_500_replications(self):
        alpha, delta, n0 = 0.1, 0.1, 200
        rng = np.random.default_rng(9)
        violations = 0
        reps = 500
        for _ in range(reps):
            scores = rng.normal(size=n0)
            res = threshold_binomial(scores, alpha, delta)
            violations += norm.sf(res.value) > alpha
        bound = delta + 3 * math.sqrt(delta * (1 - delta) / reps)
        assert violations / reps <= bound

    def test_missing_rule_with_actual_missingness(self):
        # calibration points go missing with rate phi(z) depending on z;
        # the weighted rule must still control P(type1 > alpha) <= delta.
        alpha, delta, n0 = 0.5, 0.3, 400
        phi0 = MissingnessFunction.per_coordinate([ConstantProb(0.4)])
        rng = np.random.default_rng(10)
        violations = 0
        reps = 300
        for _ in range(reps):
            z = rng.normal(size=(n0, 1))
            x = phi0.corrupt(z, rng)
            calib = Dataset(x, 0)
            clf = build_np_classifier(
                _linear(1.0), calib, alpha, delta, phi0=phi0, rule="missing"
            )
            violations += norm.sf(clf.threshold) > alpha
        bound = delta + 3 * math.sqrt(delta * (1 - delta) / reps)
        assert violations / reps <= bound
