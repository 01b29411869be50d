import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mnar_dre.model import (
    ROW_BLOCK,
    ConstantProb,
    DataError,
    Dataset,
    EPS_PHI,
    FeatureMap,
    HalfspaceIndicator,
    LogisticScalar,
    LogLinearRatioModel,
    MissingnessFunction,
    Zero,
    row_blocks,
)
from mnar_dre.np_classify import build_np_classifier, delta_margin

from testkit import Tabulated


def _weighted_rule_margin(n, phi0=None, delta=0.2):
    calib = Dataset(np.random.default_rng(n).normal(size=(n, 1)), 0)
    first = LogLinearRatioModel(np.array([1.0]), FeatureMap.identity(1))
    clf = build_np_classifier(first, calib, 0.3, delta, phi0=phi0, rule="missing")
    return clf.provenance.margin


def _constant(p):
    return MissingnessFunction.per_coordinate([ConstantProb(p)])


class TestEffectiveSampleSize:
    """m_eff0 = n0 (1 - sup phi0) enters the weighted threshold rule's margin."""

    def test_no_missingness(self):
        assert _weighted_rule_margin(100) == delta_margin(100.0, 0.2)

    def test_half_missing(self):
        assert _weighted_rule_margin(200, _constant(0.5)) == delta_margin(100.0, 0.2)

    def test_high_missingness(self):
        # 1500 * 0.1
        assert _weighted_rule_margin(1500, _constant(0.9)) == pytest.approx(
            delta_margin(150.0, 0.2)
        )

    def test_rejects_certain_missingness(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ConstantProb(1.0)
        # unbounded logistic tails are clamped: m_eff0 = n0 * EPS_PHI, not 0
        logistic = MissingnessFunction.per_coordinate([LogisticScalar(0.0, 1.0)])
        assert _weighted_rule_margin(500, logistic) == pytest.approx(
            delta_margin(500 * EPS_PHI, 0.2)
        )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            delta_margin(0.0, 0.1)
        with pytest.raises(DataError):
            Dataset(np.empty((0, 1)), 0)


def _entry_inputs(rng, entry, n=10_000):
    if isinstance(entry, HalfspaceIndicator) and entry.direction.shape[0] > 1:
        return rng.normal(scale=50.0, size=(n, entry.direction.shape[0]))
    return rng.normal(scale=50.0, size=n)


class TestMissingnessEntries:
    @pytest.mark.parametrize(
        "entry",
        [
            Zero(),
            ConstantProb(0.3),
            LogisticScalar(a0=0.5, a1=2.0, tau=-1),
            LogisticScalar(a0=-1.0, a1=0.7, tau=1),
            HalfspaceIndicator(direction=np.array([1.0]), level=0.0, p=0.9),
            HalfspaceIndicator(direction=np.array([1.0, -2.0, 0.5]), level=1.0, p=0.5),
            Tabulated(fn=lambda x: np.full(np.atleast_1d(x).shape[0], 0.99999)),
        ],
    )
    def test_output_range(self, entry):
        rng = np.random.default_rng(0)
        p = entry.prob(_entry_inputs(rng, entry))
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0 - EPS_PHI)

    def test_logistic_orientation(self):
        # tau=-1: phi(z) = sigmoid(a0 + a1 z), increasing in z
        e = LogisticScalar(a0=0.0, a1=1.0, tau=-1)
        p = e.prob(np.array([-3.0, 0.0, 3.0]))
        assert p[0] < p[1] < p[2]
        assert p[1] == pytest.approx(0.5)

    def test_halfspace_values(self):
        e = HalfspaceIndicator(direction=np.array([0.0, 1.0]), level=2.0, p=0.9)
        z = np.array([[0.0, 3.0], [0.0, 1.0], [5.0, 2.0]])
        assert e.prob(z) == pytest.approx([0.9, 0.0, 0.0])

    def test_clamp_counter_increments(self):
        e = Tabulated(fn=lambda x: np.ones(np.atleast_1d(x).shape[0]) * 0.99999)
        with pytest.warns(RuntimeWarning, match="clamped"):
            p = e.prob(np.zeros(7))
        assert np.array_equal(p, np.full(7, 1.0 - EPS_PHI))

    def test_constant_prob_validation(self):
        with pytest.raises(ValueError):
            ConstantProb(1.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            LogisticScalar(a0=0.0, a1=1.0, tau=0)


class TestMissingnessFunction:
    def test_joint_corrupt_marks_whole_rows(self):
        phi = MissingnessFunction.whole_point(
            HalfspaceIndicator(direction=np.array([1.0, 0.0]), level=0.0, p=0.8)
        )
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5000, 2))
        x = phi.corrupt(z, np.random.default_rng(2))
        missing = np.isnan(x)
        # rows are all-or-nothing
        assert np.all(missing.all(axis=1) == missing.any(axis=1))
        # only right-halfspace rows can be missing
        assert not missing[z[:, 0] <= 0.0].any()
        frac = missing[z[:, 0] > 0.0].all(axis=1).mean()
        assert frac == pytest.approx(0.8, abs=0.03)

    def test_per_coordinate_corrupt_independent(self):
        phi = MissingnessFunction.per_coordinate([Zero(), ConstantProb(0.5)])
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4000, 2))
        x = phi.corrupt(z, np.random.default_rng(4))
        assert not np.isnan(x[:, 0]).any()
        assert np.isnan(x[:, 1]).mean() == pytest.approx(0.5, abs=0.03)

    def test_zero_phi_corrupt_is_identity(self):
        phi = MissingnessFunction.none(3)
        z = np.random.default_rng(5).normal(size=(100, 3))
        x = phi.corrupt(z, np.random.default_rng(6))
        assert np.array_equal(x, z)

    def test_corrupt_deterministic(self):
        phi = MissingnessFunction.per_coordinate([ConstantProb(0.4)])
        z = np.random.default_rng(7).normal(size=(500, 1))
        a = phi.corrupt(z, np.random.default_rng(8))
        b = phi.corrupt(z, np.random.default_rng(8))
        assert np.array_equal(a, b, equal_nan=True)

    def test_sup_prob(self):
        phi = MissingnessFunction.per_coordinate([Zero(), ConstantProb(0.3)])
        assert phi.sup_prob() == 0.3
        assert MissingnessFunction.none(2).is_zero()


class TestDataset:
    def test_basic(self):
        ds = Dataset(np.array([[1.0, np.nan], [0.0, 2.0]]), 0)
        assert ds.n == 2 and ds.dim == 2
        assert list(ds.observed_rows()) == [False, True]
        assert not ds.fully_observed

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.empty((0, 2)), 0)

    def test_rejects_inf(self):
        with pytest.raises(DataError, match="finite"):
            Dataset(np.array([[np.inf]]), 1)

    def test_rejects_bad_label(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), 2)

    def test_values_frozen(self):
        ds = Dataset(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0

    def test_1d_input_promoted(self):
        ds = Dataset(np.array([1.0, 2.0, 3.0]), 1)
        assert ds.dim == 1 and ds.n == 3


class TestFeatureMap:
    def test_identity(self):
        f = FeatureMap.identity(2)
        z = np.array([[1.0, 2.0]])
        assert np.array_equal(f(z), z)

    def test_identity_plus_squares(self):
        f = FeatureMap.identity_plus_squares(2)
        out = f(np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[2.0, 3.0, 4.0, 9.0]])

    def test_refuses_missing(self):
        f = FeatureMap.identity(2)
        with pytest.raises(ValueError, match="missing"):
            f(np.array([[1.0, np.nan]]))

    def test_refuses_wrong_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            FeatureMap.identity(2)(np.zeros((1, 3)))


class TestLogLinearRatioModel:
    def test_evaluation(self):
        m = LogLinearRatioModel(np.array([1.0, -0.5]), FeatureMap.identity(2))
        z = np.array([[2.0, 2.0]])
        assert m.log_ratio(z) == pytest.approx([1.0])
        assert np.exp(m.log_ratio(z)) == pytest.approx([np.e])

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.lists(st.floats(-20, 20), min_size=1, max_size=4),
        point=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    )
    def test_reciprocal_identity(self, theta, point):
        d = min(len(theta), len(point))
        theta, point = np.array(theta[:d]), np.array([point[:d]])
        fmap = FeatureMap.identity(d)
        r_pos = np.exp(LogLinearRatioModel(theta, fmap).log_ratio(point))[0]
        r_neg = np.exp(LogLinearRatioModel(-theta, fmap).log_ratio(point))[0]
        assert r_pos > 0.0
        assert r_pos * r_neg == pytest.approx(1.0, rel=1e-12)

    def test_theta_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            LogLinearRatioModel(np.array([1.0]), FeatureMap.identity(2))

    def test_normalizer_positive(self):
        with pytest.raises(ValueError):
            LogLinearRatioModel(np.zeros(1), FeatureMap.identity(1), normalizer=0.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_normalizer_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            LogLinearRatioModel(np.zeros(1), FeatureMap.identity(1), normalizer=value)

    def test_normalizer_shifts_log_ratio(self):
        m = LogLinearRatioModel(np.zeros(1), FeatureMap.identity(1))
        m2 = m.with_normalizer(np.e)
        assert m2.log_ratio(np.array([[1.0]])) == pytest.approx([-1.0])


@pytest.mark.parametrize(
    "n", [0, 1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 1, 100_000]
)
def test_row_blocks_cover_the_rows_in_order_in_even_blocks(n):
    blocks = row_blocks(n)
    assert len(blocks) == -(-n // ROW_BLOCK)
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert max(sizes, default=0) <= ROW_BLOCK
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    # A 1-row block would go through BLAS's matrix-vector routine.
    assert n == 1 or 1 not in sizes
