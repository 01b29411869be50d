import numpy as np
import pytest

from mnar_dre import kliep
from mnar_dre.kliep import COMPLETE_CASE, Mnar
from mnar_dre.model import (
    Dataset,
    FeatureMap,
    HalfspaceIndicator,
    LogLinearRatioModel,
    MissingnessFunction,
    NumericError,
    Zero,
)
from mnar_dre.naive_bayes import NaiveBayesRatioModel, fit_naive_bayes


def _per_dim_phi(d=2, p=0.5):
    return MissingnessFunction.per_coordinate(
        [HalfspaceIndicator(direction=np.array([1.0]), level=0.0, p=p)] * d
    )


def _model(thetas, normalizers=None):
    subs = []
    for i, t in enumerate(thetas):
        n = None if normalizers is None else normalizers[i]
        subs.append(
            LogLinearRatioModel(np.array([t]), FeatureMap.identity(1), normalizer=n)
        )
    return NaiveBayesRatioModel(per_dim=tuple(subs))


class TestEvaluate:
    def test_zero_models_give_zero(self):
        m = _model([0.0, 0.0])
        assert m.log_ratio(np.array([[5.0, -3.0]])) == pytest.approx([0.0])

    def test_hand_arithmetic(self):
        m = _model([1.0, 2.0])
        assert m.log_ratio(np.array([[3.0, 4.0]])) == pytest.approx([11.0])

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(0)
        thetas = [0.3, -1.2, 0.7]
        z = rng.normal(size=(20, 3))
        perm = [2, 0, 1]
        a = _model(thetas).log_ratio(z)
        b = _model([thetas[j] for j in perm]).log_ratio(z[:, perm])
        assert a == pytest.approx(b, abs=1e-12)

    def test_missing_coordinate_refused(self):
        m = _model([1.0, 2.0])
        with pytest.raises(ValueError, match="full observation"):
            m.log_ratio(np.array([[1.0, np.nan]]))

    def test_product_sum_identity(self):
        rng = np.random.default_rng(1)
        m = _model([0.5, -0.25, 1.5])
        z = rng.normal(size=(50, 3))
        prod = np.ones(50)
        for j, sub in enumerate(m.per_dim):
            prod *= np.exp(sub.log_ratio(z[:, j : j + 1]))
        assert np.exp(m.log_ratio(z)) == pytest.approx(prod, rel=1e-10)

    def test_normalizers_subtract_logs(self):
        m = _model([0.0, 0.0], normalizers=[np.e, np.e])
        out = m.log_ratio(np.array([[1.0, 1.0]]))
        assert out == pytest.approx([-2.0])


class TestFit:
    def test_d1_equals_direct_fit(self):
        rng = np.random.default_rng(10)
        z1 = rng.normal(0.5, 1.0, size=(2000, 1))
        z0 = rng.normal(0.0, 1.0, size=(2000, 1))
        phi = MissingnessFunction.per_coordinate(
            [HalfspaceIndicator(direction=np.array([1.0]), level=0.0, p=0.4)]
        )
        x1 = Dataset(phi.corrupt(z1, rng), 1)
        d0 = Dataset(z0, 0)
        mode = Mnar(phi, MissingnessFunction.none(1))
        nb = fit_naive_bayes(x1, d0, mode, set_normalizers=False)
        direct = kliep.fit(x1, d0, FeatureMap.identity(1), mode)
        assert np.array_equal(nb.per_dim[0].theta, direct.theta)

    def test_independent_gaussians_match_joint_fit(self):
        # with independent coordinates the factorized fit and the joint fit
        # estimate the same population parameter; empirical cross-moments
        # make them differ by O(n^-1/2) on a given sample
        rng = np.random.default_rng(11)
        n = 100_000
        z1 = rng.normal([0.4, -0.2], 1.0, size=(n, 2))
        z0 = rng.normal(0.0, 1.0, size=(n, 2))
        d1, d0 = Dataset(z1, 1), Dataset(z0, 0)
        nb = fit_naive_bayes(d1, d0, set_normalizers=False)
        joint = kliep.fit(d1, d0, FeatureMap.identity(2))
        nb_theta = np.array([m.theta[0] for m in nb.per_dim])
        assert nb_theta == pytest.approx(joint.theta, abs=0.02)

    def test_per_dim_missingness_consistency(self):
        rng = np.random.default_rng(12)
        n = 50_000
        z1 = rng.normal([0.5, 1.0], 1.0, size=(n, 2))
        z0 = rng.normal(0.0, 1.0, size=(n, 2))
        phi1 = _per_dim_phi(p=0.6)
        x1 = Dataset(phi1.corrupt(z1, rng), 1)
        mode = Mnar(phi1, MissingnessFunction.none(2))
        nb = fit_naive_bayes(x1, Dataset(z0, 0), mode, set_normalizers=False)
        nb_theta = np.array([m.theta[0] for m in nb.per_dim])
        # correctly specified per-dim: population values are the mean shifts
        assert nb_theta == pytest.approx([0.5, 1.0], abs=0.06)

    def test_normalizers_set_by_default(self):
        rng = np.random.default_rng(13)
        d1 = Dataset(rng.normal(0.3, 1, size=(500, 2)), 1)
        d0 = Dataset(rng.normal(0.0, 1, size=(500, 2)), 0)
        nb = fit_naive_bayes(d1, d0)
        assert all(m.normalizer is not None and m.normalizer > 0 for m in nb.per_dim)

    def test_error_tagged_with_dimension(self):
        d1 = Dataset(np.column_stack([np.ones(5), np.full(5, np.nan)]), 1)
        d0 = Dataset(np.ones((5, 2)), 0)
        mode = Mnar(
            MissingnessFunction.per_coordinate([Zero(), Zero()]),
            MissingnessFunction.none(2),
        )
        # Class 0's constant column makes its second-moment matrix singular.
        with pytest.warns(RuntimeWarning, match="degenerate"), pytest.raises(
            NumericError, match="dimension 1"
        ):
            fit_naive_bayes(d1, d0, mode, set_normalizers=False)

    def test_complete_case_mode(self):
        rng = np.random.default_rng(14)
        z1 = rng.normal(0.5, 1.0, size=(3000, 2))
        z0 = rng.normal(0.0, 1.0, size=(3000, 2))
        x1 = _per_dim_phi(p=0.5).corrupt(z1, rng)
        nb = fit_naive_bayes(Dataset(x1, 1), Dataset(z0, 0), COMPLETE_CASE)
        assert nb.dim == 2

    def test_feature_map_must_be_1d(self):
        d1 = Dataset(np.ones((5, 2)), 1)
        d0 = Dataset(np.zeros((5, 2)), 0)
        with pytest.raises(ValueError, match="1-D"):
            fit_naive_bayes(d1, d0, feature_map_1d=FeatureMap.identity(2))

    def test_whole_point_missingness_has_no_coordinate_slice(self):
        joint = MissingnessFunction.whole_point(
            HalfspaceIndicator(direction=np.array([0.0, 1.0]), level=2.0, p=0.9)
        )
        with pytest.raises(ValueError, match="whole points"):
            joint.coordinate_entry(0)
        rng = np.random.default_rng(15)
        z1 = rng.normal(size=(200, 2))
        z0 = rng.normal(size=(200, 2))
        mode = Mnar(joint, MissingnessFunction.none(2))
        with pytest.raises(ValueError, match="acts on whole points"):
            fit_naive_bayes(Dataset(joint.corrupt(z1, rng), 1), Dataset(z0, 0), mode)

    def test_one_coordinate_joint_entry_is_its_own_slice(self):
        entry = HalfspaceIndicator(direction=np.array([1.0]), level=0.0, p=0.5)
        joint = MissingnessFunction.whole_point(entry)
        assert joint.coordinate_entry(0) is entry
        with pytest.raises(ValueError, match="per-coordinate entry 1"):
            joint.coordinate_entry(1)
