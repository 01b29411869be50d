import numpy as np
import pytest

from mnar_dre.kliep import (
    COMPLETE_CASE,
    FULLY_OBSERVED,
    Mnar,
    fit,
    normalizing_constant,
    sample_objective,
)
from mnar_dre.model import (
    ConstantProb,
    DataError,
    Dataset,
    FeatureMap,
    HalfspaceIndicator,
    MissingnessFunction,
    NumericError,
    Tabulated,
    Zero,
)


def _gaussian_pair(rng, n, mu1=0.5, d=1):
    z1 = rng.normal(mu1, 1.0, size=(n, d))
    z0 = rng.normal(0.0, 1.0, size=(n, d))
    return Dataset(z1, 1), Dataset(z0, 0)


def _corrupted_pair(rng, n=400, d=2, p=0.4):
    z1 = rng.normal(0.3, 1.0, size=(n, d))
    z0 = rng.normal(0.0, 1.0, size=(n, d))
    phi1 = MissingnessFunction.whole_point(
        HalfspaceIndicator(direction=np.ones(d), level=0.0, p=p)
    )
    phi0 = MissingnessFunction.none(d)
    x1 = phi1.corrupt(z1, rng)
    return Dataset(x1, 1), Dataset(z0, 0), Mnar(phi1, phi0)


class TestSampleObjective:
    def test_theta_zero_loss_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        d1, d0 = _gaussian_pair(rng, 50, d=3)
        fmap = FeatureMap.identity(3)
        val = sample_objective(np.zeros(3), d1, d0, fmap, FULLY_OBSERVED)
        assert val.loss == 0.0

    def test_theta_zero_gradient_is_mean_difference(self):
        rng = np.random.default_rng(1)
        d1, d0 = _gaussian_pair(rng, 60, d=2)
        fmap = FeatureMap.identity(2)
        val = sample_objective(np.zeros(2), d1, d0, fmap, FULLY_OBSERVED)
        expected = d0.values.mean(axis=0) - d1.values.mean(axis=0)
        assert val.gradient == pytest.approx(expected, rel=1e-12)

    def test_mnar_zero_phi_bit_identical_to_fully_observed(self):
        rng = np.random.default_rng(2)
        d1, d0 = _gaussian_pair(rng, 80, d=2)
        fmap = FeatureMap.identity(2)
        theta = np.array([0.3, -0.7])
        mode = Mnar(MissingnessFunction.none(2), MissingnessFunction.none(2))
        a = sample_objective(theta, d1, d0, fmap, FULLY_OBSERVED)
        b = sample_objective(theta, d1, d0, fmap, mode)
        c = sample_objective(theta, d1, d0, fmap, COMPLETE_CASE)
        assert a.loss == b.loss == c.loss
        assert np.array_equal(a.gradient, b.gradient)
        assert np.array_equal(a.gradient, c.gradient)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        d1, d0, mode = _corrupted_pair(rng)
        fmap = FeatureMap.identity(2)
        theta = rng.normal(scale=0.5, size=2)
        val = sample_objective(theta, d1, d0, fmap, mode)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = sample_objective(theta + e, d1, d0, fmap, mode).loss
            dn = sample_objective(theta - e, d1, d0, fmap, mode).loss
            fd = (up - dn) / (2 * h)
            rel = abs(fd - val.gradient[i]) / max(abs(val.gradient[i]), 1e-8)
            assert rel < 1e-5

    @pytest.mark.parametrize(
        "mode_name", ["fully-observed", "complete-case", "mnar"]
    )
    def test_convexity_random_triples(self, mode_name):
        rng = np.random.default_rng(9)
        d1, d0, mnar_mode = _corrupted_pair(rng)
        mode = mnar_mode if mode_name == "mnar" else mode_name
        if mode == FULLY_OBSERVED:
            d1 = Dataset(d1.values[d1.observed_rows()], 1)
        fmap = FeatureMap.identity(2)
        for _ in range(100):
            ta = rng.normal(scale=2.0, size=2)
            tb = rng.normal(scale=2.0, size=2)
            lam = rng.uniform()
            mid = sample_objective(lam * ta + (1 - lam) * tb, d1, d0, fmap, mode).loss
            bound = (
                lam * sample_objective(ta, d1, d0, fmap, mode).loss
                + (1 - lam) * sample_objective(tb, d1, d0, fmap, mode).loss
            )
            assert mid <= bound + 1e-9

    def test_degenerate_class0_raises(self):
        d1 = Dataset(np.ones((3, 1)), 1)
        d0 = Dataset(np.full((3, 1), np.nan), 0)
        mode = Mnar(MissingnessFunction.none(1), MissingnessFunction.none(1))
        with pytest.raises(NumericError, match="class-0"):
            sample_objective(np.zeros(1), d1, d0, FeatureMap.identity(1), mode)

    def test_fully_observed_mode_rejects_missing(self):
        d1 = Dataset(np.array([[1.0], [np.nan]]), 1)
        d0 = Dataset(np.ones((2, 1)), 0)
        with pytest.raises(DataError, match="fully-observed"):
            sample_objective(np.zeros(1), d1, d0, FeatureMap.identity(1), FULLY_OBSERVED)

    def test_large_theta_no_overflow(self):
        rng = np.random.default_rng(11)
        d1, d0 = _gaussian_pair(rng, 40)
        val = sample_objective(
            np.array([800.0]), d1, d0, FeatureMap.identity(1), FULLY_OBSERVED
        )
        assert np.isfinite(val.loss)
        assert np.all(np.isfinite(val.gradient))


class TestFit:
    def test_one_dim_gaussian_recovers_mean_shift(self):
        # population argmax of theta*mu - theta^2/2 is mu
        rng = np.random.default_rng(21)
        d1, d0 = _gaussian_pair(rng, 100_000, mu1=0.5)
        model = fit(d1, d0, FeatureMap.identity(1))
        assert abs(model.theta[0] - 0.5) <= 0.05
        assert model.converged

    def test_identical_classes_give_zero(self):
        rng = np.random.default_rng(22)
        d1, d0 = _gaussian_pair(rng, 100_000, mu1=0.0, d=2)
        model = fit(d1, d0, FeatureMap.identity(2))
        assert np.linalg.norm(model.theta) <= 0.05

    def test_mode_collapse_identical_theta_hat(self):
        rng = np.random.default_rng(23)
        d1, d0 = _gaussian_pair(rng, 500, d=2)
        fmap = FeatureMap.identity(2)
        mode = Mnar(MissingnessFunction.none(2), MissingnessFunction.none(2))
        t_fo = fit(d1, d0, fmap, FULLY_OBSERVED).theta
        t_mn = fit(d1, d0, fmap, mode).theta
        t_cc = fit(d1, d0, fmap, COMPLETE_CASE).theta
        assert np.array_equal(t_fo, t_mn)
        assert np.array_equal(t_fo, t_cc)

    def test_translation_invariance_location_family(self):
        rng = np.random.default_rng(24)
        d1, d0 = _gaussian_pair(rng, 100_000, mu1=0.5, d=1)
        shift = 3.7
        model_a = fit(d1, d0, FeatureMap.identity(1))
        model_b = fit(
            Dataset(d1.values + shift, 1),
            Dataset(d0.values + shift, 0),
            FeatureMap.identity(1),
        )
        assert abs(model_a.theta[0] - model_b.theta[0]) < 1e-6

    def test_not_converged_flag(self):
        # A constant class-0 feature makes the loss linear in theta, so it is
        # unbounded below: the Hessian is zero and the solver stops at once.
        rng = np.random.default_rng(25)
        d1 = Dataset(rng.normal(0.5, 1.0, size=(200, 1)), 1)
        d0 = Dataset(np.full((200, 1), 1.0), 0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            model = fit(d1, d0, FeatureMap.identity(1))
        assert not model.converged

    def test_degenerate_variance_warns_not_fails(self):
        d1 = Dataset(np.array([[0.1], [0.2], [0.3]]), 1)
        d0 = Dataset(np.array([[1.0], [1.0], [1.0]]), 0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            fit(d1, d0, FeatureMap.identity(1))

    def test_msd_decreases_with_effective_size(self):
        # cheap shadow of the full rate check: median squared distance at
        # m_eff=125 strictly above m_eff=1000
        from mnar_dre.scenarios import generate, make_scenario, population_theta

        sc = make_scenario("gauss5d")
        tt = population_theta(sc)
        meds = []
        for n in (250, 2000):
            sq = []
            for rep in range(30):
                draw = generate(sc, n, np.random.default_rng((n, rep)))
                mode = Mnar(draw.phi1, draw.phi0)
                theta = fit(
                    draw.corrupted1, draw.corrupted0, FeatureMap.identity(5), mode
                ).theta
                sq.append(np.sum((theta - tt) ** 2))
            meds.append(np.median(sq))
        assert meds[1] < meds[0]


class TestNormalizingConstant:
    def test_theta_zero_no_missingness_exactly_one(self):
        from mnar_dre.model import LogLinearRatioModel

        d0 = Dataset(np.random.default_rng(31).normal(size=(57, 2)), 0)
        model_zero = LogLinearRatioModel(np.zeros(2), FeatureMap.identity(2))
        assert normalizing_constant(model_zero, d0) == 1.0

    def test_two_atom_enumeration(self):
        # Z0 on {-1, 2} with P(-1)=0.3; phi(-1)=0.6, phi(2)=0.2; theta = 0.7.
        # E[N-hat] = E[w * r(X)] = sum_z p(z) r(z) = E[r(Z0)] exactly.
        from mnar_dre.model import LogLinearRatioModel

        theta = 0.7
        model = LogLinearRatioModel(np.array([theta]), FeatureMap.identity(1))
        atoms, probs, phis = [-1.0, 2.0], [0.3, 0.7], [0.6, 0.2]
        target = sum(p * np.exp(theta * z) for z, p in zip(atoms, probs))
        phi_fn = MissingnessFunction.per_coordinate(
            [Tabulated(fn=lambda x: np.where(x < 0, 0.6, 0.2))]
        )
        total = 0.0
        for z, p, phi in zip(atoms, probs, phis):
            observed = Dataset(np.array([[z]]), 0)
            total += p * (1.0 - phi) * normalizing_constant(model, observed, phi_fn)
            # the missing outcome contributes n-hat = 0 (all weights zero is
            # an error for a whole sample; its expectation contribution is 0)
        assert total == pytest.approx(target, abs=1e-12)

    def test_lognormal_closed_form(self):
        rng = np.random.default_rng(32)
        d1, d0 = _gaussian_pair(rng, 100_000, mu1=0.5)
        model = fit(d1, d0, FeatureMap.identity(1))
        nhat = normalizing_constant(model, d0)
        theta = model.theta[0]
        target = np.exp(theta**2 / 2.0)  # E exp(theta Z), Z ~ N(0,1)
        r_vals = np.exp(theta * d0.values[:, 0])
        se = r_vals.std(ddof=1) / np.sqrt(d0.n)
        assert abs(nhat - target) < 3 * se

    def test_weighted_version(self):
        rng = np.random.default_rng(33)
        from mnar_dre.model import LogLinearRatioModel

        model = LogLinearRatioModel(np.array([0.4]), FeatureMap.identity(1))
        z0 = rng.normal(size=(50_000, 1))
        phi0 = MissingnessFunction.per_coordinate([ConstantProb(0.5)])
        x0 = phi0.corrupt(z0, rng)
        nhat = normalizing_constant(model, Dataset(x0, 0), phi0)
        assert nhat == pytest.approx(np.exp(0.08), abs=0.03)

    def test_all_missing_errors(self):
        from mnar_dre.model import LogLinearRatioModel

        model = LogLinearRatioModel(np.zeros(1), FeatureMap.identity(1))
        d0 = Dataset(np.full((4, 1), np.nan), 0)
        with pytest.raises(NumericError):
            normalizing_constant(
                model, d0, MissingnessFunction.per_coordinate([Zero()])
            )

    def test_missing_without_phi_rejected(self):
        from mnar_dre.model import LogLinearRatioModel

        model = LogLinearRatioModel(np.zeros(1), FeatureMap.identity(1))
        d0 = Dataset(np.array([[1.0], [np.nan]]), 0)
        with pytest.raises(DataError):
            normalizing_constant(model, d0, None)


class TestConfigValidation:
    def test_bad_params(self):
        rng = np.random.default_rng(34)
        d1, d0 = _gaussian_pair(rng, 20)
        with pytest.raises(ValueError, match="weighting mode"):
            fit(d1, d0, FeatureMap.identity(1), "bogus")
