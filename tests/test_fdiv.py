import numpy as np
import pytest

from mnar_dre.fdiv import fdiv_fit, fdiv_objective
from mnar_dre.kliep import FULLY_OBSERVED, Mnar, sample_objective
from mnar_dre.model import (
    Dataset,
    FeatureMap,
    HalfspaceIndicator,
    MissingnessFunction,
)


def _pair(rng, n, mu1=0.5, d=1):
    return (
        Dataset(rng.normal(mu1, 1.0, size=(n, d)), 1),
        Dataset(rng.normal(0.0, 1.0, size=(n, d)), 0),
    )


def _corrupted_pair(rng, n=300, d=2):
    z1 = rng.normal(0.4, 1.0, size=(n, d))
    z0 = rng.normal(0.0, 1.0, size=(n, d))
    phi1 = MissingnessFunction.whole_point(
        HalfspaceIndicator(direction=np.ones(d), level=0.0, p=0.5)
    )
    phi0 = MissingnessFunction.none(d)
    return Dataset(phi1.corrupt(z1, rng), 1), Dataset(z0, 0), Mnar(phi1, phi0)


# Textbook maps of the two divergences: f' of the ratio r and the convex
# conjugate f* of t.  The estimator never evaluates them; it works with the
# composed forms in log-ratio space, which these oracles check.
TEXTBOOK = {
    "kl": (lambda r: 1.0 + np.log(r), lambda t: np.exp(t - 1.0)),
    "js": (lambda r: np.log(2.0 * r / (1.0 + r)), lambda t: -np.log(2.0 - np.exp(t))),
}


def _one_point_loss(kind, theta, x1, x0):
    """Objective on one-point samples: f*(f'(r(x0))) - f'(r(x1))."""
    return fdiv_objective(
        np.array([theta]),
        Dataset(np.array([[x1]]), 1),
        Dataset(np.array([[x0]]), 0),
        FeatureMap.identity(1),
        kind,
    ).loss


class TestDivergenceSpecs:
    def test_kl_textbook_maps(self):
        fprime, fstar = TEXTBOOK["kl"]
        t = np.array([0.5, 1.0, 3.0])
        assert fstar(fprime(t)) == pytest.approx(t)  # f*(f'(r)) = r
        x1, x0 = 0.7, -0.2
        for theta in (-1.3, 0.0, 0.4, 2.0):
            r1, r0 = np.exp(theta * x1), np.exp(theta * x0)
            expected = fstar(fprime(r0)) - fprime(r1)
            assert _one_point_loss("kl", theta, x1, x0) == pytest.approx(expected, rel=1e-12)

    def test_js_textbook_maps(self):
        fprime, fstar = TEXTBOOK["js"]
        r = np.array([0.25, 1.0, 4.0])
        assert np.all(fprime(r) < np.log(2.0))  # f*'s domain
        # composed form used by the estimator: f*(f'(r)) = log((1+r)/2)
        assert fstar(fprime(r)) == pytest.approx(np.log((1.0 + r) / 2.0))
        x1, x0 = 0.7, -0.2
        for theta in (-1.3, 0.0, 0.4, 2.0):
            r1, r0 = np.exp(theta * x1), np.exp(theta * x0)
            expected = fstar(fprime(r0)) - fprime(r1)
            assert _one_point_loss("js", theta, x1, x0) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    def test_lookup(self):
        for kind in ("kl", "js"):
            assert np.isfinite(_one_point_loss(kind, 0.3, 1.0, 0.0))
        with pytest.raises(ValueError, match="unknown divergence"):
            _one_point_loss("chi2", 0.3, 1.0, 0.0)
        rng = np.random.default_rng(1)
        d1, d0 = _pair(rng, 20)
        with pytest.raises(ValueError, match="unknown divergence"):
            fdiv_fit(d1, d0, FeatureMap.identity(1), "chi2")


class TestObjective:
    @pytest.mark.parametrize("kind", ["kl", "js"])
    def test_theta_zero_loss_zero_no_missingness(self, kind):
        rng = np.random.default_rng(0)
        d1, d0 = _pair(rng, 50, d=2)
        val = fdiv_objective(
            np.zeros(2), d1, d0, FeatureMap.identity(2), kind
        )
        assert val.loss == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["kl", "js"])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        d1, d0, mode = _corrupted_pair(rng)
        fmap = FeatureMap.identity(2)
        theta = rng.normal(scale=0.4, size=2)
        val = fdiv_objective(theta, d1, d0, fmap, kind, mode)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = fdiv_objective(theta + e, d1, d0, fmap, kind, mode).loss
            dn = fdiv_objective(theta - e, d1, d0, fmap, kind, mode).loss
            fd = (up - dn) / (2 * h)
            rel = abs(fd - val.gradient[i]) / max(abs(val.gradient[i]), 1e-8)
            assert rel < 1e-5

    @pytest.mark.parametrize("kind", ["kl", "js"])
    def test_mnar_zero_phi_bit_identical(self, kind):
        rng = np.random.default_rng(7)
        d1, d0 = _pair(rng, 80, d=2)
        fmap = FeatureMap.identity(2)
        theta = np.array([0.2, -0.4])
        mode = Mnar(MissingnessFunction.none(2), MissingnessFunction.none(2))
        a = fdiv_objective(theta, d1, d0, fmap, kind, FULLY_OBSERVED)
        b = fdiv_objective(theta, d1, d0, fmap, kind, mode)
        assert a.loss == b.loss
        assert np.array_equal(a.gradient, b.gradient)

    def test_kl_gradient_equals_kliep_gradient_when_normalized(self):
        # With an intercept feature set so that the weighted class-0 mean of
        # r is exactly 1, the KL-divergence gradient coincides with the
        # KLIEP gradient (the only difference is log E[r] vs E[r] - const).
        rng = np.random.default_rng(8)
        d1, d0 = _pair(rng, 120, d=1)
        fmap = FeatureMap.custom(
            lambda z: np.hstack([z, np.ones((z.shape[0], 1))]), 1, 2
        )
        theta = np.array([0.6, 0.0])
        # choose the intercept so (1/n0) sum exp(theta' f) = 1
        s = d0.values[:, 0] * theta[0]
        theta[1] = -np.log(np.mean(np.exp(s)))
        kl_grad = fdiv_objective(
            theta, d1, d0, fmap, "kl", FULLY_OBSERVED
        ).gradient
        kliep_grad = sample_objective(theta, d1, d0, fmap, FULLY_OBSERVED).gradient
        assert kl_grad == pytest.approx(kliep_grad, abs=1e-8)


class TestFit:
    def test_kl_gaussian_recovery_with_square_features(self):
        # log r*(z) = 0.5 z - 0.125 for N(0.5,1) vs N(0,1); under (z, z^2)
        # features the population argmax sits within 0.04 of (0.5, 0).
        rng = np.random.default_rng(41)
        d1, d0 = _pair(rng, 100_000)
        model = fdiv_fit(d1, d0, FeatureMap.identity_plus_squares(1), "kl")
        assert abs(model.theta[0] - 0.5) < 0.05
        assert abs(model.theta[1] - 0.0) < 0.05

    @pytest.mark.parametrize("kind", ["kl", "js"])
    def test_identical_classes(self, kind):
        rng = np.random.default_rng(42)
        d1, d0 = _pair(rng, 100_000, mu1=0.0, d=2)
        model = fdiv_fit(d1, d0, FeatureMap.identity(2), kind)
        assert np.linalg.norm(model.theta) <= 0.05

    @pytest.mark.parametrize("kind", ["kl", "js"])
    def test_mnar_zero_phi_fit_bit_identical(self, kind):
        rng = np.random.default_rng(43)
        d1, d0 = _pair(rng, 400, d=2)
        fmap = FeatureMap.identity(2)
        mode = Mnar(MissingnessFunction.none(2), MissingnessFunction.none(2))
        a = fdiv_fit(d1, d0, fmap, kind, FULLY_OBSERVED)
        b = fdiv_fit(d1, d0, fmap, kind, mode)
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("kind", ["kl", "js"])
    def test_weighted_fit_recovers_latent_data_fit(self, kind):
        # The inverse-probability weights make the corrupted-data objective an
        # unbiased estimate of the latent one, so the two fits must estimate
        # the same population parameter.
        rng = np.random.default_rng(44)
        n, d = 40_000, 2
        z1 = rng.normal(0.4, 1.0, size=(n, d))
        z0 = rng.normal(0.0, 1.0, size=(n, d))
        phi1 = MissingnessFunction.whole_point(
            HalfspaceIndicator(direction=np.ones(d), level=0.0, p=0.5)
        )
        phi0 = MissingnessFunction.none(d)
        x1 = Dataset(phi1.corrupt(z1, rng), 1)
        latent1, latent0 = Dataset(z1, 1), Dataset(z0, 0)
        fmap = FeatureMap.identity(2)
        weighted = fdiv_fit(x1, latent0, fmap, kind, Mnar(phi1, phi0))
        full = fdiv_fit(latent1, latent0, fmap, kind)
        assert weighted.theta == pytest.approx(full.theta, abs=0.06)
        # exact population argmax for the KL case: t e^{||t||^2/2} = ||mu||
        if kind == "kl":
            assert full.theta == pytest.approx([0.35311, 0.35311], abs=0.03)


def _population_fdiv_objective(kind, theta, atoms, p1, p0, feats):
    """Exact population objective on a discrete instance (enumeration)."""
    r = np.exp(theta * feats)
    if kind == "kl":
        term1 = np.sum(p1 * (1.0 + theta * feats))
        term0 = np.sum(p0 * r)
    else:
        fp = np.log(2.0 * r / (1.0 + r))
        term1 = np.sum(p1 * fp)
        term0 = np.sum(p0 * np.log((1.0 + r) / 2.0))
    return term1 - term0


@pytest.mark.parametrize("kind", ["kl", "js"])
def test_two_atom_population_argmax_is_true_ratio(kind):
    """Grid search plus golden-section refinement on the exact population
    objective of a correctly specified 2-atom instance: the argmax must be
    the true density ratio (theta = 1 under features f(z) = log r*(z))."""
    p1 = np.array([0.3, 0.7])
    p0 = np.array([0.6, 0.4])
    atoms = np.array([0.0, 1.0])
    feats = np.log(p1 / p0)  # so exp(theta * f) hits r* exactly at theta=1

    grid = np.linspace(-3.0, 5.0, 401)
    vals = [
        _population_fdiv_objective(kind, t, atoms, p1, p0, feats) for t in grid
    ]
    lo, hi = grid[int(np.argmax(vals)) - 1], grid[int(np.argmax(vals)) + 1]
    phi_ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-10:
        m1 = hi - phi_ratio * (hi - lo)
        m2 = lo + phi_ratio * (hi - lo)
        f1 = _population_fdiv_objective(kind, m1, atoms, p1, p0, feats)
        f2 = _population_fdiv_objective(kind, m2, atoms, p1, p0, feats)
        if f1 < f2:
            lo = m1
        else:
            hi = m2
    assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-6)
