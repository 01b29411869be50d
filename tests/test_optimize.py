import numpy as np
import pytest
from scipy.special import expit

from mnar_dre.kliep import (
    COMPLETE_CASE,
    FULLY_OBSERVED,
    ClassTerms,
    Mnar,
    _KliepCore,
    class_terms,
    fit,
)
from mnar_dre.missingness import _logistic_nll
from mnar_dre.model import Dataset, FeatureMap, HalfspaceIndicator, MissingnessFunction
from mnar_dre.optimize import GRAD_TOL, newton
from mnar_dre.scenarios import generate, make_scenario

from testkit import broadcast_hessian


class TestNewton:
    def test_quadratic_in_one_step(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, -1.0])
        res = newton(lambda t: (0.5 * t @ a @ t - b @ t, a @ t - b, a), np.zeros(2))
        assert res.converged and res.iterations == 1
        assert res.theta == pytest.approx(np.linalg.solve(a, b), abs=1e-12)
        assert res.grad_norm <= GRAD_TOL

    def test_unbounded_objective_stops_unconverged(self):
        # Linear loss: the Hessian is zero, lstsq gives a zero step.
        g = np.array([1.0, -2.0])
        res = newton(lambda t: (float(g @ t), g, np.zeros((2, 2))), np.zeros(2))
        assert not res.converged and res.iterations == 0
        assert res.grad_norm == pytest.approx(np.linalg.norm(g))

    def test_damping_keeps_a_far_start_convergent(self):
        # Undamped Newton on sqrt(1 + t^2) diverges from |t| > 1.
        def fun(t):
            r = np.sqrt(1.0 + t @ t)
            return float(r), t / r, (np.eye(1) - np.outer(t, t) / r**2) / r

        res = newton(fun, np.array([5.0]))
        assert res.converged and abs(res.theta[0]) <= GRAD_TOL

    def test_nonfinite_start_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            newton(lambda t: (np.inf, t, np.eye(1)), np.zeros(1))


def _corrupted_pair(rng, n=300, d=2):
    z1 = rng.normal(0.4, 1.0, size=(n, d))
    z0 = rng.normal(0.0, 1.0, size=(n, d))
    phi1 = MissingnessFunction.whole_point(
        HalfspaceIndicator(direction=np.ones(d), level=0.0, p=0.5)
    )
    phi0 = MissingnessFunction.none(d)
    return Dataset(phi1.corrupt(z1, rng), 1), Dataset(z0, 0), Mnar(phi1, phi0)


def _core(name, rng):
    if name == "logistic":
        z = rng.normal(size=300)
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(0.3 + 1.2 * z)))).astype(float)
        return _logistic_nll(z, y), 2
    if name == "population":
        # The population objective's Hessian is its log-MGF term's.
        return make_scenario("mixture2d").class0.log_mgf_grad_hess, 2
    d1, d0, mode = _corrupted_pair(rng)
    fmap = FeatureMap.identity_plus_squares(2)
    t1, t0 = class_terms(d1, fmap, mode, 1), class_terms(d0, fmap, mode, 0)
    return _KliepCore(t1, t0).loss_grad_hess, fmap.output_dim


@pytest.mark.parametrize("name", ["kliep", "logistic", "population"])
@pytest.mark.parametrize("seed", range(3))
def test_hessian_matches_central_differences_of_gradient(name, seed):
    rng = np.random.default_rng(seed)
    fun, d = _core(name, rng)
    theta = rng.normal(scale=0.3, size=d)
    _, _, hess = fun(theta)
    assert hess == pytest.approx(hess.T, rel=1e-12, abs=1e-15)
    h = 1e-6
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd = (fun(theta + e)[1] - fun(theta - e)[1]) / (2 * h)
        assert hess[:, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("scenario", ["mixture2d", "diff-var", "gauss5d"])
@pytest.mark.parametrize("n", [500, 5000])
@pytest.mark.parametrize("mode_name", ["mnar", "complete-case", "fully-observed"])
def test_every_fit_converges(scenario, n, mode_name):
    draw = generate(make_scenario(scenario), n, np.random.default_rng((n, 0)))
    fmap = FeatureMap.identity(draw.latent1.dim)
    if mode_name == "mnar":
        mode, d1, d0 = Mnar(draw.phi1, draw.phi0), draw.corrupted1, draw.corrupted0
    elif mode_name == "complete-case":
        mode, d1, d0 = COMPLETE_CASE, draw.corrupted1, draw.corrupted0
    else:
        mode, d1, d0 = FULLY_OBSERVED, draw.latent1, draw.latent0
    model = fit(d1, d0, fmap, mode)
    assert model.converged
    core = _KliepCore(class_terms(d1, fmap, mode, 1), class_terms(d0, fmap, mode, 0))
    grad = core.loss_grad_hess(model.theta)[1]
    assert np.linalg.norm(grad) <= GRAD_TOL


_SIZES = [1, 2, 3, 500, 20000]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("underflow", [False, True])
def test_kliep_hessian_equals_the_broadcast_form_bit_for_bit(d, n, underflow):
    rng = np.random.default_rng((d, n))
    f0 = rng.normal(size=(n, d))
    w0 = np.logspace(-300.0, 0.0, n)
    rng.shuffle(w0)
    t1 = ClassTerms(rng.normal(size=(3, d)), np.ones(3), 3)
    core = _KliepCore(t1, ClassTerms(f0, w0, n))
    # A long theta leaves one tilted weight and underflows the rest to 0.
    theta = rng.normal(size=d) * (1e5 if underflow else 0.5)
    e = f0 @ theta + np.log(w0)
    e = np.exp(e - e.max())
    if underflow and n > 1:
        assert np.count_nonzero(e) == 1
    denom = e.sum()
    want = broadcast_hessian(f0, e / denom, (e @ f0) / denom)
    assert np.array_equal(core.loss_grad_hess(theta)[2], want)


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("scale", [0.5, 700.0])
def test_logistic_hessian_equals_the_broadcast_form_bit_for_bit(n, scale):
    # At scale 700 the weights p (1 - p) run down to about 1e-300.
    rng = np.random.default_rng(n)
    z = rng.uniform(-1.0, 1.0, size=n)
    y = (rng.random(n) < 0.5).astype(float)
    beta = np.array([0.1, scale])
    eta = beta[0] + beta[1] * z
    X = np.column_stack([np.ones(n), z])
    want = broadcast_hessian(X, expit(eta) * expit(-eta))
    assert np.array_equal(_logistic_nll(z, y)(beta)[2], want)
