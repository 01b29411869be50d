import numpy as np
import pytest

from mnar_dre.model import ROW_BLOCK, row_blocks
from mnar_dre.scenarios import (
    GaussianMixture,
    SCENARIO_NAMES,
    generate,
    make_scenario,
    population_theta,
)

from testkit import population_theta_plugin, traced_peak


class TestGenerate:
    def test_deterministic_per_seed(self):
        sc = make_scenario("mixture2d")
        a = generate(sc, 200, np.random.default_rng(42))
        b = generate(sc, 200, np.random.default_rng(42))
        assert np.array_equal(a.latent1.values, b.latent1.values)
        assert np.array_equal(a.corrupted1.values, b.corrupted1.values, equal_nan=True)

    def test_gauss5d_latent_mean(self):
        sc = make_scenario("gauss5d")
        n = 20_000
        draw = generate(sc, n, np.random.default_rng(0))
        mean = draw.latent1.values.mean(axis=0)
        assert np.all(np.abs(mean - 0.1) < 4.0 / np.sqrt(n))
        assert np.all(np.abs(draw.latent0.values.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_mixture2d_missingness_pattern(self):
        sc = make_scenario("mixture2d")
        draw = generate(sc, 40_000, np.random.default_rng(1))
        above = draw.latent1.values[:, 1] > 2.0
        missing = np.isnan(draw.corrupted1.values).all(axis=1)
        assert missing[~above].sum() == 0
        assert missing[above].mean() == pytest.approx(0.9, abs=0.02)
        assert draw.corrupted0.fully_observed

    def test_nb_rho_per_coordinate_pattern(self):
        sc = make_scenario("nb-rho", rho=0.25)
        draw = generate(sc, 30_000, np.random.default_rng(2))
        z = draw.latent1.values
        x = draw.corrupted1.values
        # coordinate 0 goes missing only where z0 > 0, coordinate 1 only z1 < 0
        assert not np.isnan(x[z[:, 0] <= 0, 0]).any()
        assert np.isnan(x[z[:, 0] > 0, 0]).mean() == pytest.approx(0.8, abs=0.02)
        assert not np.isnan(x[z[:, 1] >= 0, 1]).any()
        assert np.isnan(x[z[:, 1] < 0, 1]).mean() == pytest.approx(0.8, abs=0.02)

    def test_corrupt_class_zero_knob(self):
        sc = make_scenario("gauss5d")
        draw = generate(sc, 500, np.random.default_rng(3), corrupt_class=0)
        assert draw.corrupted1.fully_observed
        assert not draw.corrupted0.fully_observed

    def test_true_log_ratio_zero_at_symmetry_point(self):
        sc = make_scenario("gauss5d")
        # log r(z) = mu1'z - ||mu1||^2/2 vanishes on the hyperplane
        # mu1'z = ||mu1||^2 / 2; pick z = mu1/2 plus an orthogonal shift
        mu1 = np.full(5, 0.1)
        v = np.array([1.0, -1.0, 0.0, 0.0, 0.0])  # orthogonal to mu1
        z = (mu1 / 2.0 + 3.0 * v)[None, :]
        assert sc.log_ratio(z)[0] == pytest.approx(0.0, abs=1e-12)

    def test_mixture_log_ratio_matches_direct_density(self):
        from scipy.stats import multivariate_normal as mvn

        sc = make_scenario("mixture2d")
        z = np.random.default_rng(5).normal(size=(50, 2), scale=2.0)
        p1 = 0.5 * mvn.pdf(z, [0, 0], np.eye(2)) + 0.5 * mvn.pdf(z, [-1, 4], np.eye(2))
        p0 = 0.5 * mvn.pdf(z, [1, 0], np.eye(2)) + 0.5 * mvn.pdf(z, [0, 4], np.eye(2))
        assert sc.log_ratio(z) == pytest.approx(np.log(p1 / p0), rel=1e-9)

    def test_vary_misspec_rho_zero_is_single_gaussian(self):
        sc = make_scenario("vary-misspec", rho=0.0)
        assert sc.class1.weights.size == 1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("bogus")
        for name in SCENARIO_NAMES:
            make_scenario(name, rho=0.25 if name in ("nb-rho", "vary-misspec") else 0.0)


class TestPopulationTheta:
    def test_gauss5d_positive_mean_shift(self):
        # numerical minimization of the exact population objective settles the
        # sign: the optimum is +mu1, the mean shift itself
        sc = make_scenario("gauss5d")
        theta = population_theta(sc)
        assert theta == pytest.approx(np.full(5, 0.1), abs=1e-12)

    @pytest.mark.parametrize("name", ["mixture2d", "diff-var", "vary-misspec"])
    def test_log_mgf_derivatives_match_finite_differences(self, name):
        mix = make_scenario(name, 0.3 if name == "vary-misspec" else 0.0).class1
        theta = np.array([0.3, -0.2])
        _, grad, hess = mix.log_mgf_grad_hess(theta)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = mix.log_mgf_grad_hess(theta + e)
            dn = mix.log_mgf_grad_hess(theta - e)
            assert (up[0] - dn[0]) / (2 * h) == pytest.approx(grad[i], abs=1e-8)
            assert (up[1] - dn[1]) / (2 * h) == pytest.approx(hess[:, i], abs=1e-7)

    def test_plugin_oracle_agrees_with_exact(self):
        sc = make_scenario("mixture2d")
        exact = population_theta(sc)
        plugin = population_theta_plugin(sc, n_draws=200_000, seed=1, restarts=1)
        assert plugin == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.6, 0.9])
    def test_nb_rho_exact_linear_coefficients(self, rho):
        # equal-covariance Gaussians: optimal identity-feature coefficients
        # are Sigma^-1 (mu1 - mu0)
        sc = make_scenario("nb-rho", rho=rho)
        theta = population_theta(sc)
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        expected = np.linalg.solve(sigma, np.array([-1.0, -2.0]))
        assert theta == pytest.approx(expected, abs=1e-12)


def _scenarios():
    """Every scenario, with nb-rho correlated and vary-misspec a true mixture."""
    params = {"nb-rho": 0.6, "vary-misspec": 0.3}
    return [make_scenario(name, params.get(name, 0.0)) for name in SCENARIO_NAMES]


# Sizes on each side of one row block, and three blocks and a row: sample and
# classify work a block at a time, and their results may not show where the
# blocks end.
_BLOCK_EDGES = [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 1]


def _masked_sample(mix, n, rng):
    """The per-component boolean-mask sampler, kept as a bit-exact oracle."""
    comp = rng.choice(mix.weights.size, size=n, p=mix.weights)
    eps = rng.standard_normal((n, mix.dim))
    out = np.empty((n, mix.dim))
    for k in range(mix.weights.size):
        mask = comp == k
        out[mask] = mix.means[k] + eps[mask] @ np.linalg.cholesky(mix.covs[k]).T
    return out


def _component_loop_log_pdf(mix, z):
    """The per-component row-major loop, kept as an oracle: one (n, d)
    whitening per component, folded with logaddexp."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    out = None
    for w, mu, cov in zip(mix.weights, mix.means, mix.covs):
        chol = np.linalg.cholesky(cov)
        u = (z - mu) @ np.linalg.inv(chol).T
        log_det_half = np.log(np.diag(chol)).sum()
        log_norm = np.log(w) - log_det_half - 0.5 * mix.dim * np.log(2 * np.pi)
        with np.errstate(over="ignore"):
            part = log_norm - 0.5 * np.einsum("ij,ij->i", u, u)
        out = part if out is None else np.logaddexp(out, part)
    return out


def _scipy_log_pdf(mix, z):
    from scipy.special import logsumexp
    from scipy.stats import multivariate_normal as mvn

    z = np.atleast_2d(z)
    with np.errstate(over="ignore"):
        parts = [
            np.log(w) + np.atleast_1d(mvn.logpdf(z, mean=mu, cov=cov))
            for w, mu, cov in zip(mix.weights, mix.means, mix.covs)
        ]
    return logsumexp(np.column_stack(parts), axis=1)


def _three_component_mixture():
    """d = 3, unequal weights, non-diagonal covariances."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3, 3))
    return GaussianMixture(
        weights=np.array([0.2, 0.5, 0.3]),
        means=rng.normal(scale=2.0, size=(3, 3)),
        covs=a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3),
    )


def _far_points(dim):
    """Scattered points, then far ones where every linear-space density
    underflows to 0."""
    z = np.random.default_rng(11).normal(scale=2.0, size=(200, dim))
    far = 40.0 * np.eye(dim)
    return np.vstack([z, far, -far])


def _overflow_points(dim):
    """Finite points whose squared whitened coordinates overflow to inf, so
    every log density is -inf: [1e200, 0], [0, -1e200] and [1e300, 1e300],
    padded with zeros or 1e300 to ``dim`` coordinates."""
    z = np.zeros((3, dim))
    z[0, 0] = 1e200
    z[1, 1 % dim] = -1e200
    z[2] = 1e300
    return z


class TestGaussianMixture:
    @pytest.mark.parametrize("sc", _scenarios(), ids=lambda sc: sc.name)
    def test_log_pdf_matches_scipy_components(self, sc):
        from scipy.stats import multivariate_normal as mvn

        z = _far_points(sc.dim)
        far = z[-2 * sc.dim : -sc.dim]
        assert not np.any(mvn.pdf(far, sc.class1.means[0], sc.class1.covs[0]))
        z = np.vstack([z, _overflow_points(sc.dim)])
        for mix in (sc.class1, sc.class0):
            got = mix.log_pdf(z)
            assert np.all(np.isfinite(got[:-3]))
            assert np.all(got[-3:] == -np.inf)
            np.testing.assert_allclose(got, _scipy_log_pdf(mix, z), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                got, _component_loop_log_pdf(mix, z), rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize(
        "layout",
        ["scattered", "far", "overflow", "single-point", "fortran-order",
         "column-sliced"],
    )
    def test_log_pdf_matches_the_component_loop_and_scipy(self, layout):
        mix = _three_component_mixture()
        z = _far_points(3)
        if layout == "scattered":
            z = z[:200]
        elif layout == "overflow":
            z = _overflow_points(3)
        elif layout == "single-point":
            z = z[7]
        elif layout == "fortran-order":
            z = np.asfortranarray(z)
        elif layout == "column-sliced":
            wide = np.zeros((z.shape[0], 6))
            wide[:, ::2] = z
            z = wide[:, ::2]
            assert not z.flags.c_contiguous and not z.flags.f_contiguous
        got = mix.log_pdf(z)
        assert got.shape == (np.atleast_2d(z).shape[0],)
        if layout == "overflow":
            assert np.all(got == -np.inf)
        else:
            assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _scipy_log_pdf(mix, z), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            got, _component_loop_log_pdf(mix, z), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_log_pdf_of_no_points_is_empty(self, k):
        mix = _three_component_mixture() if k == 3 else make_scenario("gauss5d").class0
        z = np.empty((0, mix.dim))
        assert mix.log_pdf(z).shape == (0,)
        assert _component_loop_log_pdf(mix, z).shape == (0,)

    @pytest.mark.parametrize("sc", _scenarios(), ids=lambda sc: sc.name)
    def test_true_log_ratio_matches_the_component_loop(self, sc):
        z = np.random.default_rng(13).normal(scale=2.0, size=(2000, sc.dim))
        expected = _component_loop_log_pdf(sc.class1, z) - _component_loop_log_pdf(
            sc.class0, z
        )
        np.testing.assert_allclose(
            sc.log_ratio(z), expected, rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize(
        "name",
        ["gauss5d", "nb-rho", "mixture2d", "vary-misspec", "mixture2d-logistic",
         "diff-var"],
    )
    @pytest.mark.parametrize("n", [0, 1, 1000, 100000] + _BLOCK_EDGES)
    def test_sample_bit_identical_to_masked_sampler(self, name, n):
        # gauss5d and nb-rho have one component: the sampler must still draw
        # the component labels, or the normals come from another stream.
        sc = make_scenario(name, 0.3 if name in ("nb-rho", "vary-misspec") else 0.0)
        for mix in (sc.class1, sc.class0):
            rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
            got = mix.sample(n, rng)
            expected = _masked_sample(mix, n, oracle_rng)
            assert got.shape == (n, mix.dim)
            assert np.array_equal(got, expected)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1] + _BLOCK_EDGES)
    def test_sample_blocks_concatenate_to_sample(self, n):
        # The blocks are those of row_blocks(n), each a new array, and the
        # spent stream leaves the generator where sample leaves it.
        for mix in (make_scenario("mixture2d").class1, _three_component_mixture()):
            rng, whole_rng = np.random.default_rng(8), np.random.default_rng(8)
            blocks = list(mix.sample_blocks(n, rng))
            whole = mix.sample(n, whole_rng)
            assert [b.shape[0] for b in blocks] == [
                rows.stop - rows.start for rows in row_blocks(n)
            ]
            assert all(b.flags.c_contiguous and b.flags.owndata for b in blocks)
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
            assert rng.bit_generator.state == whole_rng.bit_generator.state

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [0.3, 0.7],
            [1e-9, 1.0 - 1e-9],
            [0.2, 0.5, 0.3],
            [0.5, 0.0, 0.5],
            [0.1, 0.2, 0.3, 0.4],
            [0.97, 0.01, 0.01, 0.01],
            [1e-6, 1e-6, 0.5, 0.5 - 2e-6],
        ],
    )
    @pytest.mark.parametrize("n", [0, 1, 7, 100000] + _BLOCK_EDGES)
    def test_sample_draws_the_components_rng_choice_draws(self, weights, n):
        # sample replaces rng.choice(k, size=n, p=w) by its own count over
        # the cdf; the labels and the stream must stay choice's own.  Means
        # 10 apart with sd 0.1 let each draw's component be read back.
        k = len(weights)
        mix = GaussianMixture(
            weights=np.array(weights),
            means=np.column_stack([10.0 * np.arange(k), np.zeros(k)]),
            covs=np.tile(0.01 * np.eye(2), (k, 1, 1)),
        )
        for seed in (0, 1, 2, 12345):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mix.sample(n, rng)
            comp = oracle_rng.choice(k, size=n, p=mix.weights)
            oracle_rng.standard_normal((n, 2))
            assert np.array_equal(np.rint(got[:, 0] / 10.0).astype(int), comp)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_sample_peak_memory_is_its_result_plus_four_blocks(self):
        # Bound fixed before the first run: the (n, d) result, the n labels,
        # and four blocks of ROW_BLOCK rows of k d float64 (the block that
        # sample_blocks last yielded, which sample still holds, and the next
        # block's normals, their transforms under every component and its
        # rows taken from them).  Unblocked, 100k gauss5d rows peaked at
        # 16.8 MB against a 4.0 MB result.
        mix = make_scenario("gauss5d").class1
        k, d, n = mix.weights.size, mix.dim, 100_000
        out, peak = traced_peak(lambda: mix.sample(n, np.random.default_rng(0)))
        assert out.nbytes == n * d * 8
        labels = n * np.min_scalar_type(k).itemsize
        assert peak <= out.nbytes + labels + 4 * ROW_BLOCK * k * d * 8

    def test_zero_weight_component_adds_nothing(self):
        three = GaussianMixture(
            weights=np.array([0.5, 0.0, 0.5]),
            means=np.array([[0.0, 0.0], [5.0, 5.0], [-1.0, 4.0]]),
            covs=np.tile(np.eye(2), (3, 1, 1)),
        )
        two = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [-1.0, 4.0]]),
            covs=np.tile(np.eye(2), (2, 1, 1)),
        )
        z = np.vstack([_far_points(2), _overflow_points(2)])
        np.testing.assert_allclose(three.log_pdf(z), two.log_pdf(z), rtol=1e-15, atol=0.0)
        theta = np.array([0.3, -0.2])
        for got, want in zip(three.log_mgf_grad_hess(theta), two.log_mgf_grad_hess(theta)):
            np.testing.assert_allclose(got, want, rtol=1e-15)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([1.5, -0.5], "non-negative"),
            ([np.nan, 1.0], "finite"),
            ([np.inf, 0.0], "finite"),
            ([0.5, 0.5 + 1e-7], "sum to 1"),
            ([0.5, 0.5, 0.0], "one per component"),
        ],
    )
    def test_invalid_weights_raise(self, weights, match):
        # The same cases rng.choice refuses, at its sum tolerance sqrt(eps).
        p = np.array(weights)
        if p.size == 2:
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, size=3, p=p)
        with pytest.raises(ValueError, match=match):
            GaussianMixture(
                weights=p, means=np.zeros((2, 2)), covs=np.tile(np.eye(2), (2, 1, 1))
            )

    def test_weights_within_the_sum_tolerance_are_accepted(self):
        p = np.array([0.5, 0.5 + 1e-9])
        np.random.default_rng(0).choice(2, size=3, p=p)
        GaussianMixture(weights=p, means=np.zeros((2, 2)), covs=np.tile(np.eye(2), (2, 1, 1)))

    @pytest.mark.parametrize(
        "cov",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[1.0, 1.0], [1.0, 1.0]],  # singular
            [[-1.0, 0.0], [0.0, 1.0]],  # negative variance
        ],
    )
    def test_non_positive_definite_covariance_raises(self, cov):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture(weights=np.array([1.0]), means=np.zeros((1, 2)), covs=np.array([cov]))
