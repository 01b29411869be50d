"""Synthetic data generators for the shipped experiment scenarios.

Every scenario's class distributions are Gaussian mixtures, which gives three
exact tools used throughout the experiments:

* sampling: the component labels are counted from uniforms, the same draw,
  and so the same stream, as ``rng.choice(k, size=n, p=w)``.  Then, one row
  block (``model.row_blocks``) at a time, standard normals are drawn, one
  matmul against every component's stacked Cholesky factor L_k' transforms
  them under all components, and each row keeps its own component's
  transform plus that component's mean.  Blocked draws give the numbers of
  one draw, so the blocks bound the temporaries and change no sample.
  ``sample_blocks`` yields the blocks as they are drawn, so a caller that
  only scores the draws, like a power replication's Monte Carlo test sets,
  never holds all n of them; ``sample`` writes the same blocks into one
  array,
* the analytic log density ratio ``Scenario.log_ratio``, which makes a
  scenario the oracle classifier's ratio model: each component's log
  density is log_norm_k - |W_k' z' - W_k' mu_k'|^2 / 2 with the whitening
  factor W_k = inv(L_k)'.  The points are evaluated component-major: one
  matmul against every W_k' stacked row-wise gives a (k d, n) array whose
  rows run over the points, each component's d rows of squares are summed,
  and the k rows of log densities are combined by one max-shifted
  log-sum-exp over the components,
* the exact population fit objective via the Gaussian MGF
  E[exp(theta'Z)] = sum_k w_k exp(theta'mu_k + theta'Sigma_k theta / 2),
  whose log, gradient and Hessian are closed-form, so the population-optimal
  parameter is found by the package's damped Newton solver
  (``optimize.newton``) rather than by plug-in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (
    Dataset,
    HalfspaceIndicator,
    LogisticScalar,
    MissingnessFunction,
    NumericError,
    row_blocks,
)
from .optimize import newton

SCENARIO_NAMES = (
    "gauss5d",
    "mixture2d",
    "mixture2d-logistic",
    "nb-rho",
    "diff-var",
    "vary-misspec",
)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A finite Gaussian mixture with exact pdf/MGF helpers."""

    weights: np.ndarray
    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        c = np.asarray(self.covs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        k, d = m.shape
        # The checks rng.choice(k, p=w) makes, which sample no longer calls.
        if w.shape != (k,):
            raise ValueError("mixture weights must be one per component")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("mixture weights must be finite and non-negative")
        if abs(w.sum() - 1.0) > np.sqrt(np.finfo(float).eps):
            raise ValueError("mixture weights must sum to 1")
        chols = np.linalg.cholesky(c)  # LinAlgError (a ValueError) unless PD
        log_diag = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)
        # W_k' (z - mu_k)' is standard normal under component k, W_k = inv(L_k)'.
        # Component-major: every inv(L_k) = W_k' stacked row-wise, and the
        # offset column of every W_k' mu_k'.
        inv_chols = np.linalg.inv(chols)
        object.__setattr__(self, "_whiten_rows", inv_chols.reshape(k * d, d))
        object.__setattr__(
            self, "_whiten_offsets", (inv_chols @ m[:, :, None]).reshape(k * d, 1)
        )
        # log w_k - log sqrt((2 pi)^d det Sigma_k), with log det = 2 sum log diag L_k;
        # a zero weight gives -inf.
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        object.__setattr__(
            self,
            "_log_norm",
            log_w - 0.5 * (2.0 * log_diag + d * np.log(2.0 * np.pi)),
        )
        # Every component's L_k' side by side: one matmul transforms a draw
        # under all components at once.
        object.__setattr__(
            self, "_chols_t_stacked", np.concatenate(chols.transpose(0, 2, 1), axis=1)
        )
        # rng.choice's normalized cdf: a uniform u picks the component that
        # searchsorted(cdf, u, side="right") would.
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample_blocks(
        self, n: int, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        """The n draws of ``sample``, yielded one row block
        (``model.row_blocks(n)``) at a time, as new (rows, d) arrays.

        The stream draws from ``rng`` only while it runs: the first block
        draws all n component labels, and every block then its own
        normals.  A caller that draws nothing else from ``rng`` until the
        stream is spent gets the numbers of ``sample`` and leaves the same
        generator state.
        """
        k, d = self.weights.size, self.dim
        # rng.choice(k, size=n, p=w) without its searchsorted: the same
        # random(n) draw, so the same labels and the same generator state.
        # Draw i's component is the number of cdf[:-1] entries at or below u_i.
        # Consecutive random and standard_normal calls give the numbers of
        # one call, so every draw is taken a row block at a time, which keeps
        # the temporaries cache-sized; all the uniforms still come before all
        # the normals, as in choice then standard_normal((n, d)).
        blocks = row_blocks(n)
        comp = np.empty(n, dtype=np.min_scalar_type(k))
        for rows in blocks:
            labels = comp[rows]
            u = rng.random(labels.size)
            labels.fill(0)
            for edge in self._cdf[:-1]:
                labels += u >= edge
        for rows in blocks:
            labels = comp[rows]
            b = labels.size
            eps = rng.standard_normal((b, d))
            # Row i of the (b k, d) candidates is draw i // k under component
            # i % k; one flat take keeps each draw's own component.  Each
            # temporary is freed once spent, which keeps a block's peak low
            # while the caller still holds the last block.
            cand = (eps @ self._chols_t_stacked).reshape(b * k, d)
            del eps
            block = cand.take(np.arange(0, b * k, k) + labels, axis=0)
            del cand
            block += self.means.take(labels, axis=0)
            yield block

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws, the blocks of ``sample_blocks`` written into one array."""
        out = np.empty((n, self.dim))
        for rows, block in zip(row_blocks(n), self.sample_blocks(n, rng)):
            out[rows] = block
        return out

    def log_pdf(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        k, d, n = self.weights.size, self.dim, z.shape[0]
        u = self._whiten_rows @ z.T  # (k d, n): row i d + j is coordinate j under i
        u -= self._whiten_offsets
        # Far points overflow the squares to inf and their log density to
        # -inf; no 0 * inf or inf - inf is ever formed, so no NaN either.
        with np.errstate(over="ignore", divide="ignore"):
            u *= u
            parts = u.reshape(k, d, n).sum(axis=1)  # (k, n)
            # Free the (k d, n) array before the fold allocates: a smaller
            # peak keeps the allocator from handing pages back to the OS and
            # faulting them in again on every call.
            del u
            parts *= -0.5
            parts += self._log_norm[:, None]
            # log sum_k exp(parts_k), shifted by each column's max; a column
            # that is -inf throughout is shifted by 0, as in scipy's logsumexp.
            top = parts.max(axis=0)
            top[top == -np.inf] = 0.0
            parts -= top
            np.exp(parts, out=parts)
            out = parts.sum(axis=0)
            np.log(out, out=out)
        out += top
        return out

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def log_mgf_grad_hess(
        self, theta: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """log E[exp(theta'Z)], its gradient and its Hessian, exactly.

        Component k contributes w_k exp(a_k) with a_k = theta'mu_k +
        theta'Sigma_k theta / 2, whose gradient is g_k = mu_k + Sigma_k theta.
        With p the softmax of log w_k + a_k, the gradient is the p-mean g of
        the g_k and the Hessian sum_k p_k (Sigma_k + (g_k - g)(g_k - g)').
        """
        cov_theta = self.covs @ theta  # (k, d)
        grads = self.means + cov_theta
        with np.errstate(divide="ignore"):  # a zero weight adds exp(-inf) = 0
            a = np.log(self.weights) + self.means @ theta + 0.5 * (cov_theta @ theta)
        m = a.max()
        p = np.exp(a - m)
        total = p.sum()
        p /= total
        grad = p @ grads
        centered = grads - grad
        hess = np.tensordot(p, self.covs, axes=1) + (centered.T * p) @ centered
        return float(m + np.log(total)), grad, hess


@dataclass(frozen=True, eq=False)
class Scenario:
    """A pair of class distributions plus the induced missingness pattern."""

    name: str
    class1: GaussianMixture
    class0: GaussianMixture
    induced_phi: MissingnessFunction  # applied to the corrupted class

    @property
    def dim(self) -> int:
        return self.class1.dim

    def log_ratio(self, z: np.ndarray) -> np.ndarray:
        """The true log density ratio, so a scenario is itself a ratio model."""
        return self.class1.log_pdf(z) - self.class0.log_pdf(z)

    def phi_pair(self, corrupt_class: int = 1):
        """(phi1, phi0) with the induced pattern on the chosen class."""
        none = MissingnessFunction.none(self.dim)
        if corrupt_class == 1:
            return self.induced_phi, none
        return none, self.induced_phi


def make_scenario(name: str, rho: float = 0.0) -> Scenario:
    """Construct one of the named synthetic scenarios.

    * gauss5d            5-dim equal-covariance Gaussians, correctly specified
                         for identity features; one class loses whole points
                         at rate 0.5 above the hyperplane 1'z > 0.
    * mixture2d          2-dim Gaussian mixtures; class 1 loses whole points
                         at rate 0.9 where z2 > 2 (misspecified for identity
                         features).
    * mixture2d-logistic mixture2d with per-coordinate logistic missingness
                         (standardized per-dimension form), the variant used
                         to exercise missingness learning.
    * nb-rho             correlated 2-dim Gaussians (correlation rho) with
                         opposite per-coordinate halfspace missingness, for
                         the factorized-model stress test.
    * diff-var           unequal covariances, misspecified under identity
                         features.
    * vary-misspec       class 1 a two-component mixture with weight rho on
                         the far component; rho tunes the misspecification.
    """
    I2 = np.eye(2)
    if name == "gauss5d":
        d = 5
        return Scenario(
            name=name,
            class1=GaussianMixture([1.0], [np.full(d, 0.1)], [np.eye(d)]),
            class0=GaussianMixture([1.0], [np.zeros(d)], [np.eye(d)]),
            induced_phi=MissingnessFunction.whole_point(
                HalfspaceIndicator(direction=np.ones(d), level=0.0, p=0.5)
            ),
        )
    if name in ("mixture2d", "mixture2d-logistic"):
        class1 = GaussianMixture(
            [0.5, 0.5], [[0.0, 0.0], [-1.0, 4.0]], [I2, I2]
        )
        class0 = GaussianMixture(
            [0.5, 0.5], [[1.0, 0.0], [0.0, 4.0]], [I2, I2]
        )
        if name == "mixture2d":
            phi = MissingnessFunction.whole_point(
                HalfspaceIndicator(direction=np.array([0.0, 1.0]), level=2.0, p=0.9)
            )
        else:
            # Standardized per-dimension logistic: phi_j(z) rises with
            # (z - mu_j)/sigma_j, so roughly half of each column goes missing.
            mu = class1.mean()
            var = class1.weights @ (
                np.array([np.diag(c) for c in class1.covs])
                + (class1.means - mu) ** 2
            )
            sigma = np.sqrt(var)
            phi = MissingnessFunction.per_coordinate(
                [
                    LogisticScalar(a0=-mu[j] / sigma[j], a1=1.0 / sigma[j], tau=-1)
                    for j in range(2)
                ]
            )
        return Scenario(name=name, class1=class1, class0=class0, induced_phi=phi)
    if name == "nb-rho":
        if not -1.0 < rho < 1.0:
            raise ValueError("correlation must lie in (-1, 1)")
        cov = np.array([[1.0, rho], [rho, 1.0]])
        return Scenario(
            name=name,
            class1=GaussianMixture([1.0], [[0.0, 0.0]], [cov]),
            class0=GaussianMixture([1.0], [[1.0, 2.0]], [cov]),
            induced_phi=MissingnessFunction.per_coordinate(
                [
                    HalfspaceIndicator(direction=np.array([1.0]), level=0.0, p=0.8),
                    HalfspaceIndicator(direction=np.array([-1.0]), level=0.0, p=0.8),
                ]
            ),
        )
    if name == "diff-var":
        return Scenario(
            name=name,
            class1=GaussianMixture([1.0], [[0.0, 0.0]], [I2]),
            class0=GaussianMixture([1.0], [[1.0, 1.0]], [np.diag([1.0, 2.0])]),
            induced_phi=MissingnessFunction.whole_point(
                HalfspaceIndicator(direction=np.array([1.0, 0.0]), level=0.0, p=0.8)
            ),
        )
    if name == "vary-misspec":
        if not 0.0 <= rho <= 0.5:
            raise ValueError("misspecification weight must lie in [0, 0.5]")
        return Scenario(
            name=name,
            class1=GaussianMixture(
                [1.0 - rho, rho], [[0.0, 0.0], [2.0, 0.0]], [I2, I2]
            )
            if rho > 0.0
            else GaussianMixture([1.0], [[0.0, 0.0]], [I2]),
            class0=GaussianMixture([1.0], [[1.0, 0.0]], [I2]),
            induced_phi=MissingnessFunction.whole_point(
                HalfspaceIndicator(direction=np.array([1.0, 0.0]), level=0.0, p=0.8)
            ),
        )
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


@dataclass(frozen=True, eq=False)
class SyntheticDraw:
    """One replication's data: latent, corrupted, and the missingness truth."""

    latent1: Dataset
    latent0: Dataset
    corrupted1: Dataset
    corrupted0: Dataset
    phi1: MissingnessFunction
    phi0: MissingnessFunction


def generate(
    scenario: Scenario,
    n: int,
    rng: np.random.Generator,
    corrupt_class: int = 1,
) -> SyntheticDraw:
    """Draw n points per class from ``rng`` and corrupt the chosen class.

    The class left uncorrupted is one ``Dataset``, both its latent and its
    corrupted data.
    """
    if corrupt_class not in (0, 1):
        raise ValueError("corrupt_class must be 0 or 1")
    latent1 = Dataset(scenario.class1.sample(n, rng), 1)
    latent0 = Dataset(scenario.class0.sample(n, rng), 0)
    phi1, phi0 = scenario.phi_pair(corrupt_class)
    if corrupt_class == 1:
        corrupted1 = Dataset(phi1.corrupt(latent1.values, rng), 1)
        corrupted0 = latent0
    else:
        corrupted1 = latent1
        corrupted0 = Dataset(phi0.corrupt(latent0.values, rng), 0)
    return SyntheticDraw(
        latent1=latent1,
        latent0=latent0,
        corrupted1=corrupted1,
        corrupted0=corrupted0,
        phi1=phi1,
        phi0=phi0,
    )


# ---------------------------------------------------------------------------
# Population-optimal parameter oracle
# ---------------------------------------------------------------------------


def population_theta(scenario: Scenario) -> np.ndarray:
    """Population-optimal parameter: the minimizer of the exact population
    objective -E[theta'Z^1] + log E[exp(theta'Z^0)] by damped Newton
    (``optimize.newton``) from theta = 0.  Identity features only (all shipped
    scenarios fit with f(z) = z).

    This is the target the estimators are measured against in the distance
    experiments; it exists in closed form only for equal-covariance Gaussian
    pairs, so it is always computed numerically here.  A solve that does not
    reach ``optimize.GRAD_TOL`` raises ``NumericError``.
    """
    mean1 = scenario.class1.mean()

    def loss_grad_hess(theta: np.ndarray):
        log_mgf, grad, hess = scenario.class0.log_mgf_grad_hess(theta)
        return log_mgf - float(mean1 @ theta), grad - mean1, hess

    result = newton(loss_grad_hess, np.zeros(scenario.dim))
    if not result.converged:
        raise NumericError(
            f"population parameter of scenario {scenario.name!r} did not "
            f"converge: gradient norm {result.grad_norm:.3g} after "
            f"{result.iterations} Newton steps"
        )
    return result.theta
