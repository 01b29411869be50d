"""Replicated synthetic experiments: parameter-distance and power studies.

Replications are embarrassingly parallel; each replication derives its own
random stream from (seed, replication index) so results are identical for
any worker count, and aggregation sorts before reducing so tables are
byte-stable across reruns.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from . import kliep, naive_bayes
from .kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar
from .missingness import learn_missingness
from .model import Dataset, DataError, NumericError
from .np_classify import build_np_classifier, classify
from .scenarios import Scenario, SyntheticDraw, generate, make_scenario, population_theta

THETA_ESTIMATORS = ("mkliep", "cckliep", "kliep-oracle")
SCORE_ESTIMATORS = THETA_ESTIMATORS + (
    "true-ratio",
    "nb-mkliep",
    "nb-cckliep",
    "nb-kliep-oracle",
    "nb-mkliep-learned",
)


@dataclass(frozen=True)
class MsdConfig:
    """Parameter-distance experiment: squared distance of fits to the
    population-optimal parameter, per sample size and estimator."""

    scenario: str
    ns: tuple[int, ...]
    reps: int = 100
    seed: int = 0
    estimators: tuple[str, ...] = ("mkliep", "cckliep")
    rho: float = 0.0
    corrupt_class: int = 1
    ci_level: float = 0.99
    workers: int = 1

    def __post_init__(self):
        _check_counts(self, ("ns", "reps", "workers"))


@dataclass(frozen=True)
class PowerConfig:
    """Classification experiment: fit, calibrate a threshold on a fresh
    class-0 sample, and measure power / Type I error on fresh draws."""

    scenario: str
    ns: tuple[int, ...] = (500,)
    rhos: tuple[float, ...] | None = None  # sweep key when set (n fixed to ns[0])
    rho: float = 0.0  # scenario parameter for fixed-scenario n sweeps
    reps: int = 100
    seed: int = 0
    estimators: tuple[str, ...] = ("true-ratio", "mkliep", "cckliep")
    alpha: float = 0.1
    delta: float = 0.1
    n_test: int = 100_000
    n_type1: int = 100_000
    calibration_n: int | None = None
    threshold_rule: str = "auto"
    corrupt_class: int = 1
    queries: int = 10
    ci_level: float = 0.99
    workers: int = 1

    def __post_init__(self):
        _check_counts(
            self,
            ("ns", "reps", "n_test", "n_type1", "calibration_n", "queries", "workers"),
        )


class ConfigError(ValueError):
    """An experiment configuration that no replication can run."""


def _check_counts(cfg, fields: tuple[str, ...]) -> None:
    """Refuse a count below 1, naming the command-line flag that sets it."""
    for field in fields:
        value = getattr(cfg, field)
        for v in value if isinstance(value, tuple) else (value,):
            if v is not None and v < 1:
                flag = "--n" if field == "ns" else "--" + field.replace("_", "-")
                raise ConfigError(f"{flag} must be at least 1, got {v}")


def _make_scenario(name: str, rho: float) -> Scenario:
    try:
        return make_scenario(name, rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_estimators(scenario: Scenario, estimators, known: tuple[str, ...]) -> None:
    """Refuse, before any replication runs, an estimator the scenario cannot feed."""
    for name in estimators:
        if name not in known:
            raise ConfigError(f"unknown estimator {name!r}; choose from {known}")
        # nb-mkliep slices the true missingness per coordinate; whole-point
        # missingness has no per-coordinate form.
        if name == "nb-mkliep" and scenario.induced_phi.joint:
            raise ConfigError(
                f"estimator {name!r} needs per-coordinate missingness, but "
                f"scenario {scenario.name!r} loses whole points"
            )


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _fit_theta(name: str, draw: SyntheticDraw) -> np.ndarray:
    fmap = kliep.FeatureMap.identity(draw.latent1.dim)
    if name == "mkliep":
        mode = Mnar(draw.phi1, draw.phi0)
        return kliep.fit(draw.corrupted1, draw.corrupted0, fmap, mode).theta
    if name == "cckliep":
        return kliep.fit(draw.corrupted1, draw.corrupted0, fmap, COMPLETE_CASE).theta
    if name == "kliep-oracle":
        return kliep.fit(draw.latent1, draw.latent0, fmap, FULLY_OBSERVED).theta
    raise ValueError(f"unknown parameter estimator {name!r}")


def _fit_score(name: str, draw: SyntheticDraw, queries: int, rng: np.random.Generator):
    if name == "true-ratio":
        return draw.true_log_ratio
    if name in THETA_ESTIMATORS:
        theta = _fit_theta(name, draw)
        fmap = kliep.FeatureMap.identity(draw.latent1.dim)
        return kliep.LogLinearRatioModel(theta=theta, feature_map=fmap).log_ratio
    if name == "nb-mkliep":
        mode = Mnar(draw.phi1, draw.phi0)
        return naive_bayes.fit_naive_bayes(
            draw.corrupted1, draw.corrupted0, mode, set_normalizers=False
        ).log_ratio
    if name == "nb-cckliep":
        return naive_bayes.fit_naive_bayes(
            draw.corrupted1, draw.corrupted0, COMPLETE_CASE, set_normalizers=False
        ).log_ratio
    if name == "nb-kliep-oracle":
        return naive_bayes.fit_naive_bayes(
            draw.latent1, draw.latent0, FULLY_OBSERVED, set_normalizers=False
        ).log_ratio
    if name == "nb-mkliep-learned":
        phi1_hat = learn_missingness(draw.corrupted1, draw.latent1, queries, rng)
        phi0_hat = learn_missingness(draw.corrupted0, draw.latent0, queries, rng)
        return naive_bayes.fit_naive_bayes(
            draw.corrupted1, draw.corrupted0, Mnar(phi1_hat, phi0_hat),
            set_normalizers=False,
        ).log_ratio
    raise ValueError(f"unknown estimator {name!r}")


def _msd_rep(payload) -> dict[str, float]:
    cfg, scenario, n, rep, theta_tilde = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    out = {}
    for name in cfg.estimators:
        try:
            theta = _fit_theta(name, draw)
            out[name] = float(np.sum((theta - theta_tilde) ** 2))
        except (NumericError, DataError):
            out[name] = math.nan
    return out


def _power_rep(payload) -> dict[str, tuple[float, float, bool]]:
    cfg, scenario, n, rep = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    calib_n = n if cfg.calibration_n is None else cfg.calibration_n
    calib_values = scenario.class0.sample(calib_n, rng)
    if cfg.corrupt_class == 0:
        calib_values = draw.phi0.corrupt(calib_values, rng)
    calibration = Dataset(calib_values, 0)
    test1 = scenario.class1.sample(cfg.n_test, rng)
    test0 = scenario.class0.sample(cfg.n_type1, rng)
    out = {}
    for name in cfg.estimators:
        try:
            score_fn = _fit_score(name, draw, cfg.queries, rng)
            clf = build_np_classifier(
                score_fn,
                calibration,
                cfg.alpha,
                cfg.delta,
                phi0=draw.phi0,
                rule=cfg.threshold_rule,
            )
            power = float(classify(clf, test1).mean())
            type1 = float(classify(clf, test0).mean())
            out[name] = (power, type1, clf.provenance.degenerate)
        except (NumericError, DataError):
            out[name] = (math.nan, math.nan, False)
    return out


def _map_reps(worker, payloads, workers: int):
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _mean_ci_half(values: np.ndarray, level: float) -> tuple[float, float]:
    z = norm.ppf(0.5 + level / 2.0)
    m = float(values.mean())
    half = float(z * values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.inf
    return m, half


def run_msd_replications(cfg: MsdConfig) -> dict[int, dict[str, np.ndarray]]:
    """Squared distances to the population parameter, per n and estimator."""
    scenario = _make_scenario(cfg.scenario, cfg.rho)
    _check_estimators(scenario, cfg.estimators, THETA_ESTIMATORS)
    theta_tilde = population_theta(scenario)
    results: dict[int, dict[str, np.ndarray]] = {}
    for n in cfg.ns:
        payloads = [(cfg, scenario, n, rep, theta_tilde) for rep in range(cfg.reps)]
        reps = _map_reps(_msd_rep, payloads, cfg.workers)
        results[n] = {
            name: np.array([r[name] for r in reps]) for name in cfg.estimators
        }
    return results


def run_msd_experiment(cfg: MsdConfig) -> list[dict]:
    """Aggregate distance table: one row per (n, estimator)."""
    rows = []
    for n, by_est in sorted(run_msd_replications(cfg).items()):
        for name in sorted(by_est):
            sq = by_est[name]
            good = sq[~np.isnan(sq)]
            mean, half = _mean_ci_half(good, cfg.ci_level)
            rows.append(
                {
                    "n": n,
                    "estimator": name,
                    "msd_mean": mean,
                    "msd_median": float(np.median(good)),
                    "ci_half": half,
                    "reps": int(good.size),
                    "failed": int(sq.size - good.size),
                }
            )
    return rows


def run_power_replications(
    cfg: PowerConfig,
) -> dict[float, dict[str, dict[str, np.ndarray]]]:
    """Per-replication powers and Type I errors, keyed by n (or rho)."""
    if cfg.rhos is not None:
        runs = [(rho, _make_scenario(cfg.scenario, rho), cfg.ns[0]) for rho in cfg.rhos]
    else:
        scenario = _make_scenario(cfg.scenario, cfg.rho)
        runs = [(n, scenario, n) for n in cfg.ns]
    for _, scenario, _ in runs:
        _check_estimators(scenario, cfg.estimators, SCORE_ESTIMATORS)
    results: dict[float, dict[str, dict[str, np.ndarray]]] = {}
    for key, scenario, n in runs:
        payloads = [(cfg, scenario, n, rep) for rep in range(cfg.reps)]
        reps = _map_reps(_power_rep, payloads, cfg.workers)
        results[key] = {
            name: {
                "power": np.array([r[name][0] for r in reps]),
                "type1": np.array([r[name][1] for r in reps]),
                "degenerate": np.array([r[name][2] for r in reps]),
            }
            for name in cfg.estimators
        }
    return results


def run_power_experiment(cfg: PowerConfig) -> list[dict]:
    """Aggregate power table: one row per (key, estimator).

    ``type1_violations`` is the fraction of replications whose measured
    Type I error exceeded alpha.
    """
    key_name = "rho" if cfg.rhos is not None else "n"
    rows = []
    for key, by_est in sorted(run_power_replications(cfg).items()):
        for name in sorted(by_est):
            power = by_est[name]["power"]
            type1 = by_est[name]["type1"]
            ok = ~np.isnan(power)
            mean, half = _mean_ci_half(power[ok], cfg.ci_level)
            rows.append(
                {
                    key_name: key,
                    "estimator": name,
                    "power_mean": mean,
                    "power_ci_half": half,
                    "type1_mean": float(type1[ok].mean()),
                    "type1_violations": float((type1[ok] > cfg.alpha).mean()),
                    "degenerate": int(by_est[name]["degenerate"][ok].sum()),
                    "reps": int(ok.sum()),
                    "failed": int((~ok).sum()),
                }
            )
    return rows
