"""Replicated synthetic experiments: parameter-distance and power studies.

Replications are embarrassingly parallel.  Each replication derives two
random streams from (seed, replication index): a data stream, for its
training, calibration and test draws, and a query stream, from which each
fit that learns the missingness draws its queries afresh.  So results are
identical for any worker count and for any list of estimators, and
aggregation sorts before reducing so tables are byte-stable across reruns.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import kliep, naive_bayes
from .kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar
from .missingness import learn_missingness
from .model import ConfigError, Dataset, DataError, NumericError
from .np_classify import build_np_classifier, classify, threshold_rule
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
    rhos: tuple[float, ...] | None = None  # sweep key when set (ns then holds one n)
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
        if self.rhos is not None and len(self.ns) > 1:
            raise ConfigError("experiment rho-sweep takes one --n value")


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


def _check_rule(cfg: PowerConfig, scenario: Scenario) -> None:
    """Refuse, before any replication runs, a threshold rule that no
    replication can calibrate by.  The config alone fixes whether class 0,
    and so its calibration sample, is corrupted, and so the rule; the
    binomial rule needs a fully observed calibration sample."""
    clean0 = cfg.corrupt_class != 0 or scenario.induced_phi.is_zero()
    rule = threshold_rule(cfg.threshold_rule, clean0, clean0, cfg.delta)
    if rule == "binomial" and not clean0:
        raise ConfigError(
            "--rule binomial needs a fully observed calibration sample, but "
            "--corrupt-class 0 corrupts class 0's; use --rule missing or auto"
        )


@dataclass(frozen=True)
class Replication:
    """One estimator in one replication: its metric values, or the class
    name of the error that stopped its fit or calibration."""

    values: dict[str, float]
    failure: str | None = None


def _rep_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` under ``seed``: ``(rep,)`` is the data
    stream of replication ``rep``, and ``(rep, 1)`` its query stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _fit_model(
    name: str,
    draw: SyntheticDraw,
    queries: int = 0,
    rng: np.random.Generator | None = None,
):
    """The ratio model that estimator ``name`` fits on ``draw``.

    A name is an optional ``nb-`` prefix, which fits the per-dimension
    product model (``naive_bayes``), and a base that picks the data and the
    weighting: ``mkliep`` weights the corrupted data by the true missingness,
    ``cckliep`` keeps its complete cases, ``kliep-oracle`` fits the latent
    data, and ``mkliep-learned`` weights by the missingness that
    ``learn_missingness`` learns from ``queries`` queries per class, class 1
    first, drawn from ``rng``.  The other estimators draw nothing, so only
    ``mkliep-learned`` needs ``rng``; the experiments pass it the
    replication's query stream.
    """
    base = name.removeprefix("nb-")
    corrupted = (draw.corrupted1, draw.corrupted0)
    if base == "mkliep":
        data, mode = corrupted, Mnar(draw.phi1, draw.phi0)
    elif base == "cckliep":
        data, mode = corrupted, COMPLETE_CASE
    elif base == "kliep-oracle":
        data, mode = (draw.latent1, draw.latent0), FULLY_OBSERVED
    elif base == "mkliep-learned":
        phi1_hat = learn_missingness(draw.corrupted1, draw.latent1, queries, rng)
        phi0_hat = learn_missingness(draw.corrupted0, draw.latent0, queries, rng)
        data, mode = corrupted, Mnar(phi1_hat, phi0_hat)
    else:
        raise ValueError(f"unknown estimator {name!r}")
    if name.startswith("nb-"):
        return naive_bayes.fit_naive_bayes(*data, mode, set_normalizers=False)
    return kliep.fit(*data, kliep.FeatureMap.identity(draw.latent1.dim), mode)


def _msd_rep(payload) -> dict[str, Replication]:
    cfg, scenario, n, rep, theta_tilde = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    out = {}
    for name in cfg.estimators:
        try:
            theta = _fit_model(name, draw).theta
        except (NumericError, DataError) as exc:
            out[name] = Replication({}, type(exc).__name__)
        else:
            out[name] = Replication({"msd": float(np.sum((theta - theta_tilde) ** 2))})
    return out


def _power_rep(payload) -> dict[str, Replication]:
    """The power, Type I error and degenerate (0 or 1) of each estimator.

    The data stream (``_rep_rng(seed, rep)``) is: the training draw, the
    calibration sample, the ``n_test`` class-1 test points and the
    ``n_type1`` class-0 test points.  A fit that queries draws its queries
    from a fresh query stream (``_rep_rng(seed, rep, 1)``), so an estimator's
    record does not depend on which other estimators are listed.  Every
    classifier is built first; then the test points are drawn a row block at
    a time (``GaussianMixture.sample_blocks``) and each block is classified
    as it is drawn, so the replication keeps only the counts of positive
    labels: power and Type I error are count / n.
    """
    cfg, scenario, n, rep = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    calib_n = n if cfg.calibration_n is None else cfg.calibration_n
    calib_values = scenario.class0.sample(calib_n, rng)
    if cfg.corrupt_class == 0:
        calib_values = draw.phi0.corrupt(calib_values, rng)
    calibration = Dataset(calib_values, 0)
    clfs, failures = {}, {}
    for name in cfg.estimators:
        try:
            # The scenario is the true ratio's model.
            model = scenario if name == "true-ratio" else _fit_model(
                name, draw, cfg.queries, _rep_rng(cfg.seed, rep, 1)
            )
            clfs[name] = build_np_classifier(
                model,
                calibration,
                cfg.alpha,
                cfg.delta,
                phi0=draw.phi0,
                rule=cfg.threshold_rule,
            )
        except (NumericError, DataError) as exc:
            failures[name] = type(exc).__name__
    tests = ((scenario.class1, cfg.n_test), (scenario.class0, cfg.n_type1))
    counts = (dict.fromkeys(clfs, 0), dict.fromkeys(clfs, 0))
    for (mix, size), count in zip(tests, counts):
        for block in mix.sample_blocks(size, rng):
            for name, clf in clfs.items():
                count[name] += int(np.count_nonzero(classify(clf, block)))
    out = {}
    for name in cfg.estimators:
        clf = clfs.get(name)
        out[name] = Replication({}, failures[name]) if clf is None else Replication({
            "power": counts[0][name] / cfg.n_test,
            "type1": counts[1][name] / cfg.n_type1,
            "degenerate": float(clf.provenance.degenerate),
        })
    return out


def _replicate(worker, payloads, cfg) -> dict[str, list[Replication]]:
    """Each estimator's records from ``worker`` on every payload, in order."""
    if cfg.workers <= 1:
        reps = [worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            reps = list(pool.map(worker, payloads))
    return {name: [r[name] for r in reps] for name in cfg.estimators}


def _or_nan(stat, values: np.ndarray) -> float:
    """``stat(values)``, or NaN for no values, where numpy would warn."""
    return float(stat(values)) if values.size else math.nan


def _mean_ci_half(values: np.ndarray, level: float) -> tuple[float, float]:
    z = ndtri(0.5 + level / 2.0)  # the normal quantile, as norm.ppf computes it
    m = _or_nan(np.mean, values)
    half = float(z * values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.inf
    return m, half


def _aggregate(results, key_name: str, stats) -> list[dict]:
    """One row per sorted (key, estimator): the key, the estimator, the
    columns of ``stats(metric)``, where ``metric(name)`` holds that value in
    each replication that did not fail, and the ``reps`` and ``failed`` counts."""
    rows = []
    for key, by_est in sorted(results.items()):
        for name in sorted(by_est):
            ok = [r.values for r in by_est[name] if r.failure is None]

            def metric(m):
                return np.array([v[m] for v in ok], dtype=float)

            rows.append({key_name: key, "estimator": name, **stats(metric),
                         "reps": len(ok), "failed": len(by_est[name]) - len(ok)})
    return rows


def run_msd_replications(cfg: MsdConfig) -> dict[int, dict[str, list[Replication]]]:
    """Squared distances to the population parameter, per n and estimator."""
    scenario = _make_scenario(cfg.scenario, cfg.rho)
    _check_estimators(scenario, cfg.estimators, THETA_ESTIMATORS)
    theta_tilde = population_theta(scenario)
    reps = range(cfg.reps)
    return {
        n: _replicate(_msd_rep, [(cfg, scenario, n, r, theta_tilde) for r in reps], cfg)
        for n in cfg.ns
    }


def run_msd_experiment(cfg: MsdConfig) -> list[dict]:
    """Aggregate distance table: one row per (n, estimator)."""

    def stats(metric):
        sq = metric("msd")
        mean, half = _mean_ci_half(sq, cfg.ci_level)
        return {"msd_mean": mean, "msd_median": _or_nan(np.median, sq), "ci_half": half}

    return _aggregate(run_msd_replications(cfg), "n", stats)


def run_power_replications(cfg: PowerConfig) -> dict[float, dict[str, list[Replication]]]:
    """Per-replication powers and Type I errors, keyed by n (or rho)."""
    if cfg.rhos is not None:
        runs = [(rho, _make_scenario(cfg.scenario, rho), cfg.ns[0]) for rho in cfg.rhos]
    else:
        scenario = _make_scenario(cfg.scenario, cfg.rho)
        runs = [(n, scenario, n) for n in cfg.ns]
    for _, scenario, _ in runs:
        _check_estimators(scenario, cfg.estimators, SCORE_ESTIMATORS)
        _check_rule(cfg, scenario)
    reps = range(cfg.reps)
    return {
        key: _replicate(_power_rep, [(cfg, scenario, n, r) for r in reps], cfg)
        for key, scenario, n in runs
    }


def run_power_experiment(cfg: PowerConfig) -> list[dict]:
    """Aggregate power table: one row per (key, estimator).

    ``type1_violations`` is the fraction of replications whose measured
    Type I error exceeded alpha.
    """

    def stats(metric):
        type1 = metric("type1")
        mean, half = _mean_ci_half(metric("power"), cfg.ci_level)
        return {
            "power_mean": mean,
            "power_ci_half": half,
            "type1_mean": _or_nan(np.mean, type1),
            "type1_violations": _or_nan(np.mean, type1 > cfg.alpha),
            "degenerate": int(metric("degenerate").sum()),
        }

    key_name = "rho" if cfg.rhos is not None else "n"
    return _aggregate(run_power_replications(cfg), key_name, stats)
