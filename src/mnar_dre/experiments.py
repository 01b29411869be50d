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


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _draws_from_rng(name: str) -> bool:
    """Whether ``_fit_model(name, ...)`` draws from its generator: only the
    learned-missingness estimators do, for their queries.  ``_power_rep``
    orders its stream by this."""
    return name.removeprefix("nb-") == "mkliep-learned"


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
    first, drawn from ``rng``.
    """
    base = name.removeprefix("nb-")
    corrupted = (draw.corrupted1, draw.corrupted0)
    if base == "mkliep":
        data, mode = corrupted, Mnar(draw.phi1, draw.phi0)
    elif base == "cckliep":
        data, mode = corrupted, COMPLETE_CASE
    elif base == "kliep-oracle":
        data, mode = (draw.latent1, draw.latent0), FULLY_OBSERVED
    elif _draws_from_rng(name):
        phi1_hat = learn_missingness(draw.corrupted1, draw.latent1, queries, rng)
        phi0_hat = learn_missingness(draw.corrupted0, draw.latent0, queries, rng)
        data, mode = corrupted, Mnar(phi1_hat, phi0_hat)
    else:
        raise ValueError(f"unknown estimator {name!r}")
    if name.startswith("nb-"):
        return naive_bayes.fit_naive_bayes(*data, mode, set_normalizers=False)
    return kliep.fit(*data, kliep.FeatureMap.identity(draw.latent1.dim), mode)


def _msd_rep(payload) -> dict[str, float]:
    cfg, scenario, n, rep, theta_tilde = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    out = {}
    for name in cfg.estimators:
        try:
            theta = _fit_model(name, draw).theta
            out[name] = float(np.sum((theta - theta_tilde) ** 2))
        except (NumericError, DataError):
            out[name] = math.nan
    return out


def _power_rep(payload) -> dict[str, tuple[float, float, bool]]:
    """(power, Type I error, degenerate) of each estimator in one replication.

    The stream of ``rng`` is: the training draw, the calibration sample, the
    ``n_test`` class-1 test points, the ``n_type1`` class-0 test points, and
    then the queries of each estimator whose fit draws (``_draws_from_rng``).
    The test points are drawn a row block at a time
    (``GaussianMixture.sample_blocks``) and each block is classified as it
    is drawn, by every classifier that exists by then, so the replication
    keeps only their counts of positive labels: power and Type I error are
    count / n.  The other estimators draw nothing, so their classifiers are
    built before the test points.  When an estimator that draws is asked
    for, the blocks are kept, and it scores them once it is fitted.  An
    estimator whose fit or calibration fails gives NaNs.
    """
    cfg, scenario, n, rep = payload
    rng = _rep_rng(cfg.seed, rep)
    draw = generate(scenario, n, rng, cfg.corrupt_class)
    calib_n = n if cfg.calibration_n is None else cfg.calibration_n
    calib_values = scenario.class0.sample(calib_n, rng)
    if cfg.corrupt_class == 0:
        calib_values = draw.phi0.corrupt(calib_values, rng)
    calibration = Dataset(calib_values, 0)

    def build(names):
        """The classifier of each name; None for one that failed."""
        clfs = {}
        for name in names:
            try:
                if name == "true-ratio":
                    model = draw.true_log_ratio
                else:
                    model = _fit_model(name, draw, cfg.queries, rng)
                clfs[name] = build_np_classifier(
                    model,
                    calibration,
                    cfg.alpha,
                    cfg.delta,
                    phi0=draw.phi0,
                    rule=cfg.threshold_rule,
                )
            except (NumericError, DataError):
                clfs[name] = None
        return clfs

    def count_positives(clfs, block, count):
        for name, clf in clfs.items():
            if clf is not None:
                count[name] += int(np.count_nonzero(classify(clf, block)))

    learned = [name for name in cfg.estimators if _draws_from_rng(name)]
    clfs = build([name for name in cfg.estimators if name not in learned])
    tests = ((scenario.class1, cfg.n_test), (scenario.class0, cfg.n_type1))
    counts = (dict.fromkeys(cfg.estimators, 0), dict.fromkeys(cfg.estimators, 0))
    kept = ([], [])
    for (mix, size), count, keep in zip(tests, counts, kept):
        for block in mix.sample_blocks(size, rng):
            count_positives(clfs, block, count)
            if learned:
                keep.append(block)
    learned_clfs = build(learned)
    for count, keep in zip(counts, kept):
        for block in keep:
            count_positives(learned_clfs, block, count)
    clfs |= learned_clfs
    out = {}
    for name in cfg.estimators:
        clf = clfs[name]
        if clf is None:
            out[name] = (math.nan, math.nan, False)
        else:
            power = counts[0][name] / cfg.n_test
            type1 = counts[1][name] / cfg.n_type1
            out[name] = (power, type1, clf.provenance.degenerate)
    return out


def _map_reps(worker, payloads, workers: int):
    if workers <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _mean_ci_half(values: np.ndarray, level: float) -> tuple[float, float]:
    z = ndtri(0.5 + level / 2.0)  # the normal quantile, as norm.ppf computes it
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
        _check_rule(cfg, scenario)
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
