"""Density ratio estimation and Neyman-Pearson classification for data that
is missing not at random, with importance-weighted estimators, missingness
learning from queried samples, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .model import (
    ConstantProb,
    DataError,
    Dataset,
    EPS_PHI,
    FeatureMap,
    HalfspaceIndicator,
    LogisticScalar,
    LogLinearRatioModel,
    MissingnessFunction,
    NumericError,
    Zero,
)
from .weighting import point_importance_weights
from .kliep import (
    COMPLETE_CASE,
    FULLY_OBSERVED,
    Mnar,
    fit,
    normalizing_constant,
)
from .naive_bayes import NaiveBayesRatioModel, fit_naive_bayes
from .np_classify import (
    NpClassifier,
    ThresholdResult,
    build_np_classifier,
    classify,
    delta_margin,
    threshold_binomial,
    threshold_missing,
)
from .missingness import (
    AdjustedLogisticFit,
    fit_adjusted_logistic,
    learn_missingness,
    simulate_query,
)
from .scenarios import (
    Scenario,
    SyntheticDraw,
    generate,
    make_scenario,
    population_theta,
)
from .experiments import (
    MsdConfig,
    PowerConfig,
    run_msd_experiment,
    run_msd_replications,
    run_power_experiment,
    run_power_replications,
)

__all__ = [name for name in dir() if not name.startswith("_")]
