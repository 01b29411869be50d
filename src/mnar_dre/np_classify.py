"""Neyman-Pearson classification with high-probability Type I error control.

Two threshold selection rules over a class-0 calibration sample:

* ``threshold_missing`` -- the weighted order-statistic rule for calibration
  data with missing points: missing points score -inf with weight 0, observed
  points weigh 1/(1 - phi0), and the chosen cut makes the weighted tail mass
  at most alpha - Delta where Delta = sqrt(16 log(1/delta) / m_eff0).
* ``threshold_binomial`` -- the classical fully-observed rule: the i*-th
  ascending order statistic where i* is the smallest index whose exact
  Binomial(n0, 1-alpha) upper tail is at most delta.

``threshold_rule`` alone picks the rule for "auto" and refuses the weighted
rule for delta above 1/2; ``build_np_classifier`` and the experiments'
config check both call it.

A classifier holds a ratio model: any object whose ``log_ratio(z)`` scores
the rows of ``z``, be it a fitted log-linear or naive-Bayes model or a
scenario's true ratio (``Scenario.log_ratio``).  Classification is strict:
label 1 iff log_ratio(z) > threshold, so ties go to the error-controlled
class.  Both rules are invariant to strictly increasing transforms of the
score, which is why fitting the ratio up to a multiplicative constant
suffices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import ConfigError, Dataset, DataError, MissingnessFunction, row_blocks
from .weighting import check_missing_possible, point_importance_weights

PAPER_MARGIN_CONSTANT = 16.0


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """A selected threshold with its provenance."""

    value: float
    order_index: int | None  # 1-based position in the sorted calibration scores
    degenerate: bool
    all_missing: bool
    margin: float | None  # Delta for the weighted rule, None for binomial
    calibration_size: int
    method: str
    m_eff0: float | None = None  # n0 (1 - sup phi0) for the weighted rule


def delta_margin(m_eff0: float, delta: float) -> float:
    """Conservative slack sqrt(C log(1/delta) / m_eff0) with the paper's C = 16."""
    if not m_eff0 > 0.0:
        raise ValueError("effective class-0 sample size must be positive")
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return math.sqrt(PAPER_MARGIN_CONSTANT * math.log(1.0 / delta) / m_eff0)


def threshold_missing(
    scores: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    delta: float,
    m_eff0: float,
) -> ThresholdResult:
    """Weighted threshold rule on calibration scores that may contain -inf.

    Sorts ascending (stable) and returns the smallest order statistic whose
    inclusive weighted tail (1/n0) sum_{j >= i} w_(j) is at most
    alpha - Delta.  Tied scores are treated as one block (the tail is
    evaluated per distinct value), which makes the returned value invariant
    to permutations of the calibration sample and never less conservative
    than evaluating the tail at an arbitrary position inside a tie run.

    Degenerate outcomes are flagged, not raised: +inf when no index
    qualifies (always-0 classifier), -inf with ``all_missing`` when every
    calibration point was missing.
    """
    scores = np.asarray(scores, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if scores.shape != weights.shape or scores.ndim != 1:
        raise ValueError("scores and weights must be 1-D of equal length")
    if scores.shape[0] == 0:
        raise DataError("empty calibration sample")
    if np.any(weights < 0.0):
        raise ValueError("weights must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n0 = scores.shape[0]
    margin = delta_margin(m_eff0, delta)
    cutoff = alpha - margin
    all_missing = bool(np.all(weights == 0.0))
    if all_missing:
        warnings.warn(
            "every calibration point is missing; the weighted threshold rule "
            "degenerates to an always-1 classifier",
            RuntimeWarning,
            stacklevel=2,
        )

    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    w_sorted = weights[order]
    # Inclusive suffix weight starting at each position.
    suffix = np.cumsum(w_sorted[::-1])[::-1] / n0
    # Only the first position of a tied block may qualify, so tails are per
    # distinct value; the suffix never rises, so no later position of a
    # block qualifies before its first.
    block_start = np.ones(n0, dtype=bool)
    block_start[1:] = s_sorted[1:] != s_sorted[:-1]
    ok = block_start & (suffix <= cutoff)
    idx = int(np.argmax(ok)) if ok.any() else None
    return ThresholdResult(
        value=math.inf if idx is None else float(s_sorted[idx]),
        order_index=None if idx is None else idx + 1,
        degenerate=idx is None,
        all_missing=all_missing,
        margin=margin,
        calibration_size=n0,
        method="missing-weighted",
        m_eff0=m_eff0,
    )


def binomial_upper_tail_log(n: int, q: float) -> np.ndarray:
    """log P(W >= i) for i = 0..n with W ~ Binomial(n, q), 0 < q < 1, by exact
    summation.

    The PMF is evaluated in log space and accumulated from the top down, so
    tiny tails keep full relative precision (no normal approximation).
    """
    k = np.arange(n + 1)
    log_pmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(q)
        + (n - k) * math.log1p(-q)
    )
    # suffix logsumexp via reverse accumulate
    rev = log_pmf[::-1]
    tail = np.logaddexp.accumulate(rev)[::-1]
    return np.minimum(tail, 0.0)


def threshold_binomial(
    scores: np.ndarray, alpha: float, delta: float
) -> ThresholdResult:
    """Fully observed order-statistic rule with exact binomial tails.

    i* is the smallest i in [1, n0] with P(W >= i) <= delta where
    W ~ Binomial(n0, 1 - alpha); the threshold is the i*-th ascending score.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.shape[0] == 0:
        raise DataError("empty calibration sample")
    if not np.all(np.isfinite(scores)):
        raise DataError("binomial rule requires fully observed calibration scores")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n0 = scores.shape[0]
    log_tail = binomial_upper_tail_log(n0, 1.0 - alpha)
    ok = log_tail[1:] <= math.log(delta)  # positions i = 1..n0
    i_star = int(np.argmax(ok)) + 1 if ok.any() else None
    value = math.inf if i_star is None else np.sort(scores, kind="stable")[i_star - 1]
    return ThresholdResult(
        value=float(value),
        order_index=i_star,
        degenerate=i_star is None,
        all_missing=False,
        margin=None,
        calibration_size=n0,
        method="binomial",
    )


@dataclass(frozen=True, eq=False)
class NpClassifier:
    """A ratio model, the (alpha, delta) it was calibrated at, and the
    threshold it was calibrated to with that threshold's provenance."""

    model: object  # any object with log_ratio(z)
    alpha: float
    delta: float
    provenance: ThresholdResult

    @property
    def threshold(self) -> float:
        return self.provenance.value

    def degenerate_reason(self) -> str | None:
        """Why no calibration score qualified as the threshold, or None.

        The weighted rule's reason names m_eff0 when the provenance has it; a
        classifier file written without an ``m_eff0`` line leaves it out.
        """
        p = self.provenance
        if not p.degenerate:
            return None
        n0 = p.calibration_size
        if p.margin is None:
            # (1 - alpha)^n0 is the smallest binomial tail the rule can reach.
            need = math.log(self.delta) / math.log1p(-self.alpha)
            return (
                f"n0 {n0} is below log(delta)/log(1 - alpha) = {need:.6g}, "
                "the fewest calibration points the binomial rule needs"
            )
        if p.margin >= self.alpha:
            why = f"margin {p.margin:.6g} >= alpha {self.alpha!r}"
        else:
            why = (
                "no calibration score has weighted tail <= alpha - margin = "
                f"{self.alpha!r} - {p.margin:.6g}"
            )
        if p.m_eff0 is None:
            return why
        sup_phi0 = 1.0 - p.m_eff0 / n0
        return why + (
            f", with m_eff0 = n0 * (1 - sup phi0) = {n0} * (1 - {sup_phi0:.6g})"
            f" = {p.m_eff0:.6g}"
        )


def calibration_scores(
    model,
    calibration: Dataset,
    phi0: MissingnessFunction,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and weights of a class-0 calibration sample.

    Missing calibration points (any missing coordinate) take score -inf and
    weight 0.  The fully observed rows, taken once from
    ``Dataset.observed_rows``, are scored by ``model.log_ratio`` and
    weighted by 1/(1 - phi0); a zero ``phi0`` weighs each by exactly 1.
    """
    rows = np.flatnonzero(calibration.observed_rows())
    scores = np.full(calibration.n, -np.inf)
    weights = np.zeros(calibration.n)
    if rows.size:
        observed = calibration.values.take(rows, axis=0)
        scores[rows] = model.log_ratio(observed)
        weights[rows] = point_importance_weights(observed, phi0)
    return scores, weights


def threshold_rule(rule: str, observed: bool, phi0_zero: bool, delta: float) -> str:
    """The rule, "binomial" or "missing", that ``rule`` names; "auto" names
    the binomial rule when the calibration sample is fully ``observed`` and
    ``phi0_zero``.  A weighted rule with ``delta`` above 1/2, where its
    margin is undefined, raises ``ConfigError``."""
    if rule not in ("auto", "binomial", "missing"):
        raise ConfigError("rule must be 'auto', 'binomial' or 'missing'")
    if rule == "auto":
        rule = "binomial" if observed and phi0_zero else "missing"
    if rule == "missing" and delta > 0.5:
        raise ConfigError(
            "--delta must be at most 0.5 for the weighted threshold rule, got "
            f"{delta!r}"
        )
    return rule


def build_np_classifier(
    model,
    calibration: Dataset,
    alpha: float,
    delta: float,
    phi0: MissingnessFunction | None = None,
    rule: str = "auto",
) -> NpClassifier:
    """Calibrate a threshold for ``model``'s log ratio on a fresh class-0 sample.

    ``rule`` (see ``threshold_rule``):
      * "auto"     -- binomial when the calibration sample is fully observed
                      and class 0 carries no missingness, else the weighted
                      rule (the guarantee that matches the data);
      * "binomial" -- force the fully observed rule;
      * "missing"  -- force the weighted rule.

    ``calibration`` is a separate class-0 sample, drawn independently of the
    training data (the CLI reads it from its own file); reusing training
    points voids the Type I guarantee.
    """
    if calibration.label != 0:
        raise DataError("calibration data must come from class 0")
    if phi0 is None:
        phi0 = MissingnessFunction.none(calibration.dim)
    observed = calibration.fully_observed
    if threshold_rule(rule, observed, phi0.is_zero(), delta) == "binomial":
        if not observed:
            raise DataError("binomial rule requires a fully observed calibration set")
        result = threshold_binomial(model.log_ratio(calibration.values), alpha, delta)
    else:
        check_missing_possible(calibration, phi0)
        scores, weights = calibration_scores(model, calibration, phi0)
        m_eff0 = calibration.n * (1.0 - phi0.sup_prob())
        result = threshold_missing(scores, weights, alpha, delta, m_eff0)
    return NpClassifier(model, alpha, delta, result)


def labels_from_scores(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Labels 1 iff score > threshold (strict; ties go to class 0).  A +inf
    threshold labels every point 0 and a -inf one labels every point 1,
    whatever the scores."""
    if threshold == math.inf:
        return np.zeros(len(scores), dtype=int)
    if threshold == -math.inf:
        return np.ones(len(scores), dtype=int)
    return (scores > threshold).astype(int)


def classify(clf: NpClassifier, z: np.ndarray) -> np.ndarray:
    """Labels of the points ``z`` by ``labels_from_scores``; an infinite
    threshold fixes every label, so the points are then not scored.

    The points are scored by ``clf.model.log_ratio`` a row block
    (``model.row_blocks``) at a time, so the scoring temporaries stay
    cache-sized whatever the number of points; every ratio model scores
    each row on its own.  A power replication (``experiments._power_rep``)
    calls it on each row block of its test points as the block is drawn,
    and keeps only the count of positive labels.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if math.isinf(clf.threshold):
        return labels_from_scores(np.empty(z.shape[0]), clf.threshold)
    labels = np.empty(z.shape[0], dtype=int)
    for rows in row_blocks(z.shape[0]):
        labels[rows] = labels_from_scores(clf.model.log_ratio(z[rows]), clf.threshold)
    return labels
