"""Per-dimension density ratio estimation combined by product.

Under coordinate-independent classes and coordinate-wise missingness the
joint ratio factorizes as the product of the one-dimensional marginal
ratios, so each dimension is fit separately using exclusively the data (and
inverse-probability weights) from that dimension.  Cross-coordinate
dependence violates the assumption; see the rho-sweep scenario for how the
resulting classifier degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kliep
from .kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar, WeightingMode
from .model import Dataset, FeatureMap, LogLinearRatioModel, MissingnessFunction


@dataclass(frozen=True, eq=False)
class NaiveBayesRatioModel:
    """Product of d one-dimensional log-linear ratio models."""

    per_dim: tuple[LogLinearRatioModel, ...]

    def __post_init__(self):
        if len(self.per_dim) < 1:
            raise ValueError("need at least one per-dimension model")
        for m in self.per_dim:
            if m.feature_map.input_dim != 1:
                raise ValueError("per-dimension models must be one-dimensional")

    @property
    def dim(self) -> int:
        return len(self.per_dim)

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.per_dim)

    def log_ratio(self, z: np.ndarray) -> np.ndarray:
        return evaluate_log_ratio(self, z)


def evaluate_log_ratio(model: NaiveBayesRatioModel, z: np.ndarray) -> np.ndarray:
    """Sum of per-dimension log ratios at fully observed points.

    Includes each dimension's -log(normalizer) when set.  Points with missing
    coordinates are refused: downstream classification assigns missing
    calibration points -inf separately, and test points are fully observed.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != model.dim:
        raise ValueError(f"expected dimension {model.dim}, got {z.shape[1]}")
    if np.isnan(z).any():
        raise ValueError("naive-Bayes evaluation requires full observation")
    total = np.zeros(z.shape[0])
    for j, sub in enumerate(model.per_dim):
        total += sub.log_ratio(z[:, j : j + 1])
    return total


def _slice_mode(mode, j: int):
    """Restrict a weighting mode to coordinate j."""
    if isinstance(mode, Mnar):
        return Mnar(
            phi1=MissingnessFunction.per_coordinate([mode.phi1.coordinate_entry(j)]),
            phi0=MissingnessFunction.per_coordinate([mode.phi0.coordinate_entry(j)]),
        )
    return mode


def fit_naive_bayes(
    class1: Dataset,
    class0: Dataset,
    mode: WeightingMode = FULLY_OBSERVED,
    feature_map_1d: FeatureMap | None = None,
    set_normalizers: bool = True,
) -> NaiveBayesRatioModel:
    """Fit one ratio model per coordinate and return the product model.

    An MNAR ``mode`` carries the per-coordinate missingness pair;
    complete-case mode discards the missing entries of each coordinate
    separately.  Per-dimension normalizers are estimated by
    default (classification ignores them; they matter only for calibrated
    ratio values).
    """
    fmap = feature_map_1d or FeatureMap.identity(1)
    if fmap.input_dim != 1:
        raise ValueError("the per-dimension feature map must take 1-D input")
    if class1.dim != class0.dim:
        raise ValueError("class dimensions differ")
    models = []
    for j in range(class1.dim):
        sub_mode = _slice_mode(mode, j)
        d1 = Dataset(class1.values[:, j : j + 1], class1.label)
        d0 = Dataset(class0.values[:, j : j + 1], class0.label)
        try:
            sub = kliep.fit(d1, d0, fmap, sub_mode)
            if set_normalizers:
                phi0 = sub_mode.phi0 if isinstance(sub_mode, Mnar) else None
                if phi0 is None and sub_mode == COMPLETE_CASE:
                    mask = ~np.isnan(d0.values[:, 0])
                    d0 = d0.restrict(mask)
                sub = sub.with_normalizer(kliep.normalizing_constant(sub, d0, phi0))
        except Exception as exc:
            raise type(exc)(f"dimension {j}: {exc}") from exc
        models.append(sub)
    return NaiveBayesRatioModel(per_dim=tuple(models))
