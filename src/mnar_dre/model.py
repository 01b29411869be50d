"""Core domain types: datasets with missing marks, feature maps, log-linear
ratio models, and missingness functions.

Missing coordinates are represented by NaN inside plain float arrays.  Stored
real values must be finite, so NaN is unambiguous as the missing mark.  A
whole-point-missing observation is a row whose coordinates are all NaN.

All types are immutable after construction (arrays are frozen read-only) and
safe to share across parallel workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import expit

# Floor on (1 - phi): evaluations are clamped into [0, 1 - EPS_PHI] so that
# importance weights stay bounded by 1/EPS_PHI.
EPS_PHI = 1e-3
MAX_WEIGHT = 1.0 / EPS_PHI

# Rows that the Monte Carlo path samples (``GaussianMixture.sample``) and
# scores (``np_classify.classify``) at a time.  One block's widest temporary,
# 8192 rows of k d float64, is 256 KiB on mixture2d (k d = 4) and 320 KiB on
# gauss5d (k d = 5), well inside the 2 MiB L2 of a core of the 2-vCPU Xeon
# the benchmark runs on.  Sampling and scoring whole 100k-row test sets
# instead made 3.2 MB temporaries that the allocator handed back to the OS
# and faulted in again on every call.  Measured with getrusage over
# in-process ``experiment power --scenario mixture2d --n 500 --reps 1`` ops:
# 2,703 minor page faults per op unblocked, 975 with both functions
# blocked, and 3,060 with ``sample`` alone blocked, because ``log_pdf``
# then faulted in the pages that ``sample`` no longer freed for it.
ROW_BLOCK = 8192


def row_blocks(n: int) -> list[slice]:
    """The fewest slices of at most ``ROW_BLOCK`` rows that cover n rows,
    their sizes differing by at most one.

    Even sizes leave no 1-row block unless n is 1: numpy multiplies a 1-row
    matrix by the BLAS matrix-vector routine, whose rounding can differ in
    the last bit from the matrix-matrix routine that every other block, and
    an unblocked array, goes through.
    """
    count = -(-n // ROW_BLOCK)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


class ConfigError(ValueError):
    """A flag, config value or setting that no run can use (maps to CLI exit
    code 2)."""


class DataError(ValueError):
    """Malformed or unusable input data (maps to CLI exit code 3)."""


class NumericError(RuntimeError):
    """Numeric failure such as a degenerate weighted sum (CLI exit code 4)."""


def clamp_missing_prob(p: np.ndarray) -> np.ndarray:
    """Clamp raw missing probabilities into [0, 1 - EPS_PHI].

    A clamp of any value warns; the warning is issued from this one line,
    so Python's default filter shows it once per process.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("missingness function produced non-finite values")
    hi = 1.0 - EPS_PHI
    if np.any((p < 0.0) | (p > hi)):
        warnings.warn(
            f"missing-probability evaluations were clamped to {hi}; importance "
            f"weights are capped at {MAX_WEIGHT:g}",
            RuntimeWarning,
        )
    return np.clip(p, 0.0, hi)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


# Widest array whose observed mask is built one column at a time.
_COLUMN_LOOP_MAX_D = 8


def observed_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of an (n, d) array with no NaN.

    Both forms give the same mask.  A reduction of ``np.isnan(values)`` along
    axis 1 pays a per-row overhead that dominates when rows are short, so up
    to ``_COLUMN_LOOP_MAX_D`` columns they are OR-ed one at a time instead.
    On a 2-vCPU Xeon with numpy 2.4, at n = 20000, the loop takes 0.016 ms
    against 0.30 ms for d = 2 and 0.09 against 0.42 ms for d = 8; it loses
    from about d = 50 (1.1 against 1.0 ms; 64 against 3.4 ms at d = 500),
    and at n = 200 from d = 8, by under 2 microseconds.  Wider arrays keep
    the single reduction.
    """
    if values.shape[1] > _COLUMN_LOOP_MAX_D:
        return ~np.isnan(values).any(axis=1)
    missing = np.zeros(values.shape[0], dtype=bool)
    for j in range(values.shape[1]):
        missing |= np.isnan(values[:, j])
    return ~missing


# ---------------------------------------------------------------------------
# Missingness functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Zero:
    """No missingness: phi(z) = 0."""

    def prob(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.shape[0] if x.ndim > 0 else 1
        return np.zeros(n)

    def sup_prob(self) -> float:
        return 0.0


@dataclass(frozen=True, eq=False)
class ConstantProb:
    """phi(z) = p everywhere."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError("constant missing probability must lie in [0, 1)")

    def prob(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[0], clamp_missing_prob(self.p))

    def sup_prob(self) -> float:
        return min(self.p, 1.0 - EPS_PHI)


@dataclass(frozen=True, eq=False)
class LogisticScalar:
    """Scalar logistic missingness phi(z) = 1 / (1 + exp(tau * (a0 + a1 z))).

    ``tau`` is +1 or -1 and flips which tail of the covariate goes missing.
    """

    a0: float
    a1: float
    tau: int = -1

    def __post_init__(self):
        if self.tau not in (-1, 1):
            raise ValueError("tau must be -1 or +1")
        if not (math.isfinite(self.a0) and math.isfinite(self.a1)):
            raise ValueError("logistic coefficients must be finite")

    def prob(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("LogisticScalar expects a 1-D coordinate column")
        # 1/(1+e^t) = sigmoid(-t); computed stably via expit.
        return clamp_missing_prob(expit(-self.tau * (self.a0 + self.a1 * x)))

    def sup_prob(self) -> float:
        if self.a1 == 0.0:
            return float(clamp_missing_prob(expit(-self.tau * self.a0)))
        return 1.0 - EPS_PHI  # sup over the real line, then clamped


@dataclass(frozen=True, eq=False)
class HalfspaceIndicator:
    """phi(z) = p * 1{a'z > level}.

    ``direction`` has the dimension of the points the entry is applied to;
    a length-1 direction acts on a scalar coordinate column.
    """

    direction: np.ndarray
    level: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _freeze(np.atleast_1d(self.direction)))
        if not 0.0 <= self.p < 1.0:
            raise ValueError("halfspace missing probability must lie in [0, 1)")

    def prob(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if self.direction.shape[0] != 1:
                raise ValueError("1-D input needs a length-1 direction")
            s = x * self.direction[0]
        else:
            s = x @ self.direction
        return clamp_missing_prob(np.where(s > self.level, self.p, 0.0))

    def sup_prob(self) -> float:
        return min(self.p, 1.0 - EPS_PHI)


@dataclass(frozen=True, eq=False)
class MissingnessFunction:
    """Per-class missingness model.

    Two regimes are supported:

    * ``joint=True``: one entry evaluated on full points; when triggered the
      whole point (every coordinate) goes missing together.
    * ``joint=False``: one entry per coordinate; coordinates go missing
      independently, each with probability depending only on its own value.
    """

    entries: tuple
    joint: bool

    @classmethod
    def none(cls, dim: int = 1) -> "MissingnessFunction":
        return cls(entries=tuple(Zero() for _ in range(dim)), joint=False)

    @classmethod
    def whole_point(cls, entry) -> "MissingnessFunction":
        return cls(entries=(entry,), joint=True)

    @classmethod
    def per_coordinate(cls, entries: Sequence) -> "MissingnessFunction":
        if len(entries) == 0:
            raise ValueError("need at least one coordinate entry")
        return cls(entries=tuple(entries), joint=False)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def point_prob(self, z: np.ndarray) -> np.ndarray:
        """P(point missing | z) for the whole-point regime, z of shape (n, d)."""
        if not self.joint:
            raise ValueError("point_prob is only defined for joint missingness")
        return self.entries[0].prob(np.atleast_2d(np.asarray(z, dtype=float)))

    def coord_prob(self, j: int, column: np.ndarray) -> np.ndarray:
        """P(coordinate j missing | value) for the per-coordinate regime."""
        if self.joint:
            raise ValueError("coord_prob is only defined for per-coordinate missingness")
        return self.entries[j].prob(np.asarray(column, dtype=float))

    def coordinate_entry(self, j: int):
        if self.joint:
            # A whole-point entry doubles as coordinate 0's entry only when it
            # reads one coordinate; a longer direction needs the whole point.
            entry = self.entries[0]
            direction = getattr(entry, "direction", None)
            if j == 0 and (direction is None or direction.shape == (1,)):
                return entry
            raise ValueError(
                "joint missingness acts on whole points and has no "
                f"per-coordinate entry {j}"
            )
        return self.entries[j]

    def sup_prob(self) -> float:
        """Upper bound on any single missing probability (the ||phi||_inf in m_eff)."""
        return max(e.sup_prob() for e in self.entries)

    def is_zero(self) -> bool:
        return self.sup_prob() == 0.0

    def corrupt(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the missingness model to fully observed points.

        Returns a copy with NaN marks; deterministic given the generator state.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("corrupt expects an (n, d) array")
        out = values.copy()
        if self.joint:
            p = self.point_prob(values)
            mask = rng.random(values.shape[0]) < p
            out[np.flatnonzero(mask)] = np.nan
        else:
            if values.shape[1] != self.dim:
                raise ValueError(
                    f"missingness has {self.dim} coordinate entries, data has "
                    f"{values.shape[1]} columns"
                )
            for j in range(self.dim):
                p = self.coord_prob(j, values[:, j])
                mask = rng.random(values.shape[0]) < p
                out[np.flatnonzero(mask), j] = np.nan
        return out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dataset:
    """A class-labelled sample of d-dimensional points with missing marks.

    ``values`` is (n, d) float; NaN marks a missing coordinate.  Class 0 is
    the error-controlled class in downstream classification.  The mask of
    fully observed rows is computed once, at construction, with
    ``observed_mask``; ``observed_rows`` and ``fully_observed`` read it.
    """

    values: np.ndarray
    label: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError("dataset must be a non-empty (n, d) array")
        if np.any(np.isinf(v)):
            raise DataError("stored values must be finite (NaN is the missing mark)")
        if self.label not in (0, 1):
            raise DataError("class label must be 0 or 1")
        object.__setattr__(self, "values", _freeze(v))
        observed = observed_mask(v)
        observed.flags.writeable = False
        object.__setattr__(self, "_observed", observed)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def observed_rows(self) -> np.ndarray:
        """Read-only boolean mask of rows with no missing coordinate."""
        return self._observed

    @property
    def fully_observed(self) -> bool:
        return bool(self._observed.all())

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]


# ---------------------------------------------------------------------------
# Feature maps and the log-linear ratio model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Feature map f: R^p -> R^d used by the log-linear ratio model.

    Outputs are validated finite on every evaluation.
    """

    kind: str
    input_dim: int
    output_dim: int

    @classmethod
    def identity(cls, dim: int) -> "FeatureMap":
        return cls(kind="identity", input_dim=dim, output_dim=dim)

    @classmethod
    def identity_plus_squares(cls, dim: int) -> "FeatureMap":
        return cls(kind="identity-squares", input_dim=dim, output_dim=2 * dim)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != self.input_dim:
            raise ValueError(
                f"feature map expects dimension {self.input_dim}, got {z.shape[1]}"
            )
        if np.isnan(z).any():
            raise ValueError(
                "feature map evaluated at a point with missing coordinates"
            )
        if self.kind == "identity":
            out = z
        elif self.kind == "identity-squares":
            out = np.hstack([z, z * z])
        else:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if not np.all(np.isfinite(out)):
            raise NumericError("feature map produced non-finite outputs")
        return out


@dataclass(frozen=True, eq=False)
class LogLinearRatioModel:
    """Density-ratio model r(z) = exp(theta' f(z)) with an optional normalizer.

    When the normalizer is set, ``log_ratio`` returns the calibrated
    log ratio theta' f(z) - log(normalizer); otherwise the raw linear score.
    Evaluation at points with missing coordinates is refused.
    """

    theta: np.ndarray
    feature_map: FeatureMap
    normalizer: float | None = None
    converged: bool = True

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if t.ndim != 1 or t.shape[0] != self.feature_map.output_dim:
            raise ValueError(
                f"theta length {t.shape[0]} does not match feature dimension "
                f"{self.feature_map.output_dim}"
            )
        if not np.all(np.isfinite(t)):
            raise ValueError("theta must be finite")
        if self.normalizer is not None and not 0.0 < self.normalizer < math.inf:
            raise ValueError("normalizer must be positive and finite when set")
        object.__setattr__(self, "theta", _freeze(t))

    @property
    def dim(self) -> int:
        return self.feature_map.input_dim

    def log_ratio(self, z: np.ndarray) -> np.ndarray:
        scores = self.feature_map(z) @ self.theta
        if self.normalizer is not None:
            scores = scores - math.log(self.normalizer)
        return scores

    def with_normalizer(self, value: float) -> "LogLinearRatioModel":
        return replace(self, normalizer=float(value))
