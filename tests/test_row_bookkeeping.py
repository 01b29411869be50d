"""Row bookkeeping of the fit path against the plain numpy forms.

``Dataset`` computes its observed-row mask once, column by column; the class
terms and the calibration scores take the observed rows from it with index
arrays and weigh those rows alone, and the corruption selects rows with
index arrays too.  Each is checked here, bit for bit, against
a test-local oracle written with ``~np.isnan(v).any(axis=1)`` and boolean
row indexing, on data that includes rows with every coordinate missing and
samples with no missing coordinate at all.  The widths d in {1, 2, 5} are
the ones the scenarios use; the mask switches from the column loop to one
reduction above ``_COLUMN_LOOP_MAX_D`` columns, so both sides of that cut-off
are drawn too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mnar_dre.kliep import COMPLETE_CASE, FULLY_OBSERVED, Mnar, class_terms
from mnar_dre.model import (
    _COLUMN_LOOP_MAX_D,
    MAX_WEIGHT,
    Dataset,
    DataError,
    FeatureMap,
    HalfspaceIndicator,
    LogisticScalar,
    MissingnessFunction,
    NumericError,
)
from mnar_dre.np_classify import calibration_scores
from mnar_dre.weighting import point_importance_weights

PATTERNS = ("mixed", "none-missing", "all-missing", "whole-rows")


@st.composite
def _samples(draw):
    """(values, pattern): an (n, d) float array with NaN marks."""
    wide = [_COLUMN_LOOP_MAX_D, _COLUMN_LOOP_MAX_D + 1, 20]
    d = draw(st.sampled_from([1, 2, 5] + wide))
    n = draw(st.integers(1, 30))
    pattern = draw(st.sampled_from(PATTERNS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(scale=2.0, size=(n, d))
    if pattern == "mixed":
        values[rng.random((n, d)) < draw(st.sampled_from([0.1, 0.5, 0.9]))] = np.nan
    elif pattern == "all-missing":
        values[:] = np.nan
    elif pattern == "whole-rows":
        values[rng.random(n) < 0.5, :] = np.nan
    return values, pattern


def _phis(d):
    """A whole-point and a per-coordinate missingness on d coordinates."""
    joint = MissingnessFunction.whole_point(
        HalfspaceIndicator(direction=np.linspace(1.0, -1.0, d), level=0.0, p=0.7)
    )
    per_coord = MissingnessFunction.per_coordinate(
        [LogisticScalar(a0=0.3 * j - 0.5, a1=1.0 + j, tau=-1) for j in range(d)]
    )
    return joint, per_coord


def _oracle_observed(values):
    return ~np.isnan(values).any(axis=1)


def _oracle_weights(values, phi):
    observed = _oracle_observed(values)
    w = np.zeros(values.shape[0])
    if not observed.any():
        return w
    obs = values[observed]
    if phi.joint:
        w[observed] = 1.0 / (1.0 - phi.point_prob(obs))
    else:
        prod = np.ones(obs.shape[0])
        for j in range(phi.dim):
            prod *= 1.0 / (1.0 - phi.coord_prob(j, obs[:, j]))
        w[observed] = np.minimum(prod, MAX_WEIGHT)
    return w


def _oracle_terms(values, fmap, mode, phi=None):
    """(features, weights, divisor) or the exception type raised."""
    n = values.shape[0]
    observed = _oracle_observed(values)
    if mode == "mnar":
        w = _oracle_weights(values, phi)
        keep = w > 0.0
        if not keep.any():
            return NumericError
        return fmap(values[keep]), w[keep], n
    if mode == FULLY_OBSERVED:
        if not observed.all():
            return DataError
        return fmap(values), np.ones(n), n
    if not observed.any():
        return NumericError
    m = int(observed.sum())
    return fmap(values[observed]), np.ones(m), m


@settings(max_examples=150, deadline=None)
@given(_samples())
def test_cached_mask_matches_the_any_oracle(sample):
    values, pattern = sample
    data = Dataset(values, 0)
    observed = data.observed_rows()
    assert observed.dtype == bool
    assert np.array_equal(observed, _oracle_observed(values))
    assert data.fully_observed == (not np.isnan(values).any())
    if pattern == "none-missing":
        assert data.fully_observed
    if pattern == "all-missing":
        assert not observed.any()
    assert not observed.flags.writeable
    assert data.observed_rows() is observed  # computed once


@settings(max_examples=150, deadline=None)
@given(_samples())
def test_point_importance_weights_match_the_boolean_indexing_oracle(sample):
    # The weights take the fully observed rows alone.
    values, _ = sample
    observed = _oracle_observed(values)
    for phi in _phis(values.shape[1]):
        want = _oracle_weights(values, phi)[observed]
        assert np.array_equal(point_importance_weights(values[observed], phi), want)


@settings(max_examples=150, deadline=None)
@given(_samples(), st.sampled_from([0, 1]))
def test_class_terms_match_the_boolean_indexing_oracle(sample, class_index):
    values, pattern = sample
    data = Dataset(values, class_index)
    fmap = FeatureMap.identity_plus_squares(data.dim)
    cases = [(FULLY_OBSERVED, FULLY_OBSERVED, None), (COMPLETE_CASE, COMPLETE_CASE, None)]
    for phi in _phis(data.dim):
        cases.append(("mnar", Mnar(phi, phi), phi))
    for name, mode, phi in cases:
        want = _oracle_terms(values, fmap, name, phi)
        if isinstance(want, type):
            with pytest.raises(want):
                class_terms(data, fmap, mode, class_index)
            continue
        got = class_terms(data, fmap, mode, class_index)
        features, weights, divisor = want
        assert np.array_equal(got.features, features)
        assert np.array_equal(got.weights, weights)
        assert got.divisor == divisor
    if pattern == "all-missing":
        # A class with no observed rows has nothing to weight.
        for mode in (COMPLETE_CASE, *(Mnar(phi, phi) for phi in _phis(data.dim))):
            with pytest.raises(NumericError):
                class_terms(data, fmap, mode, class_index)


@settings(max_examples=100, deadline=None)
@given(_samples())
def test_calibration_scores_match_the_boolean_indexing_oracle(sample):
    values, _ = sample
    data = Dataset(values, 0)
    theta = np.linspace(-1.0, 1.0, data.dim)
    seen = []

    class Linear:
        def log_ratio(self, z):
            seen.append(z.shape[0])
            return z @ theta

    observed = _oracle_observed(values)
    for phi0 in (MissingnessFunction.none(data.dim), *_phis(data.dim)):
        seen.clear()
        scores, weights = calibration_scores(Linear(), data, phi0)
        want = np.full(data.n, -np.inf)
        if observed.any():
            want[observed] = values[observed] @ theta
        assert np.array_equal(scores, want)
        assert np.array_equal(weights, _oracle_weights(values, phi0))
        if phi0.is_zero():
            # 1/(1 - 0) is exactly 1: the unit weights of a zero phi0.
            assert np.array_equal(weights, observed.astype(float))
        assert seen == ([int(observed.sum())] if observed.any() else [])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 5]), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_corrupt_matches_the_boolean_indexing_oracle(d, n, seed):
    values = np.random.default_rng(seed).normal(size=(n, d))
    for phi in _phis(d):
        got = phi.corrupt(values, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want = values.copy()
        if phi.joint:
            want[rng.random(n) < phi.point_prob(values), :] = np.nan
        else:
            for j in range(d):
                want[rng.random(n) < phi.coord_prob(j, values[:, j]), j] = np.nan
        assert np.array_equal(got, want, equal_nan=True)
