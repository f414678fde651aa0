"""Tests for the group-means difference-in-differences bridge."""

import numpy as np
import pytest

from plm.adjust import PlaceboSpec, ShortCoefficients, dispatch_case, k_from_m
from plm.did import (
    DIDAssumption,
    GroupMeans,
    att,
    dim,
    m_to_w,
    parallel_trends_gap,
    w_to_m,
)
from plm.errors import ConfigError, DataError, DenominatorNearZero, \
    NumericError
from plm.oracle import fit_ols, residual
from plm.regression import Dataset

MEANS = GroupMeans(
    mean_y_treated=10.0,
    mean_y_control=4.0,
    mean_n_treated=5.0,
    mean_n_control=2.0,
    n_treated=30,
    n_control=50,
)


def test_dim_and_att_hand_values():
    d = dim(MEANS)
    assert d == {"dim_Y": 6.0, "dim_N": 3.0}
    assert att(MEANS, DIDAssumption(m=0.0)) == 6.0
    assert att(MEANS, DIDAssumption(m=1.0)) == 3.0
    assert att(MEANS, DIDAssumption(m=1.5)) == 1.5
    assert att(MEANS, DIDAssumption(m=1.0, att_n=1.0)) == 4.0


def test_gap_equals_standard_did():
    gap = parallel_trends_gap(MEANS)
    assert gap["trend_treated"] == 5.0
    assert gap["trend_control"] == 2.0
    assert gap["bias_Y_minus_bias_N"] == att(MEANS, DIDAssumption(m=1.0))


def test_m_w_round_trip_and_anchors():
    for m in (-1.0, 0.0, 0.5, 1.0, 2.0):
        w = m_to_w(m, MEANS)
        assert w_to_m(w, MEANS) == pytest.approx(m, abs=1e-12)
    # m = 1 is the parallel-trends anchor regardless of the means.
    assert m_to_w(1.0, MEANS) == pytest.approx(1.0, abs=1e-12)
    # w = 0 pins the counterfactual at the pre-period treated mean, so the
    # implied estimate is the treated group's own change.
    m_level = w_to_m(0.0, MEANS)
    got = att(MEANS, DIDAssumption(m=m_level))
    assert got == pytest.approx(parallel_trends_gap(MEANS)["trend_treated"],
                                abs=1e-12)


def test_m_w_round_trip_with_pre_period_effect():
    for m in (0.3, 1.0, 1.8):
        w = m_to_w(m, MEANS, att_n=0.7)
        assert w_to_m(w, MEANS, att_n=0.7) == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("att_n", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mapping", [m_to_w, w_to_m])
def test_m_w_maps_refuse_a_non_finite_att_n(mapping, att_n):
    # As DIDAssumption does for att(); m_to_w returned nan and w_to_m -0.0.
    with pytest.raises(ConfigError, match="att_n must be finite"):
        mapping(1.0, GroupMeans(5.0, 3.0, 2.0, 1.0), att_n=att_n)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mapping, name", [(m_to_w, "m"), (w_to_m, "w")],
                         ids=["m_to_w", "w_to_m"])
def test_m_w_maps_refuse_a_non_finite_argument(mapping, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        mapping(value, GroupMeans(5.0, 3.0, 2.0, 1.0))


def test_denominator_guards():
    flat_control = GroupMeans(10.0, 4.0, 5.0, 4.0)
    with pytest.raises(DenominatorNearZero):
        m_to_w(1.0, flat_control)
    equal_pre = GroupMeans(10.0, 4.0, 2.0, 2.0)
    with pytest.raises(DenominatorNearZero):
        w_to_m(1.0, equal_pre)


@pytest.mark.parametrize("scale", [1e-14, 1e14])
def test_m_w_maps_are_unit_free(scale):
    unit = GroupMeans(5.0, 3.0, 2.0, 1.0)
    scaled = GroupMeans(5.0 * scale, 3.0 * scale, 2.0 * scale, 1.0 * scale)
    for m in (0.0, 0.5, 1.0, 2.0):
        assert m_to_w(m, scaled) == pytest.approx(m_to_w(m, unit), rel=1e-12)
        assert w_to_m(m, scaled) == pytest.approx(w_to_m(m, unit), rel=1e-12)
    with pytest.raises(DenominatorNearZero):
        m_to_w(1.0, GroupMeans(5.0 * scale, 2.0 * scale, 1.0 * scale,
                               2.0 * scale))
    with pytest.raises(DenominatorNearZero):
        w_to_m(1.0, GroupMeans(5.0 * scale, 3.0 * scale, 2.0 * scale,
                               2.0 * scale))


def test_group_means_from_data():
    data = Dataset(
        {
            "Y": [1.0, 3.0, 10.0, 14.0],
            "N": [0.0, 2.0, 4.0, 6.0],
            "G": [0.0, 0.0, 1.0, 1.0],
        }
    )
    means = GroupMeans.from_data(data, "Y", "N", "G")
    assert means == GroupMeans(12.0, 2.0, 5.0, 1.0, n_treated=2, n_control=2)
    with pytest.raises(DataError, match="0/1"):
        GroupMeans.from_data(
            Dataset({"Y": [1.0], "N": [0.0], "G": [2.0]}), "Y", "N", "G"
        )
    with pytest.raises(DataError, match="non-empty"):
        GroupMeans.from_data(
            Dataset({"Y": [1.0, 2.0], "N": [0.0, 1.0], "G": [1.0, 1.0]}),
            "Y", "N", "G",
        )


def test_group_means_that_overflow_are_a_numeric_error():
    data = Dataset({"Y": [1e308, 1e308, -1e308, -1e308],
                    "N": [0.0, 0.0, 1.0, 1.0], "G": [1.0, 1.0, 0.0, 0.0]})
    with pytest.raises(NumericError,
                       match="^group means of 'Y' and 'N' overflow$"):
        GroupMeans.from_data(data, "Y", "N", "G")


def test_validation():
    with pytest.raises(ConfigError):
        GroupMeans(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        GroupMeans(1.0, 0.0, 0.0, 0.0, n_treated=0)
    with pytest.raises(ConfigError):
        DIDAssumption(m=float("inf"))


def test_att_matches_placebo_outcome_adjustment():
    # With a binary treatment column the group-means estimator and the
    # regression placebo-outcome adjustment are the same computation, with
    # m = k * SF.
    rng = np.random.default_rng(42)
    g = (rng.uniform(size=400) < 0.4).astype(float)
    y = 2.0 + 1.5 * g + rng.normal(size=400)
    n = -1.0 + 0.8 * g + 0.5 * rng.normal(size=400)
    data = Dataset({"Y": y, "N": n, "G": g})
    means = GroupMeans.from_data(data, "Y", "N", "G")
    beta_y = fit_ols(data, "Y", ("G",)).coef("G")
    beta_n = fit_ols(data, "N", ("G",)).coef("G")
    assert beta_y == pytest.approx(dim(means)["dim_Y"], rel=1e-10)
    assert beta_n == pytest.approx(dim(means)["dim_N"], rel=1e-10)
    sf = (np.linalg.norm(residual(data, "Y", ("G",)))
          / np.linalg.norm(residual(data, "N", ("G",))))
    case = dispatch_case(PlaceboSpec(outcome_col="Y", treatment_col="G",
                                     placebo_col="N", role="placebo_outcome"))
    coefs = ShortCoefficients(target=beta_y, placebo=beta_n)
    for m in (0.0, 0.5, 1.0, 1.7):
        via_did = att(means, DIDAssumption(m=m))
        via_adjust = case.adjust(coefs, k_from_m(m, sf), 0.0, sf)
        assert via_adjust == pytest.approx(via_did, abs=1e-10)
