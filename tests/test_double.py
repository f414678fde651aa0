"""Tests for the double-placebo adjustment and point identification."""

import numpy as np
import pytest

from plm.double import (
    DoublePlaceboPoint,
    DoublePlaceboSpec,
    DoubleShortFits,
    adjust_double_placebo,
    fit_double_shorts,
    point_identify_double_placebo,
)
from plm.engine import AnalysisConfig, _bind
from plm.errors import ConfigError, DenominatorNearZero
from plm.oracle import fit_ols
from plm.selfcheck import double_recovery_error
from plm.simulate import SCMRecipe, simulate_scm


def test_hand_example():
    fits = DoubleShortFits(beta_yd=2.0, beta_yp=1.5, beta_nd=0.8,
                           beta_np=0.6)
    assert point_identify_double_placebo(fits) == pytest.approx(0.0,
                                                                abs=1e-12)
    half = adjust_double_placebo(fits, DoublePlaceboPoint(k_product=0.5))
    assert half == pytest.approx(1.0, abs=1e-12)
    imperfect = point_identify_double_placebo(
        fits,
        {"beta_yp_long": 0.5, "beta_nd_long": 0.2, "beta_np_long": 0.1},
    )
    assert imperfect == pytest.approx(0.8, abs=1e-12)


def test_affine_in_k_product():
    fits = DoubleShortFits(1.0, 0.7, -0.4, 0.9)

    def est(kp):
        return adjust_double_placebo(fits, DoublePlaceboPoint(k_product=kp))

    slope = est(1.0) - est(0.0)
    assert est(3.0) == pytest.approx(est(0.0) + 3.0 * slope, rel=1e-12)


def test_single_confounder_point_identification_exact():
    for graph_case in ("double_a", "double_b"):
        for seed in (11, 22, 33, 44):
            err = double_recovery_error(graph_case, seed)
            assert err <= 1e-8, (graph_case, seed, err)


def test_general_k_product_exact_with_two_confounders():
    for graph_case in ("double_a", "double_b"):
        for seed in (55, 66, 77):
            err = double_recovery_error(graph_case, seed, z_dim=2,
                                        point_identified=False)
            assert err <= 1e-8, (graph_case, seed, err)


def test_two_unequal_confounders_break_point_identification():
    # Loadings chosen so the two hidden drivers hit the Y side and the N
    # side very differently; the product-equal-1 shortcut must then miss
    # by far more than ten times the recovery tolerance.
    recipe = SCMRecipe(
        n=400,
        graph_case="double_a",
        z_dim=2,
        coefficients={
            "z->y": (1.4, 0.2),
            "z->n": (0.2, 1.4),
            "z->d": (0.9, 0.8),
            "z->p": (0.3, 1.2),
            "d->y": 1.0,
        },
        seed=13,
    )
    data = simulate_scm(recipe)
    fits = fit_double_shorts(data, "Y", "D", "P", "N")
    long_y = fit_ols(data, "Y", ("D", "P", "Z1", "Z2"))
    long_n = fit_ols(data, "N", ("D", "P", "Z1", "Z2"))
    got = point_identify_double_placebo(
        fits,
        {
            "beta_yp_long": long_y.coef("P"),
            "beta_nd_long": long_n.coef("D"),
            "beta_np_long": long_n.coef("P"),
        },
    )
    target = long_y.coef("D")
    err = abs(got - target) / max(1.0, abs(target))
    assert err > 1e-7 * 10


def test_denominator_guard():
    fits = DoubleShortFits(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(DenominatorNearZero):
        adjust_double_placebo(
            fits, DoublePlaceboPoint(k_product=1.0, beta_np_long=0.5)
        )


def test_point_parameter_validation():
    with pytest.raises(ConfigError):
        DoublePlaceboPoint(k_product=float("nan"))
    with pytest.raises(ConfigError, match="unknown imperfection"):
        point_identify_double_placebo(
            DoubleShortFits(1.0, 1.0, 1.0, 1.0), {"beta_dp_long": 0.1}
        )


def test_fit_double_shorts_matches_direct_fits():
    # One QR of the shared design: bit for bit the engine's full-sample
    # route, and two separate fit_ols calls up to the last bit.
    data = simulate_scm(SCMRecipe(n=120, graph_case="double_b", seed=5))
    fits = fit_double_shorts(data, "Y", "D", "P", "N")
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N")
    formula, cols = _bind(data, AnalysisConfig(spec=spec))
    assert tuple(formula.quantities(cols, slice(None))) == tuple(fits)
    fit_y = fit_ols(data, "Y", ("D", "P"))
    fit_n = fit_ols(data, "N", ("D", "P"))
    assert fits[:4] == pytest.approx(
        (fit_y.coef("D"), fit_y.coef("P"), fit_n.coef("D"),
         fit_n.coef("P")), rel=1e-12, abs=0)
    assert fits.np_unit == np.std(data["N"]) / np.std(data["P"])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["beta_yp_long", "beta_np_long"])
def test_spec_refuses_a_non_finite_long_coefficient(field, value):
    with pytest.raises(ConfigError,
                       match="^fixed long coefficients must be finite$"):
        DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                          placebo_treatment_col="P",
                          placebo_outcome_col="N", **{field: value})


def test_spec_validation():
    with pytest.raises(ConfigError, match="distinct"):
        DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                          placebo_treatment_col="P",
                          placebo_outcome_col="P")
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N",
                             covariate_cols=["X1"])
    assert spec.covariate_cols == ("X1",)
    assert spec.role == "double_placebo"
