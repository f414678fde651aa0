"""Tests for the model-agnostic placebo-outcome adjustment."""

import numpy as np
import pytest

from plm.adjust import PlaceboSpec, dispatch_case
from plm.errors import ConfigError, NonpositiveScale
from plm.semiparam import SemiparamInputs, adjust_partially_linear
from plm.selfcheck import random_recipe
from plm.simulate import simulate_scm


def test_hand_value():
    inputs = SemiparamInputs(
        theta_s_y=2.0, theta_s_n=1.0, theta_l_n=0.0,
        k=4.0, gamma=1.0, s2_y=9.0, s2_n=4.0, sign_m=1,
    )
    assert adjust_partially_linear(inputs) == pytest.approx(-1.0, abs=1e-12)
    flipped = SemiparamInputs(
        theta_s_y=2.0, theta_s_n=1.0, theta_l_n=0.0,
        k=4.0, gamma=1.0, s2_y=9.0, s2_n=4.0, sign_m=-1,
    )
    assert adjust_partially_linear(flipped) == pytest.approx(5.0, abs=1e-12)


def test_zero_k_or_gamma_leaves_short_estimate():
    base = dict(theta_s_y=1.3, theta_s_n=0.4, theta_l_n=0.1,
                s2_y=2.0, s2_n=1.0)
    assert adjust_partially_linear(SemiparamInputs(k=0.0, **base)) == 1.3
    assert adjust_partially_linear(
        SemiparamInputs(k=2.0, gamma=0.0, **base)
    ) == 1.3


def test_both_model_classes_share_the_formula():
    # One function serves the partially linear and the nonparametric model;
    # it must evaluate the shared closed form on arbitrary inputs.
    rng = np.random.default_rng(7)
    for _ in range(25):
        inputs = SemiparamInputs(
            theta_s_y=rng.normal(),
            theta_s_n=rng.normal(),
            theta_l_n=rng.normal(),
            k=rng.uniform(0, 5),
            gamma=rng.uniform(0, 3),
            s2_y=rng.uniform(0.1, 4),
            s2_n=rng.uniform(0.1, 4),
            sign_m=int(rng.choice((-1, 1))),
        )
        closed_form = inputs.theta_s_y - inputs.sign_m * np.sqrt(
            inputs.gamma * inputs.k) * (inputs.theta_s_n - inputs.theta_l_n) \
            * np.sqrt(inputs.s2_y / inputs.s2_n)
        assert adjust_partially_linear(inputs) == pytest.approx(closed_form,
                                                                rel=1e-12,
                                                                abs=1e-12)


def test_reduces_to_linear_placebo_outcome():
    # gamma = 1, k = (linear k)^2 with its sign carried separately, and the
    # variance ratio equal to the squared residual-scale ratio reproduce the
    # linear adjustment exactly.
    data = simulate_scm(random_recipe("b", seed=31, n=140))
    spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="P",
                       role="placebo_outcome", edge_d_to_p=True)
    case = dispatch_case(spec)
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)
    for k_linear in (-1.4, -0.5, 0.8, 2.0):
        for direct in (0.0, 0.6):
            linear = case.adjust(coefs, k_linear, direct, sf)
            semi = adjust_partially_linear(
                SemiparamInputs(
                    theta_s_y=coefs.target,
                    theta_s_n=coefs.placebo,
                    theta_l_n=direct,
                    k=k_linear**2,
                    gamma=1.0,
                    s2_y=sf**2,
                    s2_n=1.0,
                    sign_m=1 if k_linear > 0 else -1,
                )
            )
            assert semi == pytest.approx(linear, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs, exc",
    [
        (dict(k=-0.1), ConfigError),
        (dict(k=1.0, gamma=-1.0), ConfigError),
        (dict(k=1.0, s2_y=0.0), NonpositiveScale),
        (dict(k=1.0, s2_n=-2.0), NonpositiveScale),
        (dict(k=1.0, sign_m=0), ConfigError),
        (dict(k=float("nan")), ConfigError),
    ],
)
def test_validation(kwargs, exc):
    base = dict(theta_s_y=1.0, theta_s_n=0.5, theta_l_n=0.0)
    with pytest.raises(exc):
        SemiparamInputs(**base, **kwargs)
