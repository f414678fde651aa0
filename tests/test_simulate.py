"""Tests for the structural-model fixtures and their population oracle."""

import numpy as np
import pytest

from plm.errors import InvalidRecipe
from plm.oracle import fit_ols, partial_corr
from plm.simulate import (
    GRAPH_EDGES,
    SCMRecipe,
    population_partial_corr,
    population_regression,
    recipe_covariance,
    simulate_scm,
)

# Fixed weights for graph "a" used by the hand-derived covariance below.
CASE_A = {"z->d": 0.8, "z->y": 0.6, "z->p": 0.7, "d->y": 1.2}


def test_same_seed_same_bytes():
    recipe = SCMRecipe(n=50, graph_case="d", seed=7)
    first = simulate_scm(recipe)
    second = simulate_scm(recipe)
    assert first.names == second.names
    for name in first.names:
        np.testing.assert_array_equal(first[name], second[name])


def test_seed_changes_data():
    a = simulate_scm(SCMRecipe(n=50, graph_case="a", seed=1))
    b = simulate_scm(SCMRecipe(n=50, graph_case="a", seed=2))
    assert not np.array_equal(a["Y"], b["Y"])


def test_column_layout():
    data = simulate_scm(SCMRecipe(n=10, graph_case="a", z_dim=2, seed=0))
    assert data.names == ("Z1", "Z2", "D", "P", "Y")
    double = simulate_scm(SCMRecipe(n=10, graph_case="double_b", seed=0))
    assert double.names == ("Z1", "P", "D", "N", "Y")


def test_zero_noise_is_exactly_structural():
    recipe = SCMRecipe(
        n=40,
        graph_case="a",
        coefficients={"z->d": 0.0, "z->y": 0.0, "z->p": 0.0, "d->y": 2.0},
        noise_sd={"y": 0.0},
        seed=3,
    )
    data = simulate_scm(recipe)
    np.testing.assert_array_equal(data["Y"], 2.0 * data["D"])


def test_covariance_matches_hand_derivation():
    # Z ~ N(0,1); D = .8Z + e; P = .7Z + e; Y = .6Z + 1.2D + e, unit noises.
    names, sigma = recipe_covariance(
        SCMRecipe(n=1, graph_case="a", coefficients=CASE_A)
    )
    assert names == ("Z1", "D", "P", "Y")
    expected = np.array(
        [
            [1.0, 0.8, 0.7, 1.56],
            [0.8, 1.64, 0.56, 2.448],
            [0.7, 0.56, 1.49, 1.092],
            [1.56, 2.448, 1.092, 4.8736],
        ]
    )
    np.testing.assert_allclose(sigma, expected, rtol=0, atol=1e-12)


def test_population_regression_recovers_causal_slope():
    names, sigma = recipe_covariance(
        SCMRecipe(n=1, graph_case="a", coefficients=CASE_A)
    )
    beta = population_regression(names, sigma, "Y", ("D", "Z1"))
    assert beta["D"] == pytest.approx(1.2, abs=1e-12)
    assert beta["Z1"] == pytest.approx(0.6, abs=1e-12)


def test_population_partial_corr_hand_value():
    names, sigma = recipe_covariance(
        SCMRecipe(n=1, graph_case="a", coefficients=CASE_A)
    )
    got = population_partial_corr(names, sigma, "Y", "D", ("Z1",))
    assert got == pytest.approx(1.2 / np.sqrt(2.44), abs=1e-12)


def test_sample_statistics_approach_population():
    recipe = SCMRecipe(n=200_000, graph_case="a", coefficients=CASE_A, seed=11)
    data = simulate_scm(recipe)
    names, sigma = recipe_covariance(recipe)
    sample_cov = np.cov(data.matrix(data.names), rowvar=False)
    np.testing.assert_allclose(sample_cov, sigma, atol=0.05)
    fit = fit_ols(data, "Y", ("D", "Z1"))
    pop = population_regression(names, sigma, "Y", ("D", "Z1"))
    assert fit.coef("D") == pytest.approx(pop["D"], abs=0.02)
    pc = partial_corr(data, "Y", "D", ("Z1",))
    pop_pc = population_partial_corr(names, sigma, "Y", "D", ("Z1",))
    assert pc == pytest.approx(pop_pc, abs=5 / np.sqrt(recipe.n))


def test_covariance_is_symmetric_psd():
    for case in GRAPH_EDGES:
        recipe = SCMRecipe(n=1, graph_case=case, z_dim=2, seed=0)
        _, sigma = recipe_covariance(recipe)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() > 0


def test_z_edge_broadcast_and_length_check():
    recipe = SCMRecipe(
        n=30, graph_case="a", z_dim=3, coefficients={"z->d": 0.5}, seed=0
    )
    np.testing.assert_array_equal(recipe.edge_weights("z->d"), [0.5] * 3)
    bad = SCMRecipe(
        n=30, graph_case="a", z_dim=3, coefficients={"z->y": (1.0, 2.0)}
    )
    with pytest.raises(InvalidRecipe, match="3 coefficients"):
        simulate_scm(bad)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n=10, graph_case="q"), "unknown graph case"),
        (dict(n=0, graph_case="a"), "at least 1"),
        (dict(n=10, graph_case="a", z_dim=0), "z_dim"),
        (dict(n=10, graph_case="a", coefficients={"p->d": 1.0}), "not part"),
        (dict(n=10, graph_case="a", noise_sd=-1.0), "finite and >= 0"),
        (dict(n=10, graph_case="a", noise_sd={"n": 1.0}), "unknown node"),
        (dict(n=10, graph_case="a", noise_sd={"d": float("nan")}), "finite"),
    ],
)
def test_invalid_recipes(kwargs, match):
    with pytest.raises(InvalidRecipe, match=match):
        SCMRecipe(**kwargs)


@pytest.mark.parametrize("edge, value", [
    ("z->y", float("inf")), ("z->y", float("nan")), ("d->y", float("-inf")),
    ("z->d", (0.5, float("nan"))),
])
def test_non_finite_coefficient_is_an_invalid_recipe(edge, value):
    # Each used to draw a column of non-finite values.
    with pytest.raises(InvalidRecipe, match=f"edge '{edge}' coefficients "
                       "must be finite"):
        SCMRecipe(n=10, graph_case="a", z_dim=2, coefficients={edge: value})
