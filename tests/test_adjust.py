"""Tests for the single-placebo case formulas and dispatch."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from plm.adjust import (
    _ROLE_TABLE,
    ROLES,
    PlaceboSpec,
    SensitivityPoint,
    ShortCoefficients,
    dispatch_case,
    k_from_m,
    m_from_k,
)
from plm.double import DoublePlaceboSpec, fit_double_shorts
from plm.engine import AnalysisConfig, run_table
from plm.errors import (
    AmbiguousSpec,
    ConfigError,
    DegenerateResidual,
    MediatorCautionWarning,
    NonpositiveScale,
    ScaleConfusionWarning,
    UnsupportedCase,
)
from plm.oracle import cohens_f, fit_ols, partial_corr
from plm.regression import Dataset
from plm.selfcheck import SINGLE_CASES, random_recipe, recovery_error
from plm.simulate import simulate_scm


def _spec(role, **kwargs):
    return PlaceboSpec(
        outcome_col="Y",
        treatment_col="D",
        placebo_col="P",
        role=role,
        **kwargs,
    )


def _case(role, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MediatorCautionWarning)
        return dispatch_case(_spec(role, **kwargs))


def test_placebo_outcome_hand_example():
    # D binary; Y ~ D has slope 2 and unit residual norm, N = 2Y doubles
    # both, so SF = 1/2 exactly.
    data = Dataset(
        {"Y": [0.0, 2.0, 1.0, 3.0], "D": [0.0, 1.0, 0.0, 1.0],
         "N": [0.0, 4.0, 2.0, 6.0]}
    )
    spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="N",
                       role="placebo_outcome", edge_d_to_p=True)
    case = dispatch_case(spec)
    coefs = case.fit_coefficients(data)
    assert coefs.target == pytest.approx(2.0, abs=1e-12)
    assert coefs.placebo == pytest.approx(4.0, abs=1e-12)
    sf = case.sf(data)
    assert sf == pytest.approx(0.5, abs=1e-12)
    assert case.adjust(coefs, 1.0, 0.0, sf) == pytest.approx(0.0, abs=1e-12)
    assert case.adjust(coefs, 0.5, 1.0, sf) == pytest.approx(1.25, abs=1e-12)


def test_k_zero_returns_short_target_everywhere():
    data = simulate_scm(random_recipe("d", seed=5, n=120))
    for graph_case, role, kwargs in SINGLE_CASES:
        case = _case(role, **kwargs)
        coefs = case.fit_coefficients(data)
        sf = case.sf(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MediatorCautionWarning)
            assert case.adjust(coefs, 0.0, 0.0, sf) == coefs.target


@pytest.mark.parametrize("graph_case, role, kwargs", SINGLE_CASES,
                         ids=[f"{graph}-{role}" for graph, role, _ in
                              SINGLE_CASES])
@pytest.mark.parametrize("z_dim", [1, 2])
def test_exact_parameter_recovery(graph_case, role, kwargs, z_dim):
    for seed in (101, 202, 303):
        err = recovery_error(graph_case, role, kwargs, seed, z_dim=z_dim)
        assert err <= 1e-8, (graph_case, role, z_dim, seed, err)


def test_placebo_treatment_k_equals_f_ratio_single_z():
    # With one hidden driver, the exact k is a ratio of Cohen's f values.
    recipe = random_recipe("a", seed=17, n=300, z_dim=1)
    data = simulate_scm(recipe)
    case = _case("placebo_treatment")
    sf = case.sf(data)
    long_fit = fit_ols(data, "Y", ("D", "P", "Z1"))
    coefs = case.fit_coefficients(data)
    bias_t = coefs.target - long_fit.coef("D")
    bias_p = coefs.placebo - long_fit.coef("P")
    k_exact = bias_t / (bias_p * sf)
    f_d = cohens_f(partial_corr(data, "D", "Z1", ("P",)))
    f_p = cohens_f(partial_corr(data, "P", "Z1", ("D",)))
    assert k_exact == pytest.approx(f_d / f_p, rel=1e-8)


def test_scale_factor_trivial_placebo_copies():
    rng = np.random.default_rng(0)
    y = rng.normal(size=80)
    d = rng.normal(size=80)
    data_same = Dataset({"Y": y, "D": d, "N": y})
    data_double = Dataset({"Y": y, "D": d, "N": 2.0 * y + 3.0})
    spec = PlaceboSpec(outcome_col="Y", treatment_col="D", placebo_col="N",
                       role="placebo_outcome", edge_d_to_p=True)
    case = dispatch_case(spec)
    assert case.sf(data_same) == pytest.approx(1.0, rel=1e-12)
    assert case.sf(data_double) == pytest.approx(0.5, rel=1e-10)


def test_outcome_rescaling_equivariance():
    data = simulate_scm(random_recipe("a", seed=9, n=150))
    scaled = Dataset(
        {"Y": 10.0 * data["Y"], "D": data["D"], "P": data["P"],
         "Z1": data["Z1"]}
    )
    case = _case("placebo_outcome", edge_d_to_p=True)
    base = case.adjust(case.fit_coefficients(data), 0.7, 0.2, case.sf(data))
    rescaled = case.adjust(
        case.fit_coefficients(scaled), 0.7, 0.2, case.sf(scaled)
    )
    assert rescaled == pytest.approx(10.0 * base, rel=1e-10)


def test_estimate_affine_in_k_and_direct():
    data = simulate_scm(random_recipe("g", seed=3, n=90))
    case = _case("post_outcome")
    coefs = case.fit_coefficients(data)
    sf = case.sf(data)

    def est(k, direct):
        return case.adjust(coefs, k, direct, sf)

    slope_k = est(1.0, 0.3) - est(0.0, 0.3)
    assert est(2.5, 0.3) == pytest.approx(est(0.0, 0.3) + 2.5 * slope_k,
                                          rel=1e-10)
    slope_d = est(1.5, 1.0) - est(1.5, 0.0)
    assert est(1.5, -2.0) == pytest.approx(est(1.5, 0.0) - 2.0 * slope_d,
                                           rel=1e-10)


def test_m_k_round_trip():
    for sf in (0.25, 1.0, 3.5):
        for m in (-2.0, -0.3, 0.0, 1.7):
            assert m_from_k(k_from_m(m, sf), sf) == pytest.approx(m,
                                                                  abs=1e-12)
    with pytest.raises(NonpositiveScale):
        k_from_m(1.0, 0.0)
    with pytest.raises(NonpositiveScale):
        m_from_k(1.0, -2.0)


def test_sensitivity_point_validation():
    with pytest.raises(ConfigError):
        SensitivityPoint(k=float("nan"))
    with pytest.raises(ConfigError):
        SensitivityPoint(k=1.0, direct_effect=float("inf"))


def test_degenerate_placebo_residual():
    data = Dataset(
        {"Y": [1.0, 2.0, 3.0, 4.0], "D": [0.0, 1.0, 0.0, 1.0],
         "P": [5.0, 5.0, 5.0, 5.0]}
    )
    case = _case("placebo_outcome", edge_d_to_p=True)
    with pytest.raises(DegenerateResidual):
        case.sf(data)


@pytest.mark.parametrize("size, refused", [(1e-13, True), (1e-11, False)])
def test_scale_factor_refuses_a_residual_only_at_rounding_scale(size,
                                                                 refused):
    # P is exactly linear in D but for a residual of ``size`` times its
    # norm: NEAR_ZERO (1e-12) is where that residual is rounding noise.
    rng = np.random.default_rng(3)
    d = rng.normal(size=200)
    fitted = 5.0 + 2.0 * d
    basis = np.column_stack([np.ones(200), d])
    noise = rng.normal(size=200)
    noise -= basis @ np.linalg.lstsq(basis, noise, rcond=None)[0]
    p = fitted + size * np.linalg.norm(fitted) / np.linalg.norm(noise) * noise
    data = Dataset({"Y": rng.normal(size=200) + d, "D": d, "P": p})
    case = _case("placebo_outcome", edge_d_to_p=True)
    if refused:
        with pytest.raises(DegenerateResidual):
            case.sf(data)
    else:
        assert case.sf(data) > 0


def test_mediator_warns_every_call():
    case = _case("mediator", edge_d_to_p=True, edge_p_to_y=True,
                 acknowledge_mediator=True)
    coefs = ShortCoefficients(target=1.0, placebo=0.5)
    for _ in range(2):
        with pytest.warns(MediatorCautionWarning):
            case.adjust(coefs, 0.5, 0.0, 1.0)


def test_large_k_warns_scale_confusion():
    case = _case("placebo_outcome")
    coefs = ShortCoefficients(target=1.0, placebo=0.5)
    with pytest.warns(ScaleConfusionWarning):
        case.adjust(coefs, 50.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ScaleConfusionWarning)
        case.adjust(coefs, 10.0, 0.0, 1.0)


def test_nonpositive_scale_factor_rejected():
    case = _case("placebo_outcome")
    with pytest.raises(NonpositiveScale):
        case.adjust(ShortCoefficients(target=1.0, placebo=0.5), 1.0, 0.0,
                    0.0)


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown role"):
        _spec("negative_control")
    with pytest.raises(ConfigError, match="distinct"):
        PlaceboSpec(outcome_col="Y", treatment_col="Y", placebo_col="P",
                    role="placebo_outcome")


_MEDIATED = (
    "placebo lies on a causal path from treatment to outcome; the measured "
    "placebo coefficient is part of the total effect and the "
    "relative-confounding parameter includes the mediated channel",)
_ACKNOWLEDGED = ("mediator case acknowledged: parameters conflate causal "
                 "and confounding channels",)
# Each role's accepted (edge_d_to_p, edge_p_to_y) declarations and the
# (alternatives, cautions) it reports there; any other pair is ambiguous.
_DISPATCH = {
    "placebo_outcome": {(False, False): (("placebo_treatment",), ()),
                        (True, False): ((), ()),
                        (True, True): (("mediator",), _MEDIATED)},
    "placebo_treatment": {(False, False): (("placebo_outcome",), ()),
                          (False, True): (("observed_confounder_1",), ())},
    "observed_confounder_1": {(False, True): (("placebo_treatment",), ())},
    "observed_confounder_2": {(False, False): ((), ()),
                              (False, True): ((), ())},
    "mediator": {(True, True): (("placebo_outcome",), _ACKNOWLEDGED)},
    "post_outcome": {(False, False): ((), ()), (True, False): ((), ())},
}


@pytest.mark.parametrize("acknowledge", [False, True])
@pytest.mark.parametrize("p_to_y", [False, True])
@pytest.mark.parametrize("d_to_p", [False, True])
@pytest.mark.parametrize("role", ROLES)
def test_dispatch_over_every_role_and_edge_set(role, d_to_p, p_to_y,
                                               acknowledge):
    spec = _spec(role, edge_d_to_p=d_to_p, edge_p_to_y=p_to_y,
                 acknowledge_mediator=acknowledge)
    expected = _DISPATCH[role].get((d_to_p, p_to_y))
    if expected is None:
        with pytest.raises(AmbiguousSpec):
            dispatch_case(spec)
    elif role == "mediator" and not acknowledge:
        with pytest.raises(UnsupportedCase):
            dispatch_case(spec)
    else:
        case = dispatch_case(spec)
        assert (case.alternatives, case.cautions) == expected


@pytest.mark.parametrize("role", ROLES)
def test_ambiguous_spec_names_every_accepting_role(role):
    for edges in {(False, False), (True, False), (False, True),
                  (True, True)} - set(_DISPATCH[role]):
        with pytest.raises(AmbiguousSpec) as err:
            dispatch_case(_spec(role, edge_d_to_p=edges[0],
                                edge_p_to_y=edges[1]))
        named = {other for other in ROLES if other in str(err.value)}
        assert named == {role} | {other for other in ROLES
                                  if edges in _DISPATCH[other]}


def test_mediator_is_gated():
    with pytest.raises(UnsupportedCase, match="acknowledge_mediator"):
        dispatch_case(_spec("mediator", edge_d_to_p=True, edge_p_to_y=True))
    case = _case("mediator", edge_d_to_p=True, edge_p_to_y=True,
                 acknowledge_mediator=True)
    assert case.cautions


def test_direct_effect_names():
    assert _case("placebo_outcome").direct_effect_name == "treatment->placebo"
    assert _case("post_outcome").direct_effect_name == "outcome->placebo"


def test_short_regressions_listing():
    case = _case("observed_confounder_2", covariate_cols=("X1",))
    assert case.short_regressions == (
        ("Y", ("D", "P", "X1")),
        ("D", ("P", "X1")),
    )


# One consistent set of edge flags per role.
ROLE_KWARGS = {role: kwargs for _, role, kwargs in SINGLE_CASES}


def _earnings_data(n=400, seed=12):
    # Earnings-scale outcome and placebo (means around 1e4) next to a binary
    # treatment and two covariates on their natural scales.
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    age = 35.0 + 9.0 * rng.normal(size=n)
    educ = 12.0 + 2.5 * rng.normal(size=n)
    d = (0.8 * z + 0.03 * (age - 35.0) + rng.normal(size=n) > 0).astype(float)
    p = (9000.0 + 2500.0 * z + 120.0 * (age - 35.0) + 400.0 * (educ - 12.0)
         + 1500.0 * rng.normal(size=n))
    y = (11000.0 + 1800.0 * d + 3000.0 * z + 200.0 * (age - 35.0)
         + 600.0 * (educ - 12.0) + 2000.0 * rng.normal(size=n))
    return Dataset({"Y": y, "D": d, "P": p, "AGE": age, "EDUC": educ})


def _lstsq_fit(data, response, regressors):
    """Slopes and residual norm of one design by numpy lstsq, on the
    regressors centred and scaled to unit SD so that the reference is
    accurate to rounding whatever their units."""
    z = [(data[name] - data[name].mean()) / data[name].std()
         for name in regressors]
    design = np.column_stack([np.ones(data.n_rows), *z])
    beta = np.linalg.lstsq(design, data[response], rcond=None)[0]
    resid = data[response] - design @ beta
    slopes = {name: b / data[name].std()
              for name, b in zip(regressors, beta[1:])}
    return slopes, np.linalg.norm(resid)


def _lstsq_reference(role, data, x):
    """(target, placebo, SF) from numpy lstsq fits, written out per role."""

    def fit(response, regressors):
        return _lstsq_fit(data, response, (*regressors, *x))

    def coef(response, regressors, column):
        return fit(response, regressors)[0][column]

    def r(variable, *controls):
        return fit(variable, controls)[1]

    if role == "placebo_outcome":
        return (coef("Y", ("D",), "D"), coef("P", ("D",), "D"),
                r("Y", "D") / r("P", "D"))
    if role == "placebo_treatment":
        return (coef("Y", ("D", "P"), "D"), coef("Y", ("D", "P"), "P"),
                r("P", "D") / r("D", "P"))
    if role == "observed_confounder_1":
        return (coef("Y", ("D", "P"), "D"), coef("P", ("D",), "D"),
                r("Y", "D", "P") / r("D", "P") * r("D") / r("P", "D"))
    if role == "observed_confounder_2":
        return (coef("Y", ("D", "P"), "D"), coef("D", ("P",), "P"),
                r("Y", "D", "P") / r("D", "P") * r("P") / r("D", "P"))
    if role == "mediator":
        return (coef("Y", ("D",), "D"), coef("Y", ("D", "P"), "P"),
                r("P", "D") / r("D") * r("Y", "D") / r("Y", "D", "P"))
    return (coef("Y", ("D",), "D"), coef("P", ("D", "Y"), "Y"),
            r("Y", "D") / r("D") * r("Y", "D") / r("P", "D", "Y"))


@pytest.mark.parametrize("role", sorted(ROLE_KWARGS))
def test_role_paths_match_lstsq_reference(role):
    # The case formula and the bootstrap engine must both reproduce an
    # independent least-squares reference, one lstsq per design, on
    # earnings-scale data.
    data = _earnings_data()
    x = ("AGE", "EDUC")
    target, placebo, sf = _lstsq_reference(role, data, x)
    spec = _spec(role, covariate_cols=x, **ROLE_KWARGS[role])
    case = _case(role, covariate_cols=x, **ROLE_KWARGS[role])
    coefs = case.fit_coefficients(data)
    assert coefs.target == pytest.approx(target, rel=1e-10)
    assert coefs.placebo == pytest.approx(placebo, rel=1e-10)
    assert case.sf(data) == pytest.approx(sf, rel=1e-10)
    table = run_table(data, AnalysisConfig(spec=spec, bootstrap_reps=20,
                                           seed=1))
    soo = next(row for row in table.rows if row.label == "SOO")
    assert soo.estimate == pytest.approx(target, rel=1e-10)
    assert table.metadata["scale_factor"] == pytest.approx(sf, rel=1e-10)


def test_double_placebo_matches_lstsq_reference():
    # The double placebo's shared design, with N a second earnings-scale
    # placebo outcome.
    data = _earnings_data()
    rng = np.random.default_rng(5)
    n = 8000.0 + 0.4 * data["P"] + 900.0 * rng.normal(size=data.n_rows)
    data = Dataset({**{name: data[name] for name in data.names}, "N": n})
    x = ("AGE", "EDUC")
    on_y = _lstsq_fit(data, "Y", ("D", "P", *x))[0]
    on_n = _lstsq_fit(data, "N", ("D", "P", *x))[0]
    want = (on_y["D"], on_y["P"], on_n["D"], on_n["P"],
            np.std(data["N"]) / np.std(data["P"]))
    fits = fit_double_shorts(data, "Y", "D", "P", "N", x)
    assert tuple(fits) == pytest.approx(want, rel=1e-10)
    spec = DoublePlaceboSpec(outcome_col="Y", treatment_col="D",
                             placebo_treatment_col="P",
                             placebo_outcome_col="N", covariate_cols=x)
    table = run_table(data, AnalysisConfig(spec=spec, bootstrap_reps=20,
                                           seed=1))
    soo = next(row for row in table.rows if row.label == "SOO")
    assert soo.estimate == pytest.approx(on_y["D"], rel=1e-10)


def _readme_regressors(names: str) -> str:
    return ",".join([*names.upper(), "X"])


def _readme_role_row(rule) -> list[str]:
    """A role's target, placebo and SF in README's notation."""
    def coefficient(response, regressors, column):
        return (f"b({response.upper()} ~ {_readme_regressors(regressors)} : "
                f"{column.upper()})")

    sf = " · ".join(
        f"r({num.upper()}|{_readme_regressors(num_c)}) / "
        f"r({den.upper()}|{_readme_regressors(den_c)})"
        for num, num_c, den, den_c in rule.sf)
    return [coefficient(*rule.target), coefficient(*rule.placebo), sf]


def test_readme_role_table_matches_the_role_table():
    # README's target/placebo/SF table is written by hand; each row must
    # say what _ROLE_TABLE says.
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip().strip("`").replace("\\|", "|")
                 for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and cells[1].startswith("b("):
            rows[cells[0]] = cells[1:]
    assert rows == {role: _readme_role_row(rule)
                    for role, rule in _ROLE_TABLE.items()}
